/**
 * @file
 * The full-system simulator: per-core hardware (TLB hierarchy, page
 * walker + PWC, PCC unit, data caches), the OS model, and the lane
 * scheduler that interleaves workload access streams deterministically.
 *
 * Scheduling model: each job's lanes run on consecutive cores. Lanes
 * are pulled round-robin in small batches; a lane that yields a
 * Barrier parks until all live lanes of its job reach the barrier, at
 * which point every parked core's clock advances to the job-wide
 * maximum (modelling barrier wait) and lanes resume starting from the
 * job's first lane (so lane-0 post-barrier bookkeeping runs before any
 * other lane observes shared state). Every lane turn banks its core's
 * counter delta into its job. Three parts sit behind modules of their
 * own: the tape session (sim/cache_tape.hpp), the sampler
 * (sim/sampling.hpp) and the run's telemetry (sim/run_telemetry.hpp).
 */

#pragma once

#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "mem/phys_mem.hpp"
#include "os/os.hpp"
#include "os/policy.hpp"
#include "pcc/pcc_unit.hpp"
#include "pt/walker.hpp"
#include "sim/cache_tape.hpp"
#include "sim/config.hpp"
#include "sim/core_counters.hpp"
#include "sim/fault_injector.hpp"
#include "sim/results.hpp"
#include "sim/run_telemetry.hpp"
#include "sim/sampling.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/series.hpp"
#include "telemetry/tail.hpp"
#include "telemetry/trace.hpp"
#include "tenant/scheduler.hpp"
#include "tlb/hierarchy.hpp"
#include "workloads/workload.hpp"

namespace pccsim::sim {

class System : public os::PolicyContext
{
  public:
    /** One workload instance to run (its own process). */
    struct Job
    {
        workloads::Workload *workload = nullptr;
        u32 lanes = 1;
    };

    explicit System(SystemConfig config);
    ~System() override;

    /**
     * Run the jobs to completion and report metrics. With `tapes`, the
     * run shares data-cache work (sim/cache_tape.hpp): it replays the
     * tape stored for its (stream, final cache config) key, or records
     * and publishes one. While a sibling holds the key's recording
     * claim the run sleeps until that tape exists, unless it has a
     * cancel flag (a watched run), which records unclaimed instead.
     * `stream_key` must name the jobs' access
     * streams — their workload specs and lanes, as
     * workloadKey(ExperimentSpec) does. Runs whose cache input depends
     * on more than the stream (see DESIGN.md) ignore `tapes`.
     */
    RunResult run(std::vector<Job> jobs, CacheTapeStore *tapes = nullptr,
                  const std::string &stream_key = {});

    /** Convenience: run one workload on `lanes` cores. */
    RunResult
    run(workloads::Workload &workload, u32 lanes = 1,
        CacheTapeStore *tapes = nullptr, const std::string &stream_key = {})
    {
        return run(std::vector<Job>{{&workload, lanes}}, tapes, stream_key);
    }

    // ---- os::PolicyContext ----
    os::Os &os() override { return *os_; }
    u32 numCores() const override { return config_.num_cores; }
    os::Process &processOnCore(CoreId core) override;
    pcc::PccUnit &pccUnit(CoreId core) override;
    void chargeCore(CoreId core, Cycles cycles) override;
    u64 intervalIndex() const override { return intervals_; }
    u64 accessesSoFar() const override { return total_accesses_; }
    telemetry::PromotionAuditLog *
    audit() override
    {
        return telemetry_ ? telemetry_->audit() : nullptr;
    }

    mem::PhysicalMemory *phys() { return phys_.get(); }

    /** Promotions recorded during run() when record_trace is set. */
    const os::PromotionTrace &recordedTrace() const { return recorded_; }

  private:
    struct CoreState
    {
        CoreState(const SystemConfig &cfg)
            : tlb(cfg.tlb), walker(cfg.pwc), pcc(cfg.pcc),
              dcache(cfg.cache)
        {
        }

        tlb::TlbHierarchy tlb;
        pt::Walker walker;
        pcc::PccUnit pcc;
        cache::CacheHierarchy dcache;
        Cycles cycles = 0;
        Cycles walk_cycles = 0; //!< cycles spent in page-table walks
        u64 accesses = 0;
        u64 faults = 0;
        u32 job = 0; //!< the job whose lane runs here now

        /**
         * Last-translated page on this core: [base, base + bytes).
         * bytes == 0 means invalid; cleared on every shootdown, since
         * promotions/demotions/migrations all flow through the
         * shootdown hook.
         */
        Addr last_page_base = 0;
        u64 last_page_bytes = 0;

        void
        noteTranslated(Addr vaddr, mem::PageSize size)
        {
            last_page_base = mem::pageBase(vaddr, size);
            last_page_bytes = mem::bytesOf(size);
        }

        CoreCounters
        counters() const
        {
            return {.accesses = accesses,
                    .tlb_accesses = tlb.accesses(),
                    .l1_hits = tlb.l1Hits(),
                    .l2_hits = tlb.l2Hits(),
                    .walks = tlb.walks(),
                    .faults = faults,
                    .walker_refs = walker.totalRefs(),
                    .walk_cycles = walk_cycles};
        }
    };

    struct LaneState
    {
        // ---- batch engine ----
        /**
         * The lane's op buffer. Heap-allocated because the batchLane
         * coroutine captures a reference at creation: LaneState lives
         * in a vector whose relocations must not move the buffer.
         */
        std::unique_ptr<workloads::AccessBuffer> buf;
        Generator<workloads::BatchEnd> gen;
        u32 consumed = 0;          //!< ops of buf already simulated
        /** Drained buffer ends at a barrier not yet taken. */
        bool pending_barrier = false;
        /** Generator exhausted; buf holds its residual ops. */
        bool pending_eof = false;

        // ---- scalar engine (batch_engine = false) ----
        Generator<workloads::AccessOp> scalar_gen;

        CoreId core = 0;
        u32 job = 0;
        bool at_barrier = false;
        bool done = false;
    };

    /**
     * One access's cycle cost, split: the data cache's share joins the
     * core's open segment and reaches the clock at its end.
     */
    struct AccessCost
    {
        Cycles core = 0; //!< everything but the data-cache probe
        Cycles data = 0; //!< the data-cache probe (0 when replaying)
    };

    u32
    indexOf(const CoreState &core) const
    {
        return static_cast<u32>(&core - cores_.data());
    }

    /** Simulate one access on a core. */
    AccessCost doAccess(CoreState &core, os::Process &proc, Addr vaddr,
                        bool write);

    /**
     * The data-cache probe of one access: its latency, or 0 when
     * replaying a tape, which skips the cache.
     */
    Cycles
    touchData(CoreState &core, Addr vaddr)
    {
        return tape_.replaying() ? 0 : core.dcache.access(vaddr);
    }

    /** Close the core's open segment, adding its data-cache cycles to
        the clock: at every chunk's end and before onInterval. */
    void
    endSegment(CoreState &core, Cycles data, const Addr *addrs, u32 length)
    {
        core.cycles += tape_.endSegment(indexOf(core), data, addrs, length,
                                        total_accesses_);
    }

    /**
     * Fast-forward one access: page tables, access bits, and (rate-
     * thinned) PCC candidate counters advance; TLBs, data caches, and
     * the walker do not. Charges the mean detailed-window cost so job
     * clocks stay on scale.
     */
    void doFastForward(CoreState &core, os::Process &proc, Addr vaddr);

    /** Run lane turns, `turn(lane, core, proc)`, until all finish. */
    template <typename Turn> void scheduleLanes(Turn &&turn);

    /** The per-op scheduling loop over Workload::lane() adapters. */
    void runScalarLoop();

    /** The batch-buffer scheduling loop (with optional sampling). */
    void runBatchLoop();

    /** A lane ran dry: retire it, and its job when it was the last. */
    void finishLane(LaneState &lane);

    /** A job's wall clock so far: the latest clock of its cores. */
    Cycles jobWall(u32 job) const;

    /** Every core's counters, summed. */
    CoreCounters machineCounters() const;

    /** Hand the sampler the totals at a phase boundary. */
    void advanceSampling();

    /** Fire the interval machinery (policy, shocks, telemetry). */
    void onInterval();

    /** Charge page-table fetches of a walk through the data cache. */
    Cycles chargeWalkRefs(CoreState &core, const os::Process &proc,
                          Addr vaddr, unsigned refs, mem::PageSize size);

    /** Release a job's barrier if every live lane reached it. */
    void maybeReleaseBarrier(u32 job);

    /**
     * Tenant mode: make `lane`'s tenant current on its core before the
     * lane's turn. On an actual switch (another tenant held the core)
     * charges the context-switch cost, performs the switch-mode action
     * (flush vs ASID retag), and drops the last-translation cache —
     * the departing tenant's page, never valid for the incoming one.
     */
    void tenantClaim(const LaneState &lane);

    void installShootdownHook();
    void installFaultInjection();
    void installReclaimRanker();

    /** One invariant sweep across all layers (config_.check_invariants). */
    void runInvariantChecks();

    std::unique_ptr<os::Policy> makePolicy();

    SystemConfig config_;
    std::unique_ptr<mem::PhysicalMemory> phys_;
    std::unique_ptr<os::Os> os_;
    std::unique_ptr<os::Policy> policy_;
    std::unique_ptr<FaultInjector> injector_;
    /** Differential reference model (null unless config_.oracle). */
    std::unique_ptr<DiffChecker> oracle_;
    std::vector<CoreState> cores_;
    std::vector<LaneState> lanes_;
    std::vector<os::Process *> core_process_;
    /** Tenant mode only (null otherwise): the contention scheduler. */
    std::unique_ptr<tenant::Scheduler> tsched_;
    std::vector<os::Process *> job_process_; //!< job -> its process
    /** Per job: the core counter deltas its lane turns banked. */
    std::vector<CoreCounters> job_counters_;
    std::vector<u32> job_live_;    //!< per job: lanes still running
    std::vector<Cycles> job_wall_; //!< per job: clock when it finished
    u32 live_lanes_ = 0;
    /** Ops a lane runs per turn before the scheduler rotates. */
    u32 quantum_ = 0;
    /** Accesses between policy intervals (interval_accesses per lane). */
    u64 interval_stride_ = 0;
    u64 total_accesses_ = 0;
    u64 next_interval_at_ = 0;
    u64 intervals_ = 0;
    u64 shootdowns_ = 0;
    u64 shock_pins_ = 0;
    u64 invariant_checks_ = 0;
    u64 invariant_failures_ = 0;
    std::string first_invariant_failure_;
    os::PromotionTrace recorded_;

    CacheTapeSession tape_;
    SampleController sampler_; //!< meaningful only when sampling
    /** Null unless config_.telemetry.enabled. */
    std::unique_ptr<RunTelemetry> telemetry_;
};

std::string to_string(PolicyKind kind);

} // namespace pccsim::sim
