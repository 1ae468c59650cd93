/**
 * @file
 * Layer-by-layer replay of a simulation, for the traced benchmark run.
 *
 * Replay re-executes what sim::System::run does for the configurations
 * the benchmark uses, but calls each layer's public functions itself
 * (workload generator, fault path, LTC/TLB, walker+PWC, PCC, data
 * cache, interval policy, tenant switch) so that it can bracket those
 * calls with spans. Its counters must equal the untraced RunResult
 * exactly; compareResults() is that gate.
 *
 * Span discipline: per-access layer calls are timed only on a
 * deterministic 1-in-N sample of accesses; rare events (faults,
 * intervals, switches, invalidations, generator refills) are timed on
 * every call. A span's self time is its duration minus its children's.
 */

#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/system.hpp"

namespace perfbench {

using namespace pccsim;

enum class Layer : unsigned
{
    Gen = 0,     //!< Workload::batchLane refills
    Fault,       //!< Policy::wantHugeFault + Os::handleFault
    TlbAccess,   //!< TlbHierarchy::access
    TlbFill,     //!< TlbHierarchy::fill
    TlbFlush,    //!< shootdown hook and flush-on-switch
    Walk,        //!< Walker::walk + walk-ref charge
    PccObserve,  //!< PccUnit::observeWalk
    Cache,       //!< CacheHierarchy::access
    Interval,    //!< Policy::onInterval
    Claim,       //!< tenant switch (Scheduler::claim and retag)
    Empty,       //!< an empty span on each sampled access: the cost
                 //!< of the spans themselves, measured in place
    Count,
};

/** Accumulated host time of one layer. */
struct LayerTime
{
    u64 calls = 0;    //!< every call, timed or not
    u64 timed = 0;    //!< calls that carried a span
    u64 self_ns = 0;  //!< summed self time of the timed calls
};

/** Span recorder with self-time accounting over a small stack. */
class Tracer
{
  public:
    explicit Tracer(u32 sample_every) : sample_every_(sample_every) {}

    /** Decide whether the next access is a timed sample. */
    bool
    nextAccess()
    {
        sampled_ = ++tick_ == sample_every_;
        if (sampled_)
            tick_ = 0;
        return sampled_;
    }

    bool sampled() const { return sampled_; }

    void count(Layer layer) { ++layers_[idx(layer)].calls; }

    void begin(Layer layer);
    void end();

    const LayerTime &layer(Layer l) const { return layers_[idx(l)]; }

  private:
    static unsigned idx(Layer l) { return static_cast<unsigned>(l); }

    struct Frame
    {
        Layer layer = Layer::Gen;
        u64 start = 0;
        u64 child = 0;
    };

    u32 sample_every_;
    u32 tick_ = 0;
    bool sampled_ = false;
    std::array<Frame, 16> stack_{};
    unsigned depth_ = 0;
    std::array<LayerTime, static_cast<unsigned>(Layer::Count)> layers_{};
};

/** Hardware and OS counts the replay reads where the work happens. */
struct LayerCounts
{
    u64 accesses = 0;
    u64 ltc_hits = 0;
    u64 tlb_accesses = 0;
    u64 tlb_l1_hits = 0;
    u64 tlb_l2_hits = 0;
    u64 walks = 0;
    u64 walker_refs = 0;
    u64 gen_ops = 0;
    u64 cache_accesses = 0;
    u64 cache_l1_hits = 0;
    u64 cache_l2_hits = 0;
    u64 cache_llc_hits = 0;
    u64 cache_dram = 0;
    u64 pcc_occupied = 0;
    u64 pcc_capacity = 0;
    u64 faults = 0;
    u64 promotions = 0;
    u64 promote_no_frame = 0;
    u64 shootdowns = 0;
    u64 compactions = 0;
    u64 switches = 0;
    u64 budget_skips = 0;
    u64 audit_records = 0;
    u64 fragment_ns = 0;

    void add(const LayerCounts &o);
};

/**
 * One replayed simulation. Supports what the benchmark runs: the batch
 * engine with single-lane jobs, either one job or tenant mode, with
 * optional fragmentation and promotion auditing. Anything else throws
 * std::runtime_error rather than replay a path it does not mirror.
 */
class Replay : public os::PolicyContext
{
  public:
    Replay(sim::SystemConfig config, Tracer &tracer);
    ~Replay() override;

    sim::RunResult run(std::vector<sim::System::Job> jobs);

    const LayerCounts &counts() const { return counts_; }

    // ---- os::PolicyContext ----
    os::Os &os() override { return *os_; }
    u32 numCores() const override { return config_.num_cores; }
    os::Process &processOnCore(CoreId core) override;
    pcc::PccUnit &pccUnit(CoreId core) override;
    void chargeCore(CoreId core, Cycles cycles) override;
    u64 intervalIndex() const override { return intervals_; }
    u64 accessesSoFar() const override { return total_accesses_; }
    telemetry::PromotionAuditLog *audit() override { return audit_.get(); }

  private:
    struct Core;
    struct Lane;

    Cycles doAccess(Core &core, os::Process &proc, Addr vaddr);
    Cycles chargeWalkRefs(Core &core, const os::Process &proc,
                          Addr vaddr, unsigned refs, mem::PageSize size);
    void onInterval(u32 total_lanes);
    void tenantClaim(const Lane &lane);
    void installHooks();

    sim::SystemConfig config_;
    Tracer &tracer_;
    std::unique_ptr<mem::PhysicalMemory> phys_;
    std::unique_ptr<os::Os> os_;
    std::unique_ptr<os::Policy> policy_;
    std::unique_ptr<telemetry::PromotionAuditLog> audit_;
    std::unique_ptr<tenant::Scheduler> tsched_;
    std::vector<Core> cores_;
    std::vector<os::Process *> core_process_;
    std::vector<os::Process *> job_process_;
    u64 total_accesses_ = 0;
    u64 next_interval_at_ = 0;
    u64 intervals_ = 0;
    u64 shootdowns_ = 0;
    LayerCounts counts_;
};

/**
 * Field-by-field comparison of a replayed result against the untraced
 * one. Returns "" when they agree, else the first differing counter.
 * RunResult carries no per-level data-cache hits; the cache outcomes
 * are covered through wall_cycles, which charges every level's latency.
 */
std::string compareResults(const sim::RunResult &untraced,
                           const sim::RunResult &replayed,
                           const LayerCounts &replay_counts);

} // namespace perfbench
