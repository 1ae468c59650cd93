/**
 * @file
 * The OS memory-management model: page-fault handling, huge-page
 * promotion/demotion execution (with compaction), and TLB-shootdown
 * plumbing. Promotion *policy* lives elsewhere (policy.hpp); this class
 * is the mechanism every policy shares.
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mem/phys_mem.hpp"
#include "os/costs.hpp"
#include "os/process.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/trace.hpp"
#include "util/stats.hpp"

namespace pccsim::os {

/** Outcome of a promotion attempt. */
enum class PromoteStatus : u8
{
    Ok = 0,
    AlreadyHuge,
    CapReached,       //!< promotion budget (utility-curve limit) hit
    NoHugeFrame,      //!< no frame and compaction not allowed / failed
    NotEligible,      //!< region outside a VMA or never touched
};

struct PromoteResult
{
    PromoteStatus status = PromoteStatus::NotEligible;
    Cycles app_cycles = 0; //!< synchronous cost charged to the app core
    bool compacted = false;
    u32 retries = 0;        //!< extra acquire attempts after failures
    u32 compaction_runs = 0; //!< compactOneBlock() calls made
};

/**
 * The policy's evidence behind a promotion attempt, forwarded into the
 * audit log so each decision record carries the candidate's rank and
 * counter value. Default-constructed (rank 0 / counter 0) for callers
 * with no ranking, so existing call sites need no change.
 */
struct PromoteAttempt
{
    u32 rank = 0;    //!< 0-based rank among this interval's candidates
    u64 counter = 0; //!< PCC frequency / coverage estimate
};

class Os
{
  public:
    struct Params
    {
        OsCosts costs{};
        /**
         * Promotion budget in bytes across all processes; nullopt means
         * unlimited. Drives the paper's utility curves (huge pages
         * back N% of the footprint).
         */
        std::optional<u64> promotion_cap_bytes{};
        /** Max compaction attempts per needed huge frame. */
        u32 compaction_attempts = 8;
        /**
         * Extra huge-frame acquisition attempts after a transient
         * failure. Only taken when the physical memory reports that
         * failures can be transient (a fault-injection gate is
         * installed); a genuine out-of-frames condition never changes
         * between back-to-back attempts, so retrying would only skew
         * clean-run results.
         */
        u32 promote_retries = 2;
        /** Backoff charged per retry (doubles each attempt). */
        Cycles retry_backoff = 2'000;
        /**
         * On base-page allocation failure, demote and trim cold huge
         * pages to free memory (direct-reclaim analogue) instead of
         * aborting the run.
         */
        bool reclaim_on_pressure = true;
        /** Huge regions reclaimed per pressure event. */
        u32 reclaim_batch_regions = 1;
    };

    /**
     * Shootdown hook installed by the System: invalidates TLBs, PWCs
     * and PCC entries for [base, base+bytes) of process pid on every
     * core, and returns the cycles charged to the faulting/owning core.
     */
    using ShootdownHook = std::function<Cycles(Pid, Addr, u64)>;

    /** Observer invoked after every successful promotion (tracing). */
    using PromotionHook =
        std::function<void(Pid, Addr, mem::PageSize)>;

    /**
     * Hotness estimate for a huge region, used to pick reclaim victims
     * (coldest first). The System wires this to the PCCs so reclaim is
     * guided by the same page-walk frequencies that guide promotion;
     * without a ranker every candidate scores 0 and ties break toward
     * the most bloated region.
     */
    using ReclaimRanker = std::function<u64(Pid, Addr)>;

    /** Outcome of a pressure-reclaim pass. */
    struct ReclaimResult
    {
        u64 regions_demoted = 0;
        u64 frames_freed = 0;
        Cycles app_cycles = 0; //!< shootdown cost (direct reclaim is
                               //!< charged to the faulting core)
    };

    Os(Params params, mem::PhysicalMemory &phys);

    /** Create a process with the given maximum heap size. */
    Process &createProcess(u64 heap_capacity);

    /**
     * Take ownership of a process built before the OS (so its mapped
     * footprint can size physical memory). Its pid must be the next
     * one createProcess() would hand out.
     */
    Process &adoptProcess(std::unique_ptr<Process> proc);

    Process &process(Pid pid) { return *processes_.at(pid); }
    const Process &process(Pid pid) const { return *processes_.at(pid); }
    u32 numProcesses() const { return static_cast<u32>(processes_.size()); }

    void setShootdownHook(ShootdownHook hook) { shootdown_ = std::move(hook); }
    void setPromotionHook(PromotionHook hook) { promoted_ = std::move(hook); }
    void setReclaimRanker(ReclaimRanker rank) { ranker_ = std::move(rank); }

    /**
     * Structured event tracing (null = off, the default). Every
     * promotion, demotion, compaction run, and reclaim pass records one
     * event; with no tracer each site costs one pointer test, so
     * disabled telemetry never perturbs timing-sensitive runs.
     */
    void setTracer(telemetry::EventTracer *tracer) { tracer_ = tracer; }

    /**
     * Promotion audit trail (null = off, the default; same one-pointer
     * -test discipline as setTracer). Every promote/demote/reclaim
     * decision — including fault-time huge allocations and their
     * fallbacks — records an AuditRecord with a structured reason.
     */
    void setAuditLog(telemetry::PromotionAuditLog *audit) { audit_ = audit; }

    /**
     * Handle a page fault at vaddr.
     * @param want_huge The policy asks for a fault-time 2MB allocation
     *        (greedy THP). Falls back to a base page on failure.
     * @return Synchronous cycles charged to the faulting core.
     */
    Cycles handleFault(Process &proc, Addr vaddr, bool want_huge);

    /**
     * Promote the 2MB region at region_base (khugepaged-style collapse:
     * allocate a huge frame, copy, splice the page table, shoot down).
     * @param allow_compaction Run compaction when no huge frame is free.
     */
    PromoteResult promoteRegion(Process &proc, Addr region_base,
                                bool allow_compaction,
                                PromoteAttempt attempt = {});

    /** Split a huge mapping back into base pages (in place). */
    Cycles demoteRegion(Process &proc, Addr region_base);

    /**
     * Promote a 1GB-aligned range into one 1GB page (Sec. 3.2.3
     * extension). Constituent 4KB and 2MB mappings are collectively
     * collapsed, exactly as the paper describes for mixed regions.
     * @param allow_compaction When no order-18 frame is free, vacate
     *        the cheapest gigabyte group block-by-block (Trident-style
     *        1GB defragmentation) before giving up.
     */
    PromoteResult promoteRegion1G(Process &proc, Addr region_base,
                                  PromoteAttempt attempt = {},
                                  bool allow_compaction = false);

    /** Split a 1GB page into 512 2MB pages (in place). */
    Cycles demoteRegion1G(Process &proc, Addr region_base);

    /**
     * Demote the coldest huge regions and free their never-touched
     * frames. Called by handleFault when a base allocation fails, and
     * available to policies that want to shed bloat proactively.
     */
    ReclaimResult reclaimColdHugePages(u32 max_regions);

    /** Remaining promotion budget in regions; nullopt when unlimited. */
    std::optional<u64> promotionBudgetRegions() const;

    /** Bytes promoted across all processes. */
    u64 promotedBytesTotal() const;

    mem::PhysicalMemory &phys() { return phys_; }
    const Params &params() const { return params_; }
    StatGroup &stats() { return stats_; }

    /** Background (kernel-thread) cycles spent so far, by source. */
    u64 backgroundCycles() const { return background_cycles_; }
    void chargeBackground(Cycles c) { background_cycles_ += c; }

  private:
    /** Does the promotion cap leave room for `more` further bytes? */
    bool
    capAllows(u64 more) const
    {
        return !params_.promotion_cap_bytes ||
               promotedBytesTotal() + more <= *params_.promotion_cap_bytes;
    }

    /** Obtain a huge frame, compacting if allowed. */
    std::optional<Pfn> acquireHugeFrame(Process &proc, Addr region_base,
                                        bool allow_compaction,
                                        PromoteResult &result);

    /** Apply compaction page moves to the owning page tables. */
    void applyMoves(const std::vector<mem::PhysicalMemory::Move> &moves);

    /** Audit reason for a promotion outcome (injection-aware). */
    telemetry::AuditReason auditReasonFor(PromoteStatus status) const;

    Params params_;
    mem::PhysicalMemory &phys_;
    std::vector<std::unique_ptr<Process>> processes_;
    ShootdownHook shootdown_;
    PromotionHook promoted_;
    ReclaimRanker ranker_;
    telemetry::EventTracer *tracer_ = nullptr;
    telemetry::PromotionAuditLog *audit_ = nullptr;
    StatGroup stats_{"os"};
    u64 background_cycles_ = 0;
};

} // namespace pccsim::os
