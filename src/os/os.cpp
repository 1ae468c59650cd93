#include "os/os.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace pccsim::os {

Os::Os(Params params, mem::PhysicalMemory &phys)
    : params_(params), phys_(phys)
{
}

Process &
Os::createProcess(u64 heap_capacity)
{
    return adoptProcess(
        std::make_unique<Process>(numProcesses(), heap_capacity));
}

Process &
Os::adoptProcess(std::unique_ptr<Process> proc)
{
    PCCSIM_ASSERT(proc && proc->pid() == processes_.size(),
                  "adopted process must take the next pid");
    processes_.push_back(std::move(proc));
    return *processes_.back();
}

telemetry::AuditReason
Os::auditReasonFor(PromoteStatus status) const
{
    using telemetry::AuditReason;
    switch (status) {
      case PromoteStatus::Ok: return AuditReason::Ok;
      case PromoteStatus::AlreadyHuge: return AuditReason::AlreadyHuge;
      case PromoteStatus::CapReached: return AuditReason::CapReached;
      case PromoteStatus::NoHugeFrame:
        // With a fault-injection gate installed the failure may be
        // injected (transient); without one it is genuine exhaustion
        // or fragmentation. The audit distinguishes the two classes.
        return phys_.transientFailuresPossible()
                   ? AuditReason::NoHugeFrameTransient
                   : AuditReason::NoHugeFrame;
      case PromoteStatus::NotEligible: return AuditReason::NotEligible;
    }
    return AuditReason::NotEligible;
}

Cycles
Os::handleFault(Process &proc, Addr vaddr, bool want_huge)
{
    PCCSIM_ASSERT(proc.contains(vaddr), "fault outside any VMA");
    Cycles cost = params_.costs.base_fault;

    const Addr region_base = mem::pageBase(vaddr, mem::PageSize::Huge2M);
    const bool region_untouched = proc.faultedInRegion(vaddr) == 0 &&
        proc.regionStateOf(vaddr) == RegionState::Unbacked;

    // MADV_NOHUGEPAGE is enforced here in the mechanism, not just in
    // the policies: even a policy whose wantHugeFault() ignores hints
    // (all-huge) must fall back to base pages for an opted-out region,
    // exactly as the kernel's fault path does.
    if (want_huge && region_untouched &&
        proc.hintOf(region_base) != HugeHint::NoHuge &&
        region_base + mem::kBytes2M <= proc.heapEnd() &&
        capAllows(mem::kBytes2M)) {
        if (auto pfn = phys_.allocHuge(
                proc.pid(), mem::vpnOf(region_base,
                                       mem::PageSize::Base4K))) {
            proc.pageTable().mapHuge2M(region_base, *pfn);
            proc.markRegionHuge(region_base);
            ++stats_.counter("huge_faults");
            if (audit_) {
                audit_->record(telemetry::AuditAction::FaultHuge,
                               telemetry::AuditReason::Ok, proc.pid(),
                               region_base, 0, 0,
                               params_.costs.huge_fault_extra);
            }
            return cost + params_.costs.huge_fault_extra;
        }
        ++stats_.counter("huge_fault_fallbacks");
        if (audit_) {
            audit_->record(telemetry::AuditAction::FaultHuge,
                           auditReasonFor(PromoteStatus::NoHugeFrame),
                           proc.pid(), region_base);
        }
    }

    // Base-page fault.
    const Vpn vpn = mem::vpnOf(vaddr, mem::PageSize::Base4K);
    auto pfn = phys_.allocBase(proc.pid(), vpn);
    if (!pfn) {
        // Memory pressure, real or injected. Degrade gracefully the
        // way direct reclaim does: demote the coldest huge pages, drop
        // their never-touched (bloat) frames, and retry with the
        // injection gate bypassed so only genuine exhaustion is fatal.
        ++stats_.counter("base_alloc_pressure");
        if (params_.reclaim_on_pressure) {
            const auto reclaimed =
                reclaimColdHugePages(params_.reclaim_batch_regions);
            cost += reclaimed.app_cycles + params_.costs.reclaim_event;
        }
        pfn = phys_.allocBase(proc.pid(), vpn, /*bypass_gate=*/true);
        if (!pfn)
            fatal("simulated physical memory exhausted: enlarge phys size");
    }
    proc.pageTable().mapBase(vaddr, *pfn);
    proc.markFaulted(vaddr);
    ++stats_.counter("base_faults");
    return cost;
}

std::optional<Pfn>
Os::acquireHugeFrame(Process &proc, Addr region_base,
                     bool allow_compaction, PromoteResult &result)
{
    const Vpn first_vpn = mem::vpnOf(region_base, mem::PageSize::Base4K);

    // One acquisition pass: direct allocation, then compaction rounds.
    const auto attempt_once = [&]() -> std::optional<Pfn> {
        if (auto pfn = phys_.allocHuge(proc.pid(), first_vpn))
            return pfn;
        if (!allow_compaction)
            return std::nullopt;
        for (u32 attempt = 0; attempt < params_.compaction_attempts;
             ++attempt) {
            auto compaction = phys_.compactOneBlock();
            chargeBackground(params_.costs.compaction_attempt);
            ++result.compaction_runs;
            if (!compaction) {
                if (tracer_) {
                    tracer_->record(telemetry::EventKind::Compaction,
                                    proc.pid(), region_base, 0, 0);
                }
                return std::nullopt;
            }
            result.compacted = true;
            if (tracer_) {
                // arg = pages migrated by this compaction run.
                tracer_->record(telemetry::EventKind::Compaction,
                                proc.pid(), region_base, mem::kBytes2M,
                                compaction->moves.size());
            }
            chargeBackground(compaction->moves.size() *
                             params_.costs.copy_page);
            applyMoves(compaction->moves);
            if (auto pfn = phys_.allocHuge(proc.pid(), first_vpn))
                return pfn;
        }
        return std::nullopt;
    };

    if (auto pfn = attempt_once())
        return pfn;

    // Retry with exponential backoff — but only when failures can be
    // transient (a fault-injection gate is installed). A genuine
    // out-of-frames condition cannot resolve between back-to-back
    // attempts, and retrying then would skew clean-run accounting.
    if (!phys_.transientFailuresPossible())
        return std::nullopt;
    for (u32 retry = 1; retry <= params_.promote_retries; ++retry) {
        chargeBackground(params_.retry_backoff << (retry - 1));
        ++result.retries;
        ++stats_.counter("promote_retries");
        if (auto pfn = attempt_once()) {
            ++stats_.counter("promote_retry_successes");
            return pfn;
        }
    }
    return std::nullopt;
}

void
Os::applyMoves(const std::vector<mem::PhysicalMemory::Move> &moves)
{
    for (const auto &move : moves) {
        if (move.owner.pid == mem::kFillerPid)
            continue; // filler pages have no page table to update
        Process &owner = process(move.owner.pid);
        const Addr vaddr = move.owner.vpn4k << mem::kShift4K;
        const bool ok = owner.pageTable().remapBase(vaddr, move.to);
        PCCSIM_ASSERT(ok, "compaction move for unmapped page");
        // Migrated translations must leave the TLBs; the cost lands on
        // whichever cores run the owner.
        if (shootdown_)
            shootdown_(owner.pid(), vaddr, mem::kBytes4K);
        ++stats_.counter("migrated_pages");
    }
}

PromoteResult
Os::promoteRegion(Process &proc, Addr region_base, bool allow_compaction,
                  PromoteAttempt attempt)
{
    PromoteResult result;
    region_base = mem::pageBase(region_base, mem::PageSize::Huge2M);
    const auto audited = [&](PromoteResult r) {
        if (audit_) {
            audit_->record(telemetry::AuditAction::Promote2M,
                           auditReasonFor(r.status), proc.pid(),
                           region_base, attempt.rank, attempt.counter,
                           r.app_cycles);
        }
        return r;
    };
    if (!proc.contains(region_base) ||
        region_base + mem::kBytes2M > proc.heapEnd()) {
        result.status = PromoteStatus::NotEligible;
        return audited(result);
    }
    // MADV_NOHUGEPAGE regions must never be promoted, whichever policy
    // asks and whatever the memory pressure — a mechanism guarantee,
    // like the kernel's VM_NOHUGEPAGE check in khugepaged.
    if (proc.hintOf(region_base) == HugeHint::NoHuge) {
        result.status = PromoteStatus::NotEligible;
        return audited(result);
    }
    const RegionState state = proc.regionStateOf(region_base);
    if (state == RegionState::Huge2M || state == RegionState::Huge1G) {
        result.status = PromoteStatus::AlreadyHuge;
        return audited(result);
    }
    if (state == RegionState::Unbacked || proc.faultedInRegion(region_base) == 0) {
        result.status = PromoteStatus::NotEligible;
        return audited(result);
    }
    if (!capAllows(mem::kBytes2M)) {
        result.status = PromoteStatus::CapReached;
        return audited(result);
    }

    auto huge_pfn = acquireHugeFrame(proc, region_base, allow_compaction,
                                     result);
    if (!huge_pfn) {
        result.status = PromoteStatus::NoHugeFrame;
        ++stats_.counter("promotion_no_frame");
        return audited(result);
    }

    // Copy faulted pages into the huge frame (background thread work)
    // and release their old frames.
    const u32 copied = proc.faultedInRegion(region_base);
    chargeBackground(static_cast<Cycles>(copied) * params_.costs.copy_page);
    for (u64 p = 0; p < mem::kPagesPer2M; ++p) {
        const Addr vaddr = region_base + p * mem::kBytes4K;
        if (!proc.faulted(vaddr))
            continue;
        const auto mapping = proc.pageTable().lookup(vaddr);
        if (mapping.present && mapping.size == mem::PageSize::Base4K)
            phys_.freeBase(mapping.pfn);
    }

    proc.pageTable().mapHuge2M(region_base, *huge_pfn);
    proc.markRegionHuge(region_base);

    // The page-table rewrite requires a TLB shootdown, which also
    // invalidates the region from the PCCs (Fig. 4 step C).
    if (shootdown_)
        result.app_cycles += shootdown_(proc.pid(), region_base,
                                        mem::kBytes2M);
    result.app_cycles += params_.costs.promotion_conflict;
    result.status = PromoteStatus::Ok;
    ++stats_.counter("promotions");
    if (result.compacted)
        ++stats_.counter("promotions_after_compaction");
    if (promoted_)
        promoted_(proc.pid(), region_base, mem::PageSize::Huge2M);
    if (tracer_) {
        // arg = compaction runs this promotion needed (0 = free frame).
        tracer_->record(telemetry::EventKind::Promotion, proc.pid(),
                        region_base, mem::kBytes2M,
                        result.compaction_runs);
    }
    return audited(result);
}

PromoteResult
Os::promoteRegion1G(Process &proc, Addr region_base,
                    PromoteAttempt attempt, bool allow_compaction)
{
    PromoteResult result;
    region_base = mem::pageBase(region_base, mem::PageSize::Huge1G);
    const auto audited = [&](PromoteResult r) {
        if (audit_) {
            // A gigabyte allocation failure gets its own reason code:
            // it is a fragmentation statement about order-18 chunks,
            // not the 2MB-frame exhaustion NoHugeFrame describes.
            telemetry::AuditReason reason = auditReasonFor(r.status);
            if (reason == telemetry::AuditReason::NoHugeFrame)
                reason = telemetry::AuditReason::No1GFrame;
            audit_->record(telemetry::AuditAction::Promote1G, reason,
                           proc.pid(), region_base, attempt.rank,
                           attempt.counter, r.app_cycles);
        }
        return r;
    };
    if (!proc.contains(region_base) ||
        region_base + mem::kBytes1G > proc.heapEnd()) {
        result.status = PromoteStatus::NotEligible;
        return audited(result);
    }
    // The range must be touched somewhere, not already 1GB, and free
    // of MADV_NOHUGEPAGE constituents — collapsing an opted-out 2MB
    // region into a gigabyte page would promote it by the back door.
    bool touched = false;
    for (u64 r = 0; r < mem::k2MPer1G; ++r) {
        const Addr base = region_base + r * mem::kBytes2M;
        if (proc.regionStateOf(base) == RegionState::Huge1G) {
            result.status = PromoteStatus::AlreadyHuge;
            return audited(result);
        }
        if (proc.hintOf(base) == HugeHint::NoHuge) {
            result.status = PromoteStatus::NotEligible;
            return audited(result);
        }
        touched |= proc.faultedInRegion(base) > 0;
    }
    if (!touched) {
        result.status = PromoteStatus::NotEligible;
        return audited(result);
    }
    if (!capAllows(mem::kBytes1G)) {
        result.status = PromoteStatus::CapReached;
        return audited(result);
    }

    const Vpn first_vpn = mem::vpnOf(region_base, mem::PageSize::Base4K);
    auto huge_pfn = phys_.allocHuge1G(proc.pid(), first_vpn);
    if (!huge_pfn && allow_compaction) {
        // Gigabyte-targeted compaction: pick the group cheapest to
        // vacate and migrate its movable pages out block by block.
        // Each round liberates one 2MB block inside the group; the
        // group is won when compactOneBlockIn finds nothing left to
        // move and the order-18 allocation succeeds. Bounded by the
        // group size so a pathological gate cannot spin forever.
        if (const auto gig = phys_.bestGigCandidate()) {
            for (u64 round = 0; round <= mem::k2MPer1G; ++round) {
                const auto compaction = phys_.compactOneBlockIn(*gig);
                chargeBackground(params_.costs.compaction_attempt);
                ++result.compaction_runs;
                if (!compaction)
                    break;
                result.compacted = true;
                chargeBackground(compaction->moves.size() *
                                 params_.costs.copy_page);
                applyMoves(compaction->moves);
                if (tracer_) {
                    tracer_->record(telemetry::EventKind::Compaction,
                                    proc.pid(), region_base,
                                    mem::kBytes1G,
                                    compaction->moves.size());
                }
            }
            huge_pfn = phys_.allocHuge1G(proc.pid(), first_vpn);
            if (huge_pfn)
                ++stats_.counter("promotion1g_compacted");
        }
    }
    if (!huge_pfn && phys_.transientFailuresPossible()) {
        // Injected transient failures deserve the same bounded
        // backoff-and-retry as 2MB promotion.
        for (u32 retry = 1; retry <= params_.promote_retries && !huge_pfn;
             ++retry) {
            chargeBackground(params_.retry_backoff << (retry - 1));
            ++result.retries;
            ++stats_.counter("promote_retries");
            huge_pfn = phys_.allocHuge1G(proc.pid(), first_vpn);
            if (huge_pfn)
                ++stats_.counter("promote_retry_successes");
        }
    }
    if (!huge_pfn) {
        result.status = PromoteStatus::NoHugeFrame;
        ++stats_.counter("promotion1g_no_frame");
        return audited(result);
    }

    // Collapse every constituent mapping into the 1GB frame.
    u64 copied = 0;
    for (u64 r = 0; r < mem::k2MPer1G; ++r) {
        const Addr base = region_base + r * mem::kBytes2M;
        const auto mapping = proc.pageTable().lookup(base);
        if (mapping.present && mapping.size == mem::PageSize::Huge2M) {
            phys_.freeHuge(mapping.pfn);
            copied += mem::kPagesPer2M;
            continue;
        }
        for (u64 p = 0; p < mem::kPagesPer2M; ++p) {
            const Addr vaddr = base + p * mem::kBytes4K;
            if (!proc.faulted(vaddr))
                continue;
            const auto pte = proc.pageTable().lookup(vaddr);
            if (pte.present && pte.size == mem::PageSize::Base4K) {
                phys_.freeBase(pte.pfn);
                ++copied;
            }
        }
    }
    chargeBackground(copied * params_.costs.copy_page);

    proc.pageTable().mapHuge1G(region_base, *huge_pfn);
    proc.markRegion1G(region_base);

    if (shootdown_)
        result.app_cycles += shootdown_(proc.pid(), region_base,
                                        mem::kBytes1G);
    result.app_cycles += params_.costs.promotion_conflict;
    result.status = PromoteStatus::Ok;
    ++stats_.counter("promotions_1g");
    if (promoted_)
        promoted_(proc.pid(), region_base, mem::PageSize::Huge1G);
    if (tracer_) {
        tracer_->record(telemetry::EventKind::Promotion1G, proc.pid(),
                        region_base, mem::kBytes1G, result.retries);
    }
    return audited(result);
}

Cycles
Os::demoteRegion1G(Process &proc, Addr region_base)
{
    region_base = mem::pageBase(region_base, mem::PageSize::Huge1G);
    const auto mapping = proc.pageTable().lookup(region_base);
    PCCSIM_ASSERT(mapping.present &&
                  mapping.size == mem::PageSize::Huge1G,
                  "demoteRegion1G on non-1GB mapping");

    // In-place split into 512 huge frames: physical ownership moves to
    // per-2MB granularity.
    for (u64 r = 0; r < mem::k2MPer1G; ++r) {
        const Pfn pfn = mapping.pfn + r * mem::kPagesPer2M;
        (void)pfn; // frames stay allocated; block marking is below
    }
    // Rebuild block-level ownership: reuse freeHuge1G+allocHuge would
    // churn the buddy; instead adjust bookkeeping directly via split.
    phys_.split1GTo2M(mapping.pfn, proc.pid(),
                      mem::vpnOf(region_base, mem::PageSize::Base4K));
    proc.pageTable().demote1G(region_base);
    proc.markRegion1GDemoted(region_base);

    Cycles app_cycles = 0;
    if (shootdown_)
        app_cycles += shootdown_(proc.pid(), region_base,
                                 mem::kBytes1G);
    ++stats_.counter("demotions_1g");
    if (tracer_) {
        tracer_->record(telemetry::EventKind::Demotion1G, proc.pid(),
                        region_base, mem::kBytes1G, 0);
    }
    if (audit_) {
        audit_->record(telemetry::AuditAction::Demote1G,
                       telemetry::AuditReason::Ok, proc.pid(),
                       region_base, 0, 0, app_cycles);
    }
    return app_cycles;
}

Cycles
Os::demoteRegion(Process &proc, Addr region_base)
{
    region_base = mem::pageBase(region_base, mem::PageSize::Huge2M);
    PCCSIM_ASSERT(proc.regionStateOf(region_base) == RegionState::Huge2M,
                  "demoting a non-huge region");
    const auto mapping = proc.pageTable().lookup(region_base);
    PCCSIM_ASSERT(mapping.present &&
                  mapping.size == mem::PageSize::Huge2M);

    // In-place split, as Linux does: the 512 constituent frames become
    // individually-owned base frames.
    phys_.splitHuge(mapping.pfn, proc.pid(),
                    mem::vpnOf(region_base, mem::PageSize::Base4K));
    proc.pageTable().demote2M(region_base);
    proc.markRegionDemoted(region_base);

    Cycles app_cycles = 0;
    if (shootdown_)
        app_cycles += shootdown_(proc.pid(), region_base, mem::kBytes2M);
    ++stats_.counter("demotions");
    if (tracer_) {
        tracer_->record(telemetry::EventKind::Demotion, proc.pid(),
                        region_base, mem::kBytes2M, 0);
    }
    if (audit_) {
        audit_->record(telemetry::AuditAction::Demote2M,
                       telemetry::AuditReason::Ok, proc.pid(),
                       region_base, 0, 0, app_cycles);
    }
    return app_cycles;
}

Os::ReclaimResult
Os::reclaimColdHugePages(u32 max_regions)
{
    struct Victim
    {
        Pid pid;
        Addr base;
        u64 score;     //!< hotness per the ranker; lower = colder
        u32 untouched; //!< frames a demotion would actually free
    };
    std::vector<Victim> candidates;
    for (const auto &proc : processes_) {
        for (u64 r = 0; r < proc->numRegions(); ++r) {
            const Addr base = proc->regionBase(r);
            if (proc->regionStateOf(base) != RegionState::Huge2M)
                continue;
            const u32 untouched = static_cast<u32>(mem::kPagesPer2M) -
                                  proc->touchedInRegion(base);
            if (untouched == 0)
                continue; // every frame holds data; demoting frees nothing
            const u64 score = ranker_ ? ranker_(proc->pid(), base) : 0;
            candidates.push_back({proc->pid(), base, score, untouched});
        }
    }

    // Coldest first; ties break toward the most bloat, then by address
    // so victim selection is deterministic.
    const u64 take = std::min<u64>(max_regions, candidates.size());
    std::partial_sort(candidates.begin(), candidates.begin() + take,
                      candidates.end(),
                      [](const Victim &a, const Victim &b) {
                          if (a.score != b.score)
                              return a.score < b.score;
                          if (a.untouched != b.untouched)
                              return a.untouched > b.untouched;
                          if (a.pid != b.pid)
                              return a.pid < b.pid;
                          return a.base < b.base;
                      });

    ReclaimResult result;
    ++stats_.counter("reclaim_events");
    for (u64 v = 0; v < take; ++v) {
        const Victim &victim = candidates[v];
        Process &proc = process(victim.pid);
        if (audit_) {
            // rank = position in the coldness order, counter = the
            // ranker's hotness score the selection used.
            audit_->record(telemetry::AuditAction::Reclaim,
                           telemetry::AuditReason::PressureReclaim,
                           victim.pid, victim.base,
                           static_cast<u32>(v), victim.score);
        }
        result.app_cycles += demoteRegion(proc, victim.base);
        ++result.regions_demoted;
        ++stats_.counter("reclaim_demotions");

        // The split left 512 individually-mapped base frames; the
        // never-touched ones hold no data, so unmap and free them.
        u64 freed = 0;
        for (u64 p = 0; p < mem::kPagesPer2M; ++p) {
            const Addr vaddr = victim.base + p * mem::kBytes4K;
            if (proc.touched(vaddr))
                continue;
            const auto pte = proc.pageTable().lookup(vaddr);
            if (!pte.present || pte.size != mem::PageSize::Base4K)
                continue;
            proc.pageTable().unmap(vaddr);
            phys_.freeBase(pte.pfn);
            const u64 page = proc.pageIndex(vaddr);
            proc.faulted_[page >> 6] &= ~(1ull << (page & 63));
            --proc.faulted_per_region_[proc.regionIndex(vaddr)];
            ++freed;
        }
        proc.bloat_pages_ -= freed;
        result.frames_freed += freed;
        stats_.counter("reclaimed_frames") += freed;
    }
    if (tracer_) {
        // bytes = memory actually freed; arg = regions demoted.
        tracer_->record(telemetry::EventKind::Reclaim, 0, 0,
                        result.frames_freed * mem::kBytes4K,
                        result.regions_demoted);
    }
    return result;
}

u64
Os::promotedBytesTotal() const
{
    u64 total = 0;
    for (const auto &proc : processes_)
        total += proc->promotedBytes();
    return total;
}

std::optional<u64>
Os::promotionBudgetRegions() const
{
    if (!params_.promotion_cap_bytes)
        return std::nullopt;
    const u64 used = promotedBytesTotal();
    if (used >= *params_.promotion_cap_bytes)
        return 0;
    return (*params_.promotion_cap_bytes - used) / mem::kBytes2M;
}

} // namespace pccsim::os
