/**
 * @file
 * Differential oracle for the optimized translation path.
 *
 * The per-access hot path rests on shortcuts (sentinel-packed TLB
 * tags, packed recency ranks, the per-core last-translation cache).
 * Nothing independently proved that the fast path still computes the
 * *same answer* as a naive implementation — regression tests only
 * compare the fast path against itself. The
 * oracle closes that gap: a deliberately simple, obviously-correct
 * reference model (straight set-associative lookup over std::map-backed
 * tables, true LRU by an explicit stamp, no hints, no packing, no
 * fast paths) runs in lockstep with the real System and reports the
 * first divergence with a replayable access index.
 *
 * Checking granularity: the reference model must observe *every*
 * access to keep its TLB state in sync, so the model update always
 * runs. `sample_every` controls how often the per-access field compare
 * (hit level, mapping size) fires; between samples the end-of-run
 * counter audit (finish()) still catches any divergence, just without
 * a per-access index. Use sample_every = 1 (full lockstep) in debug
 * runs and a larger period in release timing runs.
 *
 * The oracle is result-neutral by construction: it only ever reads the
 * event stream and throws OracleError on divergence — it never changes
 * a RunResult. That is why OracleConfig is excluded from the runner's
 * memo key (sim/runner.cpp specKey).
 */

#pragma once

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/paging.hpp"
#include "sim/core_counters.hpp"
#include "tlb/geometry.hpp"
#include "tlb/hierarchy.hpp"
#include "util/types.hpp"

namespace pccsim::sim {

/** Lockstep-checking configuration (off by default). */
struct OracleConfig
{
    bool enabled = false;

    /**
     * Compare real vs. reference outcome on every Nth access (1 =
     * full lockstep). The reference model updates on every access
     * regardless — only the compare is sampled.
     */
    u64 sample_every = 1;

    /**
     * The default compare period a harness should use when the user
     * asks for `--oracle` without a value: full lockstep in debug
     * builds, sampled in release.
     */
    static constexpr u64
    defaultSampleEvery()
    {
#ifdef NDEBUG
        return 64;
#else
        return 1;
#endif
    }
};

/** Everything needed to replay and diagnose one divergence. */
struct OracleDivergence
{
    u64 access_index = 0; //!< accesses the oracle had seen (replayable)
    u32 core = 0;
    Addr vaddr = 0;
    std::string detail;

    std::string toString() const;
};

/** Thrown by the DiffChecker at the first detected divergence. */
class OracleError : public std::runtime_error
{
  public:
    explicit OracleError(OracleDivergence divergence);

    const OracleDivergence &divergence() const { return divergence_; }

  private:
    OracleDivergence divergence_;
};

/**
 * Reference set-associative structure: std::map-backed sets, explicit
 * LRU stamps, linear victim scan. No recency ranks, no sentinel tags —
 * every decision is spelled out. Replacement behavior is equivalent to
 * tlb::SetAssocTlb by construction: true LRU over valid entries with
 * empty slots filled first.
 */
class RefSetAssoc
{
  public:
    explicit RefSetAssoc(tlb::TlbParams params);

    /** Probe; refreshes the LRU stamp on hit. */
    bool lookup(Vpn vpn);

    /** Lookup-or-insert (the hierarchy's combined access()). */
    bool access(Vpn vpn);

    /** Insert, evicting the set's LRU entry when full. */
    void insert(Vpn vpn);

    /** Drop every entry with vpn in [lo, hi); returns count. */
    u64 invalidateRange(Vpn lo, Vpn hi);

    u64 validCount() const;

  private:
    u64 setIndexOf(Vpn vpn) const { return vpn % sets_; }

    u32 sets_;
    u32 ways_;
    u64 clock_ = 0;
    /** set index -> (vpn -> LRU stamp). */
    std::map<u64, std::map<Vpn, u64>> sets_map_;
};

/**
 * Reference two-level TLB hierarchy mirroring tlb::TlbHierarchy's
 * semantics (split L1s per page size, unified size-keyed L2, victim
 * refill of L1 on an L2 hit) with none of its optimizations.
 */
class RefTlbHierarchy
{
  public:
    explicit RefTlbHierarchy(const tlb::TlbGeometry &geometry);

    tlb::HitLevel access(Addr vaddr, mem::PageSize size);
    void fill(Addr vaddr, mem::PageSize size);
    void shootdown(Addr base, u64 bytes);

    /** Account an access served by the System's last-translation
     *  cache: by contract an L1 hit whose stamp refresh cannot change
     *  relative recency (the page is MRU on this core). Returns false
     *  when the reference L1 does not actually hold the page. */
    bool noteRepeatL1Hit(Addr vaddr, mem::PageSize size);

    u64 accesses() const { return accesses_; }
    u64 l1Hits() const { return l1_hits_; }
    u64 l2Hits() const { return l2_hits_; }
    u64 walks() const { return walks_; }

  private:
    bool l2Holds(mem::PageSize size) const;
    static Vpn l2Key(Vpn vpn, mem::PageSize size);
    RefSetAssoc &l1Of(mem::PageSize size);

    tlb::TlbGeometry geometry_;
    RefSetAssoc l1_4k_;
    RefSetAssoc l1_2m_;
    RefSetAssoc l1_1g_;
    RefSetAssoc l2_;
    u64 accesses_ = 0;
    u64 l1_hits_ = 0;
    u64 l2_hits_ = 0;
    u64 walks_ = 0;
};

/**
 * Runs the reference model in lockstep with the real System.
 *
 * The System forwards every translation-relevant event (normal access,
 * last-translation-cache hit, fault fill, shootdown); the checker
 * replays it through the reference hierarchy plus a shadow mapping-size
 * table and throws OracleError at the first divergence. The shadow
 * table additionally enforces the cross-layer contract that a page's
 * mapping size may only change across a shootdown.
 */
class DiffChecker
{
  public:
    DiffChecker(OracleConfig config, const tlb::TlbGeometry &geometry,
                u32 num_cores);

    /** A normal translated access: real outcome vs. reference. */
    void onAccess(u32 core, Pid pid, Addr vaddr, mem::PageSize real_size,
                  tlb::HitLevel real_level);

    /** An access served by the per-core last-translation cache. */
    void onLtcAccess(u32 core, Pid pid, Addr vaddr);

    /** A fault whose handler installed `filled` and filled the TLB. */
    void onFault(u32 core, Pid pid, Addr vaddr, mem::PageSize filled);

    /** Shootdown of [base, base + bytes) across every core. */
    void onShootdown(Addr base, u64 bytes);

    /**
     * End-of-run audit of one core's aggregate TLB counters against
     * the reference model. Catches divergences that slipped between
     * sampled compares.
     */
    void finish(u32 core, const CoreCounters &real);

    u64 accessesSeen() const { return accesses_seen_; }
    u64 comparesDone() const { return compares_done_; }

  private:
    [[noreturn]] void diverge(u32 core, Addr vaddr, std::string detail);
    bool compareDue();

    OracleConfig config_;
    std::vector<RefTlbHierarchy> cores_;
    /**
     * Shadow mapping size per 2MB region (region VPNs are globally
     * unique: process heaps occupy disjoint address ranges). Learned
     * from faults and first accesses, erased on shootdown, and
     * required to stay stable in between.
     */
    std::map<Vpn, mem::PageSize> region_size_;
    u64 accesses_seen_ = 0;
    u64 compares_done_ = 0;
};

} // namespace pccsim::sim
