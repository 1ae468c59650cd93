/**
 * @file
 * A single set-associative TLB structure with true-LRU replacement.
 *
 * One instance caches translations of exactly one page size, keyed by the
 * virtual page number at that size. Timing is modelled by the hierarchy;
 * this class only answers hit/miss and maintains replacement state.
 *
 * The entries live in a util::LruSets tag array, the same one the data
 * cache uses: exact true LRU, with holes (ways emptied by invalidation
 * or a flush) filled before any valid entry is evicted.
 */

#pragma once

#include <optional>

#include "tlb/geometry.hpp"
#include "util/log.hpp"
#include "util/tagscan.hpp"
#include "util/types.hpp"

namespace pccsim::tlb {

class SetAssocTlb
{
  public:
    /** Outcome of a combined probe-or-insert access(). */
    struct AccessResult
    {
        bool hit = false;
        /** VPN evicted when the miss-path insertion had to evict. */
        std::optional<Vpn> displaced{};
    };

    explicit SetAssocTlb(TlbParams params)
        : entries_(params.sets(), params.ways)
    {
        PCCSIM_ASSERT(params.entries % params.ways == 0,
                      "TLB entries not divisible by ways");
    }

    /** Probe for vpn; refreshes LRU state on hit. */
    bool lookup(Vpn vpn) { return entries_.touchIfPresent(vpn); }

    /**
     * Probe for vpn, inserting it over the set's first hole, else its
     * LRU entry, on a miss.
     * @return Whether vpn hit, and the VPN a miss evicted, if any —
     *         the feed of the Sec. 5.4.1 victim-buffer design
     *         alternative.
     */
    AccessResult
    access(Vpn vpn)
    {
        const auto result = entries_.access(vpn);
        if (result.hit || result.victim == util::LruSets::kEmpty)
            return {result.hit, std::nullopt};
        return {false, result.victim};
    }

    /** Probe without touching replacement state. */
    bool contains(Vpn vpn) const { return entries_.contains(vpn); }

    /** Drop vpn if present; true when an entry was removed. */
    bool invalidate(Vpn vpn) { return entries_.invalidate(vpn); }

    /** Drop every entry whose vpn lies in [lo, hi). Returns count. */
    u64
    invalidateVpnRange(Vpn lo, Vpn hi)
    {
        return entries_.dropIf(
            [lo, hi](Vpn vpn) { return vpn >= lo && vpn < hi; });
    }

    /** Invalidate everything. */
    void flushAll() { entries_.flushAll(); }

    /**
     * Drop every entry whose key matches `tag` under `mask` — the
     * targeted flush behind TlbHierarchy::flushAsid() (x86 INVPCID
     * type 1: invalidate one PCID's entries, keep the rest). Returns
     * the number of entries dropped.
     */
    u64
    flushMatching(u64 tag, u64 mask)
    {
        return entries_.dropIf(
            [tag, mask](Vpn vpn) { return (vpn & mask) == tag; });
    }

    /** Currently valid entries (for tests/introspection). */
    u64 validCount() const { return entries_.validCount(); }

    /** Visit the VPN of every valid entry (invariant checking). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        entries_.forEachValid(fn);
    }

  private:
    util::LruSets entries_;
};

} // namespace pccsim::tlb
