/**
 * @file
 * Two-level data-TLB hierarchy model.
 *
 * Per Table 2 of the paper: split L1 D-TLBs per page size and a unified
 * second-level TLB holding 4KB and 2MB translations. A memory access whose
 * translation misses everywhere triggers a hardware page-table walk — the
 * event stream the promotion candidate cache consumes.
 *
 * Multi-tenant nodes tag every entry with the current ASID (x86 PCID):
 * the tag is folded into the high bits of the SetAssocTlb key, so
 * translations of different address spaces coexist and a context switch
 * is a setCurrentAsid() call (CR3 write with the PCID-preserve bit)
 * instead of a flushAll(). ASID 0 produces today's raw keys bit for
 * bit, so single-tenant runs are unchanged. Set indexing uses the
 * untagged VPN bits exactly as real ASID-tagged TLBs index by VPN and
 * tag-match on the ASID.
 */

#pragma once

#include <functional>

#include "mem/paging.hpp"
#include "tlb/set_assoc_tlb.hpp"
#include "util/stats.hpp"

namespace pccsim::tlb {

/** Where an address translation was satisfied. */
enum class HitLevel : u8
{
    L1 = 0,
    L2 = 1,
    Miss = 2, //!< full miss: page-table walk required
};

class TlbHierarchy
{
  public:
    /**
     * Bit position of the ASID tag within a SetAssocTlb key. VPNs are
     * at most vaddr >> 12 of a 48-bit canonical address (< 2^36), and
     * the unified-L2 key shifts the VPN by another 2 bits (< 2^38), so
     * the low 48 bits always hold the untagged key and the tag can
     * never collide with kInvalidVpn (~0, which needs all low bits set).
     */
    static constexpr unsigned kAsidShift = 48;

    explicit TlbHierarchy(const TlbGeometry &geometry = TlbGeometry{})
        : geometry_(geometry),
          l1_4k_(geometry.l1_4k),
          l1_2m_(geometry.l1_2m),
          l1_1g_(geometry.l1_1g),
          l2_(geometry.l2)
    {
    }

    /**
     * Translate one access to a page mapped at `size`.
     *
     * @param vaddr Virtual byte address being accessed.
     * @param size Page size of the mapping currently backing vaddr
     *        (known from the page table; the hardware discovers it from
     *        whichever structure hits or from the walk).
     * @return The level that supplied the translation. On Miss the caller
     *         must walk the page table and then call fill().
     */
    HitLevel
    access(Addr vaddr, mem::PageSize size)
    {
        const Vpn vpn = mem::vpnOf(vaddr, size) | asid_tag_;
        ++accesses_;
        if (l1Of(size).lookup(vpn)) {
            ++l1_hits_;
            return HitLevel::L1;
        }
        if (l2Holds(size) && l2_.lookup(l2Key(vpn, size))) {
            ++l2_hits_;
            // A victim-style refill: the translation moves (also) into
            // L1. The combined access() probes and inserts in one set
            // scan (the L1 lookup above already missed).
            l1Of(size).access(vpn);
            return HitLevel::L2;
        }
        ++walks_;
        return HitLevel::Miss;
    }

    /** Observer of L2 TLB evictions (victim-buffer alternative). */
    using L2VictimHook = std::function<void(Vpn, mem::PageSize)>;

    void setL2VictimHook(L2VictimHook hook) { l2_victim_ = std::move(hook); }

    /** Install a translation after a page-table walk. */
    void
    fill(Addr vaddr, mem::PageSize size)
    {
        const Vpn vpn = mem::vpnOf(vaddr, size) | asid_tag_;
        l1Of(size).access(vpn);
        if (l2Holds(size)) {
            if (auto victim = l2_.access(l2Key(vpn, size)).displaced;
                victim && l2_victim_) {
                const Vpn raw = *victim & kKeyMask;
                l2_victim_(raw >> 2,
                           static_cast<mem::PageSize>(raw & 3));
            }
        }
    }

    /**
     * Account one access served by the System's per-core
     * last-translation cache: by construction such an access would
     * have hit L1 (the cached page was L1-filled and nothing
     * invalidated it since), so it counts as an L1 hit without paying
     * the set scan. Skipping the recency update is safe — the page is
     * already its L1 set's most recently used entry, so touching it
     * again would change nothing.
     */
    void
    noteRepeatL1Hit()
    {
        ++accesses_;
        ++l1_hits_;
    }

    /**
     * TLB shootdown for [base, base + bytes) of the address space
     * `asid`: drop all cached translations of every page size
     * overlapping the range. The owning ASID must be supplied because
     * shootdowns target a process that need not be the one currently
     * loaded on this core (promotion IPIs broadcast to every core
     * caching the mapping).
     */
    u64
    shootdown(Addr base, u64 bytes, Asid asid = 0)
    {
        const u64 tag = static_cast<u64>(asid) << kAsidShift;
        u64 dropped = 0;
        dropped += dropRange(l1_4k_, base, bytes, mem::PageSize::Base4K,
                             false, tag);
        dropped += dropRange(l1_2m_, base, bytes, mem::PageSize::Huge2M,
                             false, tag);
        dropped += dropRange(l1_1g_, base, bytes, mem::PageSize::Huge1G,
                             false, tag);
        dropped += dropRange(l2_, base, bytes, mem::PageSize::Base4K,
                             true, tag);
        dropped += dropRange(l2_, base, bytes, mem::PageSize::Huge2M,
                             true, tag);
        ++shootdowns_;
        return dropped;
    }

    /** Flush every structure (context switch / CR3 write). */
    void
    flushAll()
    {
        l1_4k_.flushAll();
        l1_2m_.flushAll();
        l1_1g_.flushAll();
        l2_.flushAll();
    }

    /**
     * Drop every entry of one address space, keeping the rest (x86
     * INVPCID type 1). Used when an ASID is retired or recycled; a
     * plain context switch in ASID mode flushes nothing.
     */
    u64
    flushAsid(Asid asid)
    {
        const u64 tag = static_cast<u64>(asid) << kAsidShift;
        u64 dropped = 0;
        dropped += l1_4k_.flushMatching(tag, ~kKeyMask);
        dropped += l1_2m_.flushMatching(tag, ~kKeyMask);
        dropped += l1_1g_.flushMatching(tag, ~kKeyMask);
        dropped += l2_.flushMatching(tag, ~kKeyMask);
        return dropped;
    }

    /**
     * Context-switch to address space `asid`. Subsequent accesses and
     * fills tag their keys with it; entries of other ASIDs stay
     * resident and become reachable again when their ASID is loaded.
     */
    void
    setCurrentAsid(Asid asid)
    {
        asid_ = asid;
        asid_tag_ = static_cast<u64>(asid) << kAsidShift;
    }

    Asid currentAsid() const { return asid_; }

    u64 accesses() const { return accesses_; }
    u64 l1Hits() const { return l1_hits_; }
    u64 l2Hits() const { return l2_hits_; }
    u64 walks() const { return walks_; }
    u64 shootdowns() const { return shootdowns_; }

    /** Fraction of accesses that missed the whole hierarchy. */
    double missRate() const { return ratio(walks_, accesses_); }

    void
    resetStats()
    {
        accesses_ = l1_hits_ = l2_hits_ = walks_ = shootdowns_ = 0;
    }

    /**
     * Visit every resident translation of the *current* ASID as
     * (vpn, size), tags stripped. Entries can be duplicated across
     * levels; callers that care should de-duplicate. Used by the
     * cross-layer invariant checker to prove no stale translation
     * survives a promotion/demotion shootdown — other tenants' entries
     * are invisible here because the checker compares against the
     * currently-loaded process.
     */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        const auto mine = [this](Vpn key) {
            return (key & ~kKeyMask) == asid_tag_;
        };
        l1_4k_.forEachValid([&](Vpn v) {
            if (mine(v))
                fn(v & kKeyMask, mem::PageSize::Base4K);
        });
        l1_2m_.forEachValid([&](Vpn v) {
            if (mine(v))
                fn(v & kKeyMask, mem::PageSize::Huge2M);
        });
        l1_1g_.forEachValid([&](Vpn v) {
            if (mine(v))
                fn(v & kKeyMask, mem::PageSize::Huge1G);
        });
        l2_.forEachValid([&](Vpn key) {
            if (mine(key)) {
                const Vpn raw = key & kKeyMask;
                fn(raw >> 2, static_cast<mem::PageSize>(raw & 3));
            }
        });
    }

    const TlbGeometry &geometry() const { return geometry_; }
    SetAssocTlb &l1Of(mem::PageSize size)
    {
        switch (size) {
          case mem::PageSize::Base4K: return l1_4k_;
          case mem::PageSize::Huge2M: return l1_2m_;
          case mem::PageSize::Huge1G: return l1_1g_;
        }
        return l1_4k_;
    }
    SetAssocTlb &l2() { return l2_; }

  private:
    /** Low 48 bits: the untagged key; high 16 bits: the ASID tag. */
    static constexpr u64 kKeyMask = (u64(1) << kAsidShift) - 1;

    bool
    l2Holds(mem::PageSize size) const
    {
        if (size == mem::PageSize::Huge1G)
            return geometry_.l2_holds_1g;
        return true;
    }

    /**
     * Unified-L2 key: size code in the low bits keeps classes
     * distinct. The input vpn may carry the ASID tag in its high
     * bits; the shift moves it out of the low-48 key field, so
     * re-extract and re-apply it above the shifted key.
     */
    static Vpn
    l2Key(Vpn vpn, mem::PageSize size)
    {
        const Vpn tag = vpn & ~kKeyMask;
        const Vpn raw = vpn & kKeyMask;
        return tag | (raw << 2) | static_cast<Vpn>(size);
    }

    u64
    dropRange(SetAssocTlb &structure, Addr base, u64 bytes,
              mem::PageSize size, bool keyed, u64 tag)
    {
        const Vpn lo = mem::vpnOf(base, size) | tag;
        const Vpn hi = (mem::vpnOf(base + bytes - 1, size) + 1) | tag;
        if (keyed)
            return structure.invalidateVpnRange(l2Key(lo, size),
                                                l2Key(hi, size));
        return structure.invalidateVpnRange(lo, hi);
    }

    TlbGeometry geometry_;
    SetAssocTlb l1_4k_;
    SetAssocTlb l1_2m_;
    SetAssocTlb l1_1g_;
    SetAssocTlb l2_;
    L2VictimHook l2_victim_;

    Asid asid_ = 0;
    u64 asid_tag_ = 0;

    u64 accesses_ = 0;
    u64 l1_hits_ = 0;
    u64 l2_hits_ = 0;
    u64 walks_ = 0;
    u64 shootdowns_ = 0;
};

} // namespace pccsim::tlb
