#include "sim/oracle.hpp"

#include <sstream>

#include "util/log.hpp"

namespace pccsim::sim {

std::string
OracleDivergence::toString() const
{
    std::ostringstream os;
    os << "oracle divergence at access " << access_index << " (core "
       << core << ", vaddr 0x" << std::hex << vaddr << std::dec
       << "): " << detail;
    return os.str();
}

OracleError::OracleError(OracleDivergence divergence)
    : std::runtime_error(divergence.toString()),
      divergence_(std::move(divergence))
{
}

// ---- RefSetAssoc ----

RefSetAssoc::RefSetAssoc(tlb::TlbParams params)
    : sets_(params.sets() == 0 ? 1 : params.sets()),
      ways_(params.ways == 0 ? 1 : params.ways)
{
}

bool
RefSetAssoc::lookup(Vpn vpn)
{
    auto set_it = sets_map_.find(setIndexOf(vpn));
    if (set_it == sets_map_.end())
        return false;
    auto it = set_it->second.find(vpn);
    if (it == set_it->second.end())
        return false;
    it->second = ++clock_;
    return true;
}

bool
RefSetAssoc::access(Vpn vpn)
{
    if (lookup(vpn))
        return true;
    insert(vpn);
    return false;
}

void
RefSetAssoc::insert(Vpn vpn)
{
    auto &set = sets_map_[setIndexOf(vpn)];
    if (auto it = set.find(vpn); it != set.end()) {
        it->second = ++clock_;
        return;
    }
    if (set.size() >= ways_) {
        // Evict the least-recently-stamped entry. The real structure
        // prefers empty ways before evicting; an std::map set holds
        // only valid entries, so "size == ways" is exactly "no empty
        // way" and the resident contents evolve identically.
        auto victim = set.begin();
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->second < victim->second)
                victim = it;
        }
        set.erase(victim);
    }
    set[vpn] = ++clock_;
}

u64
RefSetAssoc::invalidateRange(Vpn lo, Vpn hi)
{
    u64 dropped = 0;
    for (auto &[index, set] : sets_map_) {
        for (auto it = set.lower_bound(lo); it != set.end() && it->first < hi;)
        {
            it = set.erase(it);
            ++dropped;
        }
    }
    return dropped;
}

u64
RefSetAssoc::validCount() const
{
    u64 n = 0;
    for (const auto &[index, set] : sets_map_)
        n += set.size();
    return n;
}

// ---- RefTlbHierarchy ----

RefTlbHierarchy::RefTlbHierarchy(const tlb::TlbGeometry &geometry)
    : geometry_(geometry),
      l1_4k_(geometry.l1_4k),
      l1_2m_(geometry.l1_2m),
      l1_1g_(geometry.l1_1g),
      l2_(geometry.l2)
{
}

bool
RefTlbHierarchy::l2Holds(mem::PageSize size) const
{
    if (size == mem::PageSize::Huge1G)
        return geometry_.l2_holds_1g;
    return true;
}

Vpn
RefTlbHierarchy::l2Key(Vpn vpn, mem::PageSize size)
{
    return (vpn << 2) | static_cast<Vpn>(size);
}

RefSetAssoc &
RefTlbHierarchy::l1Of(mem::PageSize size)
{
    switch (size) {
      case mem::PageSize::Base4K: return l1_4k_;
      case mem::PageSize::Huge2M: return l1_2m_;
      case mem::PageSize::Huge1G: return l1_1g_;
    }
    return l1_4k_;
}

tlb::HitLevel
RefTlbHierarchy::access(Addr vaddr, mem::PageSize size)
{
    const Vpn vpn = mem::vpnOf(vaddr, size);
    ++accesses_;
    if (l1Of(size).lookup(vpn)) {
        ++l1_hits_;
        return tlb::HitLevel::L1;
    }
    if (l2Holds(size) && l2_.lookup(l2Key(vpn, size))) {
        ++l2_hits_;
        l1Of(size).access(vpn); // victim-style refill into L1
        return tlb::HitLevel::L2;
    }
    ++walks_;
    return tlb::HitLevel::Miss;
}

void
RefTlbHierarchy::fill(Addr vaddr, mem::PageSize size)
{
    const Vpn vpn = mem::vpnOf(vaddr, size);
    l1Of(size).access(vpn);
    if (l2Holds(size))
        l2_.access(l2Key(vpn, size));
}

void
RefTlbHierarchy::shootdown(Addr base, u64 bytes)
{
    const auto drop = [&](RefSetAssoc &structure, mem::PageSize size,
                          bool keyed) {
        const Vpn lo = mem::vpnOf(base, size);
        const Vpn hi = mem::vpnOf(base + bytes - 1, size) + 1;
        if (keyed)
            structure.invalidateRange(l2Key(lo, size), l2Key(hi, size));
        else
            structure.invalidateRange(lo, hi);
    };
    drop(l1_4k_, mem::PageSize::Base4K, false);
    drop(l1_2m_, mem::PageSize::Huge2M, false);
    drop(l1_1g_, mem::PageSize::Huge1G, false);
    drop(l2_, mem::PageSize::Base4K, true);
    drop(l2_, mem::PageSize::Huge2M, true);
}

bool
RefTlbHierarchy::noteRepeatL1Hit(Addr vaddr, mem::PageSize size)
{
    // The recency update the real path skips is harmless either way:
    // a last-translation-cache run touches no other page on this core,
    // so the page is MRU in its set whether or not each repeat bumps
    // its stamp.
    const bool hit = l1Of(size).lookup(mem::vpnOf(vaddr, size));
    ++accesses_;
    ++l1_hits_;
    return hit;
}

// ---- DiffChecker ----

DiffChecker::DiffChecker(OracleConfig config,
                         const tlb::TlbGeometry &geometry, u32 num_cores)
    : config_(config)
{
    PCCSIM_ASSERT(config_.sample_every >= 1,
                  "oracle sample_every must be >= 1");
    cores_.reserve(num_cores);
    for (u32 c = 0; c < num_cores; ++c)
        cores_.emplace_back(geometry);
}

void
DiffChecker::diverge(u32 core, Addr vaddr, std::string detail)
{
    throw OracleError(
        OracleDivergence{accesses_seen_, core, vaddr, std::move(detail)});
}

bool
DiffChecker::compareDue()
{
    return config_.sample_every <= 1 ||
           accesses_seen_ % config_.sample_every == 0;
}

void
DiffChecker::onAccess(u32 core, Pid pid, Addr vaddr,
                      mem::PageSize real_size, tlb::HitLevel real_level)
{
    (void)pid;
    ++accesses_seen_;

    // Shadow contract: between shootdowns/faults a page's mapping size
    // must not change. Enforced on every access (one map lookup that
    // the learning step needs anyway), independent of sampling.
    const Vpn region = mem::vpnOf(vaddr, mem::PageSize::Huge2M);
    auto it = region_size_.find(region);
    if (it == region_size_.end()) {
        region_size_.emplace(region, real_size);
    } else if (it->second != real_size) {
        diverge(core, vaddr,
                "mapping size changed without an intervening shootdown "
                "or fault (shadow " +
                    mem::nameOf(it->second) + ", real " +
                    mem::nameOf(real_size) + ")");
    }

    RefTlbHierarchy &ref = cores_[core];
    const tlb::HitLevel ref_level = ref.access(vaddr, real_size);
    if (ref_level == tlb::HitLevel::Miss)
        ref.fill(vaddr, real_size); // mirror the real walk-then-fill

    if (compareDue()) {
        ++compares_done_;
        if (ref_level != real_level) {
            const auto name = [](tlb::HitLevel l) {
                switch (l) {
                  case tlb::HitLevel::L1: return "L1";
                  case tlb::HitLevel::L2: return "L2";
                  case tlb::HitLevel::Miss: return "Miss";
                }
                return "?";
            };
            diverge(core, vaddr,
                    std::string("hit level mismatch (reference ") +
                        name(ref_level) + ", real " + name(real_level) +
                        ", size " + mem::nameOf(real_size) + ")");
        }
    }
}

void
DiffChecker::onLtcAccess(u32 core, Pid pid, Addr vaddr)
{
    (void)pid;
    ++accesses_seen_;
    const Vpn region = mem::vpnOf(vaddr, mem::PageSize::Huge2M);
    auto it = region_size_.find(region);
    if (it == region_size_.end()) {
        diverge(core, vaddr,
                "last-translation-cache hit on a region with no "
                "established mapping (stale fast path after a "
                "shootdown?)");
    }
    if (!cores_[core].noteRepeatL1Hit(vaddr, it->second)) {
        diverge(core, vaddr,
                "last-translation-cache hit but the translation is not "
                "L1-resident in the reference model (size " +
                    mem::nameOf(it->second) + ")");
    }
}

void
DiffChecker::onFault(u32 core, Pid pid, Addr vaddr, mem::PageSize filled)
{
    (void)pid;
    ++accesses_seen_;
    // A fault is a legitimate (re)establishment point for the mapping.
    region_size_[mem::vpnOf(vaddr, mem::PageSize::Huge2M)] = filled;
    cores_[core].fill(vaddr, filled);
}

void
DiffChecker::onShootdown(Addr base, u64 bytes)
{
    for (auto &core : cores_)
        core.shootdown(base, bytes);
    const Vpn lo = mem::vpnOf(base, mem::PageSize::Huge2M);
    const Vpn hi = mem::vpnOf(base + bytes - 1, mem::PageSize::Huge2M) + 1;
    region_size_.erase(region_size_.lower_bound(lo),
                       region_size_.lower_bound(hi));
}

void
DiffChecker::finish(u32 core, const CoreCounters &real)
{
    const RefTlbHierarchy &ref = cores_[core];
    if (ref.accesses() == real.tlb_accesses && ref.l1Hits() == real.l1_hits &&
        ref.l2Hits() == real.l2_hits && ref.walks() == real.walks) {
        return;
    }
    std::ostringstream os;
    os << "end-of-run TLB counter mismatch (reference accesses="
       << ref.accesses() << " l1=" << ref.l1Hits() << " l2=" << ref.l2Hits()
       << " walks=" << ref.walks() << "; real accesses=" << real.tlb_accesses
       << " l1=" << real.l1_hits << " l2=" << real.l2_hits
       << " walks=" << real.walks << ")";
    diverge(core, 0, os.str());
}

} // namespace pccsim::sim
