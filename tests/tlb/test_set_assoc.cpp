#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "tlb/set_assoc_tlb.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::tlb;

namespace {

/**
 * Naive true-LRU reference: one recency list per set, most recent
 * entry first, holding at most `ways` entries. A hole is simply a
 * missing entry, so a miss evicts only when the list is full.
 */
class RefTlb
{
  public:
    explicit RefTlb(TlbParams params)
        : ways_(params.ways), sets_(std::max<u32>(1, params.sets()))
    {
    }

    bool
    lookup(Vpn vpn)
    {
        std::list<Vpn> &set = setOf(vpn);
        const auto it = std::find(set.begin(), set.end(), vpn);
        if (it == set.end())
            return false;
        set.splice(set.begin(), set, it);
        return true;
    }

    SetAssocTlb::AccessResult
    access(Vpn vpn)
    {
        if (lookup(vpn))
            return {true, std::nullopt};
        std::list<Vpn> &set = setOf(vpn);
        std::optional<Vpn> displaced;
        if (set.size() == ways_) {
            displaced = set.back();
            set.pop_back();
        }
        set.push_front(vpn);
        return {false, displaced};
    }

    bool
    contains(Vpn vpn) const
    {
        const std::list<Vpn> &set = sets_[vpn % sets_.size()];
        return std::find(set.begin(), set.end(), vpn) != set.end();
    }

    bool
    invalidate(Vpn vpn)
    {
        return dropIf([vpn](Vpn v) { return v == vpn; }) != 0;
    }

    template <typename Pred>
    u64
    dropIf(Pred pred)
    {
        u64 dropped = 0;
        for (auto &set : sets_)
            dropped += set.remove_if(pred);
        return dropped;
    }

    void
    flushAll()
    {
        for (auto &set : sets_)
            set.clear();
    }

    u64
    validCount() const
    {
        u64 n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

  private:
    std::list<Vpn> &setOf(Vpn vpn) { return sets_[vpn % sets_.size()]; }

    u32 ways_;
    std::vector<std::list<Vpn>> sets_;
};

} // namespace

TEST(SetAssocTlb, MissThenHitAfterInsert)
{
    SetAssocTlb tlb({16, 4});
    EXPECT_FALSE(tlb.lookup(0x100));
    tlb.access(0x100);
    EXPECT_TRUE(tlb.lookup(0x100));
}

TEST(SetAssocTlb, LruEvictionWithinSet)
{
    SetAssocTlb tlb({8, 2}); // 4 sets, 2 ways
    // VPNs 0, 4, 8 all map to set 0 (vpn % 4).
    tlb.access(0);
    tlb.access(4);
    EXPECT_TRUE(tlb.lookup(0)); // 0 becomes MRU
    tlb.access(8);              // evicts 4 (the LRU)
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_TRUE(tlb.contains(8));
    EXPECT_FALSE(tlb.contains(4));
}

TEST(SetAssocTlb, ContainsDoesNotPromote)
{
    SetAssocTlb tlb({8, 2});
    tlb.access(0);
    tlb.access(4);
    // Probe 0 without promoting, then insert: 0 should be evicted.
    EXPECT_TRUE(tlb.contains(0));
    tlb.access(8);
    EXPECT_FALSE(tlb.contains(0));
    EXPECT_TRUE(tlb.contains(4));
}

TEST(SetAssocTlb, ReinsertExistingRefreshes)
{
    SetAssocTlb tlb({8, 2});
    tlb.access(0);
    tlb.access(4);
    tlb.access(0); // refresh, no duplicate
    tlb.access(8); // evicts 4
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_FALSE(tlb.contains(4));
    EXPECT_EQ(tlb.validCount(), 2u);
}

TEST(SetAssocTlb, InvalidateSingleEntry)
{
    SetAssocTlb tlb({16, 4});
    tlb.access(7);
    EXPECT_TRUE(tlb.invalidate(7));
    EXPECT_FALSE(tlb.invalidate(7));
    EXPECT_FALSE(tlb.contains(7));
}

TEST(SetAssocTlb, InvalidateRange)
{
    SetAssocTlb tlb({64, 4});
    for (Vpn v = 0; v < 32; ++v)
        tlb.access(v);
    const u64 dropped = tlb.invalidateVpnRange(10, 20);
    EXPECT_EQ(dropped, 10u);
    for (Vpn v = 0; v < 32; ++v)
        EXPECT_EQ(tlb.contains(v), v < 10 || v >= 20) << v;
}

TEST(SetAssocTlb, FlushAllEmpties)
{
    SetAssocTlb tlb({16, 4});
    for (Vpn v = 0; v < 16; ++v)
        tlb.access(v);
    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
}

TEST(SetAssocTlb, FullAssociativityActsAsOneSet)
{
    SetAssocTlb tlb({4, 4}); // fully associative
    for (Vpn v = 100; v < 104; ++v)
        tlb.access(v);
    EXPECT_EQ(tlb.validCount(), 4u);
    tlb.access(200); // evicts LRU = 100
    EXPECT_FALSE(tlb.contains(100));
    EXPECT_TRUE(tlb.contains(103));
}

TEST(SetAssocTlbAccess, CombinedAccessMatchesLookupThenInsert)
{
    // access() is a lookup that fills on a miss; the hit results and
    // resulting contents must match the lookup-then-fill sequence
    // exactly on an arbitrary stream, including one with invalidation
    // holes.
    SetAssocTlb combined({16, 4});
    SetAssocTlb reference({16, 4});
    u64 probe = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4000; ++i) {
        probe = probe * 6364136223846793005ull + 1442695040888963407ull;
        const Vpn vpn = (probe >> 33) % 48; // heavy set contention
        if (i % 97 == 13) {
            EXPECT_EQ(combined.invalidate(vpn), reference.invalidate(vpn));
            continue;
        }
        const bool ref_hit = reference.lookup(vpn);
        if (!ref_hit)
            reference.access(vpn);
        const auto result = combined.access(vpn);
        ASSERT_EQ(result.hit, ref_hit) << "op " << i << " vpn " << vpn;
        ASSERT_EQ(combined.validCount(), reference.validCount()) << i;
    }
    for (Vpn vpn = 0; vpn < 48; ++vpn)
        EXPECT_EQ(combined.contains(vpn), reference.contains(vpn)) << vpn;
}

TEST(SetAssocTlbAccess, ReportsDisplacedVictim)
{
    SetAssocTlb tlb({8, 2}); // 4 sets, 2 ways; set 0 holds {0,4,8,...}
    EXPECT_EQ(tlb.access(0).displaced, std::nullopt);
    EXPECT_EQ(tlb.access(4).displaced, std::nullopt);
    const auto evicting = tlb.access(8); // set full: evicts LRU = 0
    EXPECT_FALSE(evicting.hit);
    ASSERT_TRUE(evicting.displaced.has_value());
    EXPECT_EQ(*evicting.displaced, 0u);
}

TEST(SetAssocTlbAccess, NoVictimWhenAHoleExists)
{
    SetAssocTlb tlb({8, 2});
    tlb.access(0);
    tlb.access(4);
    tlb.invalidate(0); // hole in way 0
    const auto result = tlb.access(8);
    EXPECT_FALSE(result.hit);
    EXPECT_EQ(result.displaced, std::nullopt);
    EXPECT_TRUE(tlb.contains(4));
    EXPECT_TRUE(tlb.contains(8));
}

TEST(SetAssocTlbAccess, HitRefreshesRecency)
{
    SetAssocTlb tlb({8, 2});
    tlb.access(0);
    tlb.access(4);
    EXPECT_TRUE(tlb.access(0).hit); // 0 becomes MRU
    tlb.access(8);                  // evicts 4
    EXPECT_TRUE(tlb.contains(0));
    EXPECT_FALSE(tlb.contains(4));
}

TEST(SetAssocTlbMru, RepeatedLookupsStayCorrect)
{
    // Repeated hits on the MRU entry leave the set's order unchanged:
    // repeated hits on one entry, then eviction traffic, then probes
    // again.
    SetAssocTlb tlb({8, 2});
    tlb.access(0);
    tlb.access(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(tlb.lookup(0));
    tlb.access(8); // evicts 4; 8 is now the MRU entry of set 0
    EXPECT_FALSE(tlb.lookup(4));
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_TRUE(tlb.lookup(8));
}

TEST(SetAssocTlbMru, StaleHintAfterInvalidateIsSafe)
{
    SetAssocTlb tlb({8, 2});
    tlb.access(0);
    EXPECT_TRUE(tlb.lookup(0)); // 0 is the MRU entry
    tlb.invalidate(0);
    EXPECT_FALSE(tlb.lookup(0)); // the MRU way is now a hole
    tlb.access(4);
    EXPECT_TRUE(tlb.lookup(4));
    EXPECT_FALSE(tlb.lookup(0));
}

class TlbGeometrySweep
    : public ::testing::TestWithParam<std::pair<u32, u32>>
{
};

TEST_P(TlbGeometrySweep, CapacityIsRespected)
{
    const auto [entries, ways] = GetParam();
    SetAssocTlb tlb({entries, ways});
    // Insert 4x capacity; valid count never exceeds capacity and a
    // freshly inserted entry is always resident.
    for (Vpn v = 0; v < entries * 4; ++v) {
        tlb.access(v);
        ASSERT_LE(tlb.validCount(), entries);
        ASSERT_TRUE(tlb.contains(v));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbGeometrySweep,
    ::testing::Values(std::pair<u32, u32>{64, 4},
                      std::pair<u32, u32>{32, 4},
                      std::pair<u32, u32>{1024, 8},
                      std::pair<u32, u32>{4, 4},
                      std::pair<u32, u32>{8, 8}));

TEST(SetAssocTlb, FlushAllResetsReplacementState)
{
    // Regression: after flushAll() every way is a hole, so post-flush
    // fills must land in holes and report no displaced victim until
    // the set is full again, whatever order the set's ranks were in.
    SetAssocTlb tlb({8, 2}); // 4 sets, 2 ways; set 0 holds {0,4,8,...}
    for (Vpn v : {0u, 4u, 8u, 12u})
        (void)tlb.access(v); // reorder the set's ranks
    tlb.flushAll();
    EXPECT_EQ(tlb.validCount(), 0u);
    // Refilling the flushed set must land in holes: no victims.
    const auto first = tlb.access(0);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.displaced, std::nullopt);
    const auto second = tlb.access(4);
    EXPECT_FALSE(second.hit);
    EXPECT_EQ(second.displaced, std::nullopt);
    EXPECT_EQ(tlb.validCount(), 2u);
    // Only now is the set full again and a third insert evicts.
    const auto third = tlb.access(8);
    ASSERT_TRUE(third.displaced.has_value());
    EXPECT_EQ(*third.displaced, 0u);
}

TEST(SetAssocTlb, FlushMatchingDropsOnlyTheTaggedClass)
{
    // flushMatching(tag, mask) underlies per-ASID invalidation: keys
    // whose masked bits equal the tag go, everything else stays.
    SetAssocTlb tlb({16, 4});
    const Vpn kTag = Vpn(1) << 48;
    tlb.access(5);
    tlb.access(kTag | 5);
    tlb.access(kTag | 9);
    EXPECT_EQ(tlb.flushMatching(kTag, ~(kTag - 1)), 2u);
    EXPECT_TRUE(tlb.contains(5));
    EXPECT_FALSE(tlb.contains(kTag | 5));
    EXPECT_FALSE(tlb.contains(kTag | 9));
}

TEST(SetAssocTlb, RefillAfterAHoleKeepsOneCopy)
{
    // Refilling a resident entry must find it even past a hole: one
    // set of 4 ways, 10 and 11 resident, 10 invalidated.
    SetAssocTlb tlb({4, 4});
    tlb.access(10);
    tlb.access(11);
    tlb.invalidate(10);
    EXPECT_TRUE(tlb.access(11).hit);
    EXPECT_EQ(tlb.validCount(), 1u);
}

struct TlbShape
{
    u32 ways;
    u32 sets;
};

class SetAssocTlbDifferential : public ::testing::TestWithParam<TlbShape>
{
};

TEST_P(SetAssocTlbDifferential, MatchesRecencyListLruWithHoles)
{
    const TlbShape shape = GetParam();
    const TlbParams params{shape.ways * shape.sets, shape.ways};
    SetAssocTlb tlb(params);
    RefTlb ref(params);
    Rng rng(shape.ways * 1000 + shape.sets);
    // Keys carry an ASID tag in their high bits, like the hierarchy's.
    constexpr unsigned kAsidShift = 48;
    const u64 capacity = params.entries;
    const auto key = [&] {
        return (rng.below(3) << kAsidShift) | rng.below(capacity * 2);
    };
    u64 hits = 0;
    u64 displaced = 0;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        // Whole-structure flushes come about once per 16 capacities
        // of operations, so the sets still fill up between them.
        if (rng.below(16 * capacity + 64) == 0) {
            if (rng.chance(0.5)) {
                tlb.flushAll();
                ref.flushAll();
            } else {
                const u64 tag = rng.below(3) << kAsidShift;
                const u64 mask = ~((u64{1} << kAsidShift) - 1);
                ASSERT_EQ(
                    tlb.flushMatching(tag, mask),
                    ref.dropIf([&](Vpn v) { return (v & mask) == tag; }))
                    << "op " << i;
            }
        }
        const u64 op = rng.below(100);
        if (op < 55) {
            const Vpn vpn = key();
            const auto want = ref.access(vpn);
            const auto got = tlb.access(vpn);
            ASSERT_EQ(got.hit, want.hit) << "op " << i << " vpn " << vpn;
            ASSERT_EQ(got.displaced, want.displaced) << "op " << i;
            hits += want.hit;
            displaced += want.displaced.has_value();
        } else if (op < 80) {
            const Vpn vpn = key();
            ASSERT_EQ(tlb.lookup(vpn), ref.lookup(vpn)) << "op " << i;
        } else if (op < 88) {
            const Vpn vpn = key();
            ASSERT_EQ(tlb.contains(vpn), ref.contains(vpn)) << "op " << i;
        } else if (op < 97) {
            const Vpn vpn = key();
            ASSERT_EQ(tlb.invalidate(vpn), ref.invalidate(vpn))
                << "op " << i;
        } else {
            const Vpn lo = key();
            const Vpn hi = lo + rng.below(capacity / 16 + 2);
            ASSERT_EQ(tlb.invalidateVpnRange(lo, hi),
                      ref.dropIf([&](Vpn v) { return v >= lo && v < hi; }))
                << "op " << i;
        }
        ASSERT_EQ(tlb.validCount(), ref.validCount()) << "op " << i;
    }
    // The stream must exercise hits, evictions and hole refills.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(displaced, 0u);
}

// 4, 8 and 16 ways take the packed rank update on SSE2 builds; the
// other ways run the plain loop. Set counts cover the mask and the
// modulo index paths.
INSTANTIATE_TEST_SUITE_P(
    Shapes, SetAssocTlbDifferential,
    ::testing::ValuesIn([] {
        std::vector<TlbShape> all;
        for (u32 ways : {1u, 2u, 3u, 4u, 6u, 8u, 12u, 16u, 32u})
            for (u32 sets : {1u, 3u, 4u, 5u, 16u})
                all.push_back({ways, sets});
        return all;
    }()),
    [](const ::testing::TestParamInfo<TlbShape> &info) {
        return "w" + std::to_string(info.param.ways) + "_s" +
               std::to_string(info.param.sets);
    });
