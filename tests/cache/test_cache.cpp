#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::cache;

namespace {

/**
 * Naive true-LRU reference: one recency list per set, most recent
 * line first, holding at most `ways` lines. A miss on a full set
 * drops the last line.
 */
class RefCache
{
  public:
    explicit RefCache(CacheParams params)
        : params_(params), sets_(std::max<u64>(1, params.sets()))
    {
    }

    bool
    access(Addr addr)
    {
        const u64 line = addr / params_.line_bytes;
        std::list<u64> &set = sets_[line % sets_.size()];
        const auto it = std::find(set.begin(), set.end(), line);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == params_.ways)
            set.pop_back();
        set.push_front(line);
        return hit;
    }

    void
    flushAll()
    {
        for (auto &set : sets_)
            set.clear();
    }

  private:
    CacheParams params_;
    std::vector<std::list<u64>> sets_;
};

/** Three RefCache levels charged like CacheHierarchy. */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const CacheHierarchy::Config &cfg)
        : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2), llc_(cfg.llc)
    {
    }

    Cycles
    access(Addr addr)
    {
        if (l1_.access(addr))
            return cfg_.latencies.l1;
        if (l2_.access(addr))
            return cfg_.latencies.l2;
        if (llc_.access(addr))
            return cfg_.latencies.llc;
        return cfg_.latencies.dram;
    }

    void
    flushAll()
    {
        l1_.flushAll();
        l2_.flushAll();
        llc_.flushAll();
    }

  private:
    CacheHierarchy::Config cfg_;
    RefCache l1_, l2_, llc_;
};

/**
 * A stream mixing reuse and thrashing: half the accesses go to a hot
 * pool of half the cache's lines, the rest spread over four times its
 * capacity, at random offsets within each line.
 */
Addr
nextAddr(Rng &rng, u64 capacity_lines)
{
    const u64 lines = rng.chance(0.5)
                          ? std::max<u64>(1, capacity_lines / 2)
                          : capacity_lines * 4;
    return rng.below(lines) * 64 + rng.below(64);
}

} // namespace

TEST(Cache, MissThenHitWithinLine)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.access(0x100)); // miss fills the line
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f));  // same 64B line
    EXPECT_FALSE(cache.access(0x140)); // next line
}

TEST(Cache, LruEviction)
{
    Cache cache({128, 2, 64}); // 128 / (2 * 64) = 1 set of 2 ways
    cache.access(0);
    cache.access(64);
    EXPECT_TRUE(cache.access(0)); // 0 MRU
    cache.access(128);            // evicts 64
    EXPECT_TRUE(cache.access(0));
    EXPECT_FALSE(cache.access(64));
}

TEST(Cache, FlushAll)
{
    Cache cache({1024, 4, 64});
    cache.access(0);
    cache.flushAll();
    EXPECT_FALSE(cache.access(0));
}

struct Geometry
{
    u32 ways;
    u64 sets;
};

class CacheDifferential : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheDifferential, HitsMatchRecencyListLru)
{
    const Geometry g = GetParam();
    const CacheParams params{g.sets * g.ways * 64, g.ways, 64};
    Cache cache(params);
    RefCache ref(params);
    Rng rng(g.ways * 1000 + g.sets);
    const u64 capacity = g.sets * g.ways;
    const u64 n = 40'000;
    u64 hits = 0;
    for (u64 i = 0; i < n; ++i) {
        if (i == n / 2) {
            cache.flushAll();
            ref.flushAll();
        }
        const Addr addr = nextAddr(rng, capacity);
        const bool want = ref.access(addr);
        ASSERT_EQ(cache.access(addr), want)
            << "access " << i << " addr " << addr;
        hits += want;
    }
    // The stream must exercise both outcomes to prove anything.
    EXPECT_GT(hits, n / 10);
    EXPECT_LT(hits, n * 9 / 10);
}

// 4, 8 and 16 ways take the packed rank update on SSE2 builds; the
// other ways run the plain loop, including odd counts the victima-reach
// L2 takes ways down to and counts past the widest TLB. Set counts
// cover the mask and the modulo index paths.
INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::ValuesIn([] {
        std::vector<Geometry> all;
        for (u32 ways : {1u, 2u, 3u, 4u, 6u, 7u, 8u, 12u, 16u, 20u, 32u,
                         40u, 64u})
            for (u64 sets : {1ull, 4ull, 5ull, 16ull, 20ull})
                all.push_back({ways, sets});
        return all;
    }()),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "w" + std::to_string(info.param.ways) + "_s" +
               std::to_string(info.param.sets);
    });

TEST(HierarchyDifferential, LatenciesMatchThreeLevelReference)
{
    // The ci profile's geometry, then odd ways at odd set counts.
    std::vector<CacheHierarchy::Config> configs(2);
    configs[0].l1 = {4 * 1024, 8, 64};
    configs[0].l2 = {8 * 1024, 8, 64};
    configs[0].llc = {16 * 1024, 16, 64};
    configs[1].l1 = {3 * 4 * 64, 4, 64};
    configs[1].l2 = {5 * 7 * 64, 7, 64};
    configs[1].llc = {20 * 12 * 64, 12, 64};
    for (const auto &cfg : configs) {
        CacheHierarchy caches(cfg);
        RefHierarchy ref(cfg);
        Rng rng(cfg.l2.ways);
        const u64 capacity = cfg.llc.size_bytes / 64;
        const u64 n = 100'000;
        for (u64 i = 0; i < n; ++i) {
            if (i == n / 2) {
                caches.flushAll();
                ref.flushAll();
            }
            const Addr addr = nextAddr(rng, capacity);
            ASSERT_EQ(caches.access(addr), ref.access(addr))
                << "access " << i << " addr " << addr;
        }
        EXPECT_GT(caches.l1Hits(), 0u);
        EXPECT_GT(caches.l2Hits(), 0u);
        EXPECT_GT(caches.llcHits(), 0u);
        EXPECT_GT(caches.dramAccesses(), 0u);
    }
}

TEST(Hierarchy, LatencyOrderingAcrossLevels)
{
    CacheHierarchy::Config cfg;
    CacheHierarchy caches(cfg);
    const Cycles first = caches.access(0x1000);
    EXPECT_EQ(first, cfg.latencies.dram);
    const Cycles second = caches.access(0x1000);
    EXPECT_EQ(second, cfg.latencies.l1);
}

TEST(Hierarchy, L2AndLlcHitPaths)
{
    CacheHierarchy::Config cfg;
    cfg.l1 = {128, 2, 64};  // tiny L1: 1 set
    cfg.l2 = {256, 2, 64};
    cfg.llc = {64 * 1024, 16, 64};
    CacheHierarchy caches(cfg);
    caches.access(0);     // dram fill everywhere
    caches.access(64);
    caches.access(128);   // L1 (1 set x 2 ways) has evicted line 0
    const Cycles c = caches.access(0);
    EXPECT_TRUE(c == cfg.latencies.l2 || c == cfg.latencies.llc) << c;
    EXPECT_GT(caches.l2Hits() + caches.llcHits(), 0u);
}

TEST(Hierarchy, DisabledChargesDram)
{
    CacheHierarchy::Config cfg;
    cfg.enabled = false;
    CacheHierarchy caches(cfg);
    EXPECT_EQ(caches.access(0), cfg.latencies.dram);
    EXPECT_EQ(caches.access(0), cfg.latencies.dram);
}

TEST(Hierarchy, StreamingHitsL1)
{
    CacheHierarchy caches;
    u64 hits = 0;
    const u64 n = 4096;
    for (u64 i = 0; i < n; ++i) {
        const Cycles c = caches.access(i * 8); // 8B stride
        hits += c == CacheLatencies{}.l1;
    }
    // 8 accesses per 64B line: 7/8 should hit L1.
    EXPECT_GT(hits, n * 7 / 10);
}

TEST(Hierarchy, ThrashingGoesToDram)
{
    CacheHierarchy::Config cfg;
    cfg.l1 = {4 * 1024, 8, 64};
    cfg.l2 = {8 * 1024, 8, 64};
    cfg.llc = {16 * 1024, 16, 64};
    CacheHierarchy caches(cfg);
    // Cycle over 64x the LLC with no reuse inside the window.
    const u64 lines = 16 * 1024 / 64 * 64;
    for (int round = 0; round < 3; ++round)
        for (u64 l = 0; l < lines; ++l)
            caches.access(l * 64);
    EXPECT_GT(caches.dramAccesses(), caches.accesses() / 2);
}

TEST(Hierarchy, StatsResetWorks)
{
    CacheHierarchy caches;
    caches.access(0);
    caches.resetStats();
    EXPECT_EQ(caches.accesses(), 0u);
    EXPECT_EQ(caches.dramAccesses(), 0u);
}
