#include <gtest/gtest.h>

#include "pt/walker.hpp"

using namespace pccsim;
using namespace pccsim::pt;
using pccsim::mem::PageSize;

namespace {

constexpr Addr kHeap = 0x1000'0000'0000ull;

} // namespace

TEST(Walker, ColdWalkFetchesAllLevels)
{
    PageTable pt;
    Walker walker;
    pt.mapBase(kHeap, 1);
    const auto out = walker.walk(pt, kHeap);
    EXPECT_TRUE(out.present);
    EXPECT_EQ(out.size, PageSize::Base4K);
    EXPECT_EQ(out.memory_refs, 4u);
}

TEST(Walker, PwcShortensRepeatWalks)
{
    PageTable pt;
    Walker walker;
    for (u64 p = 0; p < 16; ++p)
        pt.mapBase(kHeap + p * 4096, p);
    walker.walk(pt, kHeap);
    // Second walk in the same 2MB region: the PDE cache supplies the
    // PMD entry, so only the leaf PTE is fetched.
    const auto out = walker.walk(pt, kHeap + 4096);
    EXPECT_EQ(out.memory_refs, 1u);
    EXPECT_LT(walker.refsPerWalk(), 4.0);
}

TEST(Walker, RefsPerWalkApproachesOneWithLocality)
{
    PageTable pt;
    Walker walker;
    for (u64 p = 0; p < 512; ++p)
        pt.mapBase(kHeap + p * 4096, p);
    for (u64 p = 0; p < 512; ++p)
        walker.walk(pt, kHeap + p * 4096);
    // The paper quotes 1.1-1.4 references/walk with PWCs.
    EXPECT_LT(walker.refsPerWalk(), 1.4);
    EXPECT_GE(walker.refsPerWalk(), 1.0);
}

TEST(Walker, DisabledPwcAlwaysFullWalk)
{
    PageTable pt;
    PwcParams params;
    params.enabled = false;
    Walker walker(params);
    for (u64 p = 0; p < 8; ++p)
        pt.mapBase(kHeap + p * 4096, p);
    for (u64 p = 0; p < 8; ++p)
        EXPECT_EQ(walker.walk(pt, kHeap + p * 4096).memory_refs, 4u);
    EXPECT_DOUBLE_EQ(walker.refsPerWalk(), 4.0);
}

TEST(Walker, HugeWalkStopsAtPmd)
{
    PageTable pt;
    Walker walker;
    pt.mapHuge2M(kHeap, 512);
    const auto out = walker.walk(pt, kHeap + 0x5000);
    EXPECT_EQ(out.size, PageSize::Huge2M);
    EXPECT_EQ(out.memory_refs, 3u);
}

TEST(Walker, ReportsAccessBitFilterInputs)
{
    PageTable pt;
    Walker walker;
    pt.mapBase(kHeap, 1);
    pt.mapBase(kHeap + 4096, 2);
    EXPECT_FALSE(walker.walk(pt, kHeap).pmd_was_accessed);
    EXPECT_TRUE(walker.walk(pt, kHeap + 4096).pmd_was_accessed);
}

TEST(Walker, ShootdownDropsPdeEntries)
{
    PageTable pt;
    Walker walker;
    for (u64 p = 0; p < 4; ++p)
        pt.mapBase(kHeap + p * 4096, p);
    walker.walk(pt, kHeap);
    walker.shootdown(kHeap, mem::kBytes2M);
    // Without the PDE entry the next walk re-fetches PMD + PTE; the
    // PDPTE entry (1GB level) survives region-sized shootdowns.
    const auto out = walker.walk(pt, kHeap + 4096);
    EXPECT_EQ(out.memory_refs, 2u);
}

TEST(Walker, FlushAllResetsEverything)
{
    PageTable pt;
    Walker walker;
    pt.mapBase(kHeap, 1);
    walker.walk(pt, kHeap);
    walker.flushAll();
    EXPECT_EQ(walker.walk(pt, kHeap).memory_refs, 4u);
}

TEST(Walker, StatsAccumulateAndReset)
{
    PageTable pt;
    Walker walker;
    pt.mapBase(kHeap, 1);
    walker.walk(pt, kHeap);
    walker.walk(pt, kHeap);
    EXPECT_EQ(walker.walks(), 2u);
    EXPECT_GT(walker.totalRefs(), 0u);
    walker.resetStats();
    EXPECT_EQ(walker.walks(), 0u);
}

TEST(Walker, PdpteRefillAfterAShootdownKeepsTrueLru)
{
    // Regions 0-3 fill the default 4-way, 1-set PDPTE cache; the 1GB
    // shootdown of region 0 punches a hole in it. Walking region 2
    // again hits the PDE cache and refills region 2's resident PDPTE,
    // so walking region 4 takes the hole and evicts nothing: region
    // 1's PDPTE must survive for its next walk.
    PageTable pt;
    Walker walker;
    const auto region = [](u64 r) { return kHeap + r * mem::kBytes1G; };
    for (u64 r = 0; r < 5; ++r)
        pt.mapBase(region(r), r);
    pt.mapBase(region(1) + mem::kBytes2M, 5);
    for (u64 r = 0; r < 4; ++r)
        walker.walk(pt, region(r));
    walker.shootdown(region(0), mem::kBytes1G);
    EXPECT_EQ(walker.walk(pt, region(2)).memory_refs, 1u);
    walker.walk(pt, region(4));
    // A 2MB region region 1 has not touched: PDE miss, PDPTE hit.
    EXPECT_EQ(walker.walk(pt, region(1) + mem::kBytes2M).memory_refs, 2u);
}
