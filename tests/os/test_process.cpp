#include <gtest/gtest.h>

#include "os/process.hpp"

using namespace pccsim;
using namespace pccsim::os;
using pccsim::mem::PageSize;

namespace {

constexpr u64 kHeapCap = 256ull << 20;

} // namespace

TEST(Process, MmapReturnsAlignedDisjointRegions)
{
    Process proc(0, kHeapCap);
    const Addr a = proc.mmap(1000, "a");
    const Addr b = proc.mmap(mem::kBytes2M + 1, "b");
    EXPECT_TRUE(mem::isAligned(a, PageSize::Huge2M));
    EXPECT_TRUE(mem::isAligned(b, PageSize::Huge2M));
    EXPECT_EQ(b - a, mem::kBytes2M); // "a" rounded to one region
    EXPECT_EQ(proc.footprintBytes(), 3 * mem::kBytes2M);
    ASSERT_EQ(proc.vmas().size(), 2u);
    EXPECT_EQ(proc.vmas()[1].name, "b");
}

TEST(Process, DistinctPidsGetDistinctHeaps)
{
    Process p0(0, kHeapCap);
    Process p1(1, kHeapCap);
    EXPECT_NE(p0.heapBase(), p1.heapBase());
}

TEST(Process, ContainsOnlyMappedRange)
{
    Process proc(0, kHeapCap);
    const Addr a = proc.mmap(4096, "a");
    EXPECT_TRUE(proc.contains(a));
    EXPECT_FALSE(proc.contains(a + mem::kBytes2M));
    EXPECT_FALSE(proc.contains(a - 1));
}

TEST(Process, FaultTrackingPerPageAndRegion)
{
    Process proc(0, kHeapCap);
    const Addr a = proc.mmap(4 * mem::kBytes2M, "a");
    EXPECT_FALSE(proc.faulted(a));
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Unbacked);

    proc.markFaulted(a);
    proc.markFaulted(a + 4096);
    proc.markFaulted(a + 4096); // duplicate: no double count
    EXPECT_TRUE(proc.faulted(a));
    EXPECT_FALSE(proc.faulted(a + 8192));
    EXPECT_EQ(proc.faultedInRegion(a), 2u);
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Base4K);
    EXPECT_EQ(proc.regionStateOf(a + mem::kBytes2M),
              RegionState::Unbacked);
}

TEST(Process, HugePromotionMarksAllPagesAndBloat)
{
    Process proc(0, kHeapCap);
    const Addr a = proc.mmap(2 * mem::kBytes2M, "a");
    for (int p = 0; p < 10; ++p)
        proc.markFaulted(a + p * 4096);
    proc.markRegionHuge(a);
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Huge2M);
    EXPECT_EQ(proc.mappingSizeOf(a), PageSize::Huge2M);
    EXPECT_TRUE(proc.faulted(a + 100 * 4096));
    EXPECT_EQ(proc.faultedInRegion(a), 512u);
    EXPECT_EQ(proc.bloatPages(), 512u - 10);
    EXPECT_EQ(proc.promotedBytes(), mem::kBytes2M);
    EXPECT_EQ(proc.promotions(), 1u);
}

TEST(Process, DemotionRestoresBaseState)
{
    Process proc(0, kHeapCap);
    const Addr a = proc.mmap(mem::kBytes2M, "a");
    proc.markFaulted(a);
    proc.markRegionHuge(a);
    proc.markRegionDemoted(a);
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Base4K);
    EXPECT_EQ(proc.promotedBytes(), 0u);
    EXPECT_EQ(proc.demotions(), 1u);
}

TEST(Process, RegionIndexingRoundTrips)
{
    Process proc(0, kHeapCap);
    proc.mmap(8 * mem::kBytes2M, "a");
    EXPECT_EQ(proc.numRegions(), 8u);
    for (u64 i = 0; i < proc.numRegions(); ++i)
        EXPECT_EQ(proc.regionIndex(proc.regionBase(i)), i);
}

TEST(ProcessDeathTest, MmapBeyondCapacityPanics)
{
    Process proc(0, 4 * mem::kBytes2M);
    proc.mmap(3 * mem::kBytes2M, "a");
    EXPECT_DEATH(proc.mmap(2 * mem::kBytes2M, "b"), "heap capacity");
}

TEST(Process, StateSurvivesALaterMmap)
{
    Process proc(0, 4ull << 30);
    const Addr a = proc.mmap(2 * mem::kBytes2M, "a");
    proc.markFaulted(a + 4096);
    proc.noteTouched(a + 8192);
    proc.markRegionHuge(a + mem::kBytes2M);
    proc.madvise(a, mem::kBytes2M, HugeHint::NoHuge);

    // Past the first gigabyte: the flat arrays grow.
    const Addr b = proc.mmap(mem::kBytes1G, "b");
    proc.markFaulted(b + mem::kBytes1G - 4096);

    EXPECT_TRUE(proc.faulted(a + 4096));
    EXPECT_FALSE(proc.faulted(a));
    EXPECT_EQ(proc.faultedInRegion(a), 1u);
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Base4K);
    EXPECT_TRUE(proc.touched(a + 8192));
    EXPECT_EQ(proc.touchedInRegion(a), 2u);
    EXPECT_EQ(proc.hintOf(a), HugeHint::NoHuge);
    EXPECT_EQ(proc.regionStateOf(a + mem::kBytes2M), RegionState::Huge2M);
    EXPECT_EQ(proc.faultedInRegion(a + mem::kBytes2M), 512u);

    EXPECT_EQ(proc.regionStateOf(b), RegionState::Unbacked);
    EXPECT_EQ(proc.hintOf(b), HugeHint::Default);
    EXPECT_TRUE(proc.faulted(b + mem::kBytes1G - 4096));
    EXPECT_EQ(proc.faultedInRegion(b + mem::kBytes1G - 4096), 1u);
}

TEST(Process, OneGigabyteMarksStayInRangeForASmallHeap)
{
    // brk far below 1GB: a 1GB mark still spans only covered state.
    Process proc(0, 8ull << 30);
    const Addr a = proc.mmap(3 * mem::kBytes2M, "a");
    ASSERT_TRUE(mem::isAligned(a, PageSize::Huge1G));
    proc.markFaulted(a);
    proc.markRegion1G(a);
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Huge1G);
    EXPECT_EQ(proc.promotions1G(), 1u);
    EXPECT_EQ(proc.promotedBytes(), mem::kBytes1G);
    EXPECT_EQ(proc.bloatPages(), mem::kBytes1G / mem::kBytes4K - 1);
    EXPECT_TRUE(proc.faulted(a + 2 * mem::kBytes2M + 4096));

    proc.markRegion1GDemoted(a);
    EXPECT_EQ(proc.regionStateOf(a), RegionState::Huge2M);
    EXPECT_EQ(proc.regionStateOf(a + 2 * mem::kBytes2M),
              RegionState::Huge2M);
    EXPECT_EQ(proc.demotions(), 1u);
}

TEST(ProcessDeathTest, IndexPastTheMappedGigabyteIsCaughtWithDchecks)
{
#if defined(NDEBUG) && !defined(PCCSIM_FORCE_DCHECKS)
    GTEST_SKIP() << "PCCSIM_DCHECK compiled out";
#else
    Process proc(0, 8ull << 30);
    const Addr a = proc.mmap(mem::kBytes2M, "a");
    EXPECT_DEATH(proc.regionIndex(a + mem::kBytes1G), "");
#endif
}
