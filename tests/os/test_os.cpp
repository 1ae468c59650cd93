#include <gtest/gtest.h>

#include "mem/phys_mem.hpp"
#include "os/os.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::os;
using pccsim::mem::PageSize;

namespace {

struct Fixture : public ::testing::Test
{
    Fixture()
        : phys(64 * mem::kBytes2M), os_model(Os::Params{}, phys),
          proc(os_model.createProcess(128 * mem::kBytes2M))
    {
        heap = proc.mmap(16 * mem::kBytes2M, "heap");
    }

    void
    faultRegion(Addr base, u32 pages = 512)
    {
        for (u32 p = 0; p < pages; ++p)
            os_model.handleFault(proc, base + p * mem::kBytes4K, false);
    }

    mem::PhysicalMemory phys;
    Os os_model;
    Process &proc;
    Addr heap = 0;
};

} // namespace

TEST_F(Fixture, BaseFaultMapsPage)
{
    const Cycles cost = os_model.handleFault(proc, heap + 123, false);
    EXPECT_EQ(cost, os_model.params().costs.base_fault);
    EXPECT_TRUE(proc.faulted(heap + 123));
    const auto m = proc.pageTable().lookup(heap);
    EXPECT_TRUE(m.present);
    EXPECT_EQ(m.size, PageSize::Base4K);
    EXPECT_EQ(phys.useOf(m.pfn), mem::FrameUse::AppBase);
}

TEST_F(Fixture, HugeFaultBacksWholeRegion)
{
    const Cycles cost = os_model.handleFault(proc, heap + 5000, true);
    EXPECT_GT(cost, os_model.params().costs.base_fault);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Huge2M);
    EXPECT_EQ(proc.pageTable().lookup(heap + 9999).size,
              PageSize::Huge2M);
    // Later touches in the region no longer fault.
    EXPECT_TRUE(proc.faulted(heap + mem::kBytes2M - 1));
}

TEST_F(Fixture, HugeFaultFallsBackWhenRegionPartiallyTouched)
{
    os_model.handleFault(proc, heap, false);
    os_model.handleFault(proc, heap + 4096, true);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
    EXPECT_EQ(os_model.stats().get("huge_faults"), 0u);
}

TEST_F(Fixture, PromotionCollapsesFaultedRegion)
{
    faultRegion(heap);
    const u64 free_before = phys.freeFrames();
    const auto result = os_model.promoteRegion(proc, heap, false);
    EXPECT_EQ(result.status, PromoteStatus::Ok);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Huge2M);
    EXPECT_EQ(proc.pageTable().lookup(heap + 4096).size,
              PageSize::Huge2M);
    // Old base frames were freed, one huge frame allocated: net zero.
    EXPECT_EQ(phys.freeFrames(), free_before);
}

TEST_F(Fixture, PromotionOfUntouchedRegionRejected)
{
    const auto result = os_model.promoteRegion(proc, heap, false);
    EXPECT_EQ(result.status, PromoteStatus::NotEligible);
}

TEST_F(Fixture, PromotionOutsideHeapRejected)
{
    const auto result =
        os_model.promoteRegion(proc, heap + (1ull << 40), false);
    EXPECT_EQ(result.status, PromoteStatus::NotEligible);
}

TEST_F(Fixture, DoublePromotionReportsAlreadyHuge)
{
    faultRegion(heap);
    os_model.promoteRegion(proc, heap, false);
    EXPECT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::AlreadyHuge);
}

TEST_F(Fixture, PartialRegionPromotionCountsBloat)
{
    faultRegion(heap, 100);
    const auto result = os_model.promoteRegion(proc, heap, false);
    EXPECT_EQ(result.status, PromoteStatus::Ok);
    EXPECT_EQ(proc.bloatPages(), 412u);
}

TEST_F(Fixture, ShootdownHookFiresOnPromotion)
{
    faultRegion(heap);
    Addr seen_base = 0;
    u64 seen_bytes = 0;
    os_model.setShootdownHook(
        [&](Pid, Addr base, u64 bytes) -> Cycles {
            seen_base = base;
            seen_bytes = bytes;
            return 0;
        });
    os_model.promoteRegion(proc, heap, false);
    EXPECT_EQ(seen_base, heap);
    EXPECT_EQ(seen_bytes, mem::kBytes2M);
}

TEST_F(Fixture, DemotionSplitsInPlace)
{
    faultRegion(heap);
    os_model.promoteRegion(proc, heap, false);
    os_model.demoteRegion(proc, heap);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
    const auto m = proc.pageTable().lookup(heap + 4096);
    EXPECT_EQ(m.size, PageSize::Base4K);
    EXPECT_EQ(phys.useOf(m.pfn), mem::FrameUse::AppBase);
    // And it can be promoted again afterwards.
    EXPECT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::Ok);
}

TEST(OsCap, PromotionBudgetEnforced)
{
    mem::PhysicalMemory phys(64 * mem::kBytes2M);
    Os::Params params;
    params.promotion_cap_bytes = mem::kBytes2M; // one region only
    Os os_model(params, phys);
    Process &proc = os_model.createProcess(64 * mem::kBytes2M);
    const Addr heap = proc.mmap(8 * mem::kBytes2M, "heap");
    for (u32 p = 0; p < 1024; ++p)
        os_model.handleFault(proc, heap + p * mem::kBytes4K, false);

    EXPECT_EQ(os_model.promotionBudgetRegions(), 1u);
    EXPECT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::Ok);
    EXPECT_EQ(os_model.promotionBudgetRegions(), 0u);
    EXPECT_EQ(
        os_model.promoteRegion(proc, heap + mem::kBytes2M, false).status,
        PromoteStatus::CapReached);
}

TEST(OsFrag, PromotionNeedsCompactionUnderFragmentation)
{
    mem::PhysicalMemory phys(32 * mem::kBytes2M);
    Rng rng(11);
    phys.fragment(0.5, rng);
    phys.scramble(rng);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(32 * mem::kBytes2M);
    const Addr heap = proc.mmap(2 * mem::kBytes2M, "heap");
    for (u32 p = 0; p < 512; ++p)
        os_model.handleFault(proc, heap + p * mem::kBytes4K, false);

    // Without compaction there is no huge frame.
    EXPECT_EQ(os_model.promoteRegion(proc, heap, false).status,
              PromoteStatus::NoHugeFrame);
    // With compaction the OS liberates a block and succeeds.
    const auto result = os_model.promoteRegion(proc, heap, true);
    EXPECT_EQ(result.status, PromoteStatus::Ok);
    EXPECT_TRUE(result.compacted);
    EXPECT_GT(os_model.backgroundCycles(), 0u);
}

TEST(OsFrag, CompactionMovesUpdatePageTables)
{
    mem::PhysicalMemory phys(8 * mem::kBytes2M);
    Os os_model(Os::Params{}, phys);
    Process &proc = os_model.createProcess(16 * mem::kBytes2M);
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    // Fault two regions' worth of pages, then promote one: the huge
    // frame may require relocating the other region's pages.
    for (u32 p = 0; p < 1024; ++p)
        os_model.handleFault(proc, heap + p * mem::kBytes4K, false);
    const auto result = os_model.promoteRegion(proc, heap, true);
    ASSERT_EQ(result.status, PromoteStatus::Ok);
    // Every still-4KB page's PTE must agree with the frame owner map.
    for (u32 p = 512; p < 1024; ++p) {
        const Addr vaddr = heap + p * mem::kBytes4K;
        const auto m = proc.pageTable().lookup(vaddr);
        ASSERT_TRUE(m.present);
        ASSERT_EQ(m.size, PageSize::Base4K);
        EXPECT_EQ(phys.ownerOf(m.pfn).vpn4k,
                  mem::vpnOf(vaddr, PageSize::Base4K));
    }
}
