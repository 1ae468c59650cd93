#include <gtest/gtest.h>

#include <memory>

#include "mem/phys_mem.hpp"
#include "os/policies.hpp"
#include "pt/walker.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::os;
using pccsim::mem::PageSize;

namespace {

/** Minimal PolicyContext: N cores, one process per core by default. */
class TestContext : public PolicyContext
{
  public:
    TestContext(u32 cores, u64 phys_blocks, Os::Params params = {})
        : phys_(phys_blocks * mem::kBytes2M), os_(params, phys_)
    {
        for (u32 c = 0; c < cores; ++c)
            units_.push_back(std::make_unique<pcc::PccUnit>());
        charged_.assign(cores, 0);
    }

    Os &os() override { return os_; }
    u32 numCores() const override
    {
        return static_cast<u32>(units_.size());
    }
    Process &processOnCore(CoreId core) override
    {
        return os_.process(core_pid_.at(core));
    }
    pcc::PccUnit &pccUnit(CoreId core) override
    {
        return *units_.at(core);
    }
    void chargeCore(CoreId core, Cycles cycles) override
    {
        charged_.at(core) += cycles;
    }
    u64 intervalIndex() const override { return interval_; }
    u64 accessesSoFar() const override { return accesses_; }

    Process &
    addProcess(u64 heap_regions, std::vector<CoreId> cores)
    {
        Process &proc = os_.createProcess(heap_regions * mem::kBytes2M);
        for (CoreId c : cores) {
            if (core_pid_.size() <= c)
                core_pid_.resize(c + 1);
            core_pid_[c] = proc.pid();
        }
        return proc;
    }

    /** Fault in `pages` base pages of a region. */
    void
    fault(Process &proc, Addr base, u32 pages)
    {
        for (u32 p = 0; p < pages; ++p)
            os_.handleFault(proc, base + p * mem::kBytes4K, false);
    }

    /** Make `region` a warm PCC candidate on one core with N touches. */
    void
    touchPcc(CoreId core, Process &proc, Addr region, u32 touches)
    {
        pt::Walker walker;
        for (u32 i = 0; i < touches + 1; ++i) {
            const auto out = walker.walk(proc.pageTable(), region);
            units_.at(core)->observeWalk(region, out);
        }
    }

    mem::PhysicalMemory phys_;
    Os os_;
    std::vector<std::unique_ptr<pcc::PccUnit>> units_;
    std::vector<Pid> core_pid_;
    std::vector<Cycles> charged_;
    u64 interval_ = 0;
    u64 accesses_ = 0;
};

} // namespace

TEST(BasePolicy, NeverWantsHugeFaults)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    BasePagesPolicy policy;
    EXPECT_FALSE(policy.wantHugeFault(proc, heap));
    policy.onInterval(ctx); // must be a harmless no-op
    EXPECT_EQ(proc.promotions(), 0u);
}

TEST(AllHugePolicy, AlwaysWantsHugeFaults)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    AllHugePolicy policy;
    EXPECT_TRUE(policy.wantHugeFault(proc, proc.mmap(4096, "x")));
}

TEST(LinuxThp, KhugepagedCollapsesInAddressOrder)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    // Touch one page in each region; khugepaged collapses greedily.
    for (u64 r = 0; r < 4; ++r)
        ctx.fault(proc, heap + r * mem::kBytes2M, 1);

    LinuxThpPolicy::Params params;
    params.scan_pages_per_interval = 2 * 512; // two regions per tick
    LinuxThpPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(proc.promotions(), 2u);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Huge2M);
    EXPECT_EQ(proc.regionStateOf(heap + mem::kBytes2M),
              RegionState::Huge2M);
    EXPECT_EQ(proc.regionStateOf(heap + 2 * mem::kBytes2M),
              RegionState::Base4K);
    // The cursor continues where it stopped.
    policy.onInterval(ctx);
    EXPECT_EQ(proc.promotions(), 4u);
}

TEST(LinuxThp, ScanBudgetLimitsProgress)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(64, {0});
    const Addr heap = proc.mmap(32 * mem::kBytes2M, "heap");
    for (u64 r = 0; r < 32; ++r)
        ctx.fault(proc, heap + r * mem::kBytes2M, 1);

    LinuxThpPolicy::Params params;
    params.scan_pages_per_interval = 512; // one region per tick
    LinuxThpPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(proc.promotions(), 1u);
}

TEST(LinuxThp, NoHugeHintBlocksFaultTimeAllocation)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    proc.madvise(heap, mem::kBytes2M, HugeHint::NoHuge);

    LinuxThpPolicy policy;
    EXPECT_FALSE(policy.wantHugeFault(proc, heap));
    EXPECT_TRUE(policy.wantHugeFault(proc, heap + mem::kBytes2M));
}

TEST(LinuxThp, MadviseModeOnlyTouchesHintedRegions)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    for (u64 r = 0; r < 4; ++r)
        ctx.fault(proc, heap + r * mem::kBytes2M, 1);
    proc.madvise(heap + 2 * mem::kBytes2M, mem::kBytes2M,
                 HugeHint::Huge);

    LinuxThpPolicy::Params params;
    params.respect_madvise = true;
    params.scan_pages_per_interval = 8 * 512;
    LinuxThpPolicy policy(params);
    EXPECT_FALSE(policy.wantHugeFault(proc, heap));
    EXPECT_TRUE(policy.wantHugeFault(proc, heap + 2 * mem::kBytes2M));

    policy.onInterval(ctx);
    EXPECT_EQ(proc.promotions(), 1u);
    EXPECT_EQ(proc.regionStateOf(heap + 2 * mem::kBytes2M),
              RegionState::Huge2M);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
}

TEST(LinuxThp, KhugepagedSkipsNoHugeRegions)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(2 * mem::kBytes2M, "heap");
    ctx.fault(proc, heap, 1);
    ctx.fault(proc, heap + mem::kBytes2M, 1);
    proc.madvise(heap, mem::kBytes2M, HugeHint::NoHuge);

    LinuxThpPolicy::Params params;
    params.scan_pages_per_interval = 8 * 512;
    LinuxThpPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Base4K);
    EXPECT_EQ(proc.regionStateOf(heap + mem::kBytes2M),
              RegionState::Huge2M);
}

TEST(Madvise, HintsCoverWholeByteRange)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    // A range straddling two regions hints both.
    proc.madvise(heap + mem::kBytes2M - 4096, 8192, HugeHint::Huge);
    EXPECT_EQ(proc.hintOf(heap), HugeHint::Huge);
    EXPECT_EQ(proc.hintOf(heap + mem::kBytes2M), HugeHint::Huge);
    EXPECT_EQ(proc.hintOf(heap + 2 * mem::kBytes2M),
              HugeHint::Default);
}

TEST(MadviseDeathTest, OutsideHeapPanics)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    proc.mmap(mem::kBytes2M, "heap");
    EXPECT_DEATH(proc.madvise(0x1000, 4096, HugeHint::Huge),
                 "outside the mapped heap");
}

TEST(HawkEye, PromotesHighCoverageRegionsFirst)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    ctx.fault(proc, heap, 512);                     // full coverage
    ctx.fault(proc, heap + mem::kBytes2M, 30);      // sparse
    ctx.fault(proc, heap + 2 * mem::kBytes2M, 480); // high coverage

    // Make the accessed bits visible: walk every faulted page once.
    pt::Walker walker;
    for (u64 r = 0; r < 3; ++r) {
        for (u32 p = 0; p < 512; ++p) {
            const Addr a = heap + r * mem::kBytes2M + p * mem::kBytes4K;
            if (proc.faulted(a))
                walker.walk(proc.pageTable(), a);
        }
    }

    HawkEyePolicy::Params params;
    params.scan_pages_per_interval = 4 * 512;
    params.regions_per_interval = 2;
    HawkEyePolicy policy(params);
    policy.onInterval(ctx);

    EXPECT_EQ(proc.regionStateOf(heap), RegionState::Huge2M);
    EXPECT_EQ(proc.regionStateOf(heap + 2 * mem::kBytes2M),
              RegionState::Huge2M);
    // The 30-page region sits in bucket 0 and is never promoted.
    EXPECT_EQ(proc.regionStateOf(heap + mem::kBytes2M),
              RegionState::Base4K);
}

TEST(HawkEye, ScanClearsAccessedBits)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(mem::kBytes2M, "heap");
    ctx.fault(proc, heap, 64);
    pt::Walker walker;
    for (u32 p = 0; p < 64; ++p)
        walker.walk(proc.pageTable(), heap + p * mem::kBytes4K);
    ASSERT_EQ(proc.pageTable().countAccessed4K(heap), 64u);

    HawkEyePolicy::Params params;
    params.scan_pages_per_interval = 512;
    HawkEyePolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(proc.pageTable().countAccessed4K(heap), 0u);
}

TEST(PccPolicy, PromotesHottestCandidateFirst)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    for (u64 r = 0; r < 4; ++r)
        ctx.fault(proc, heap + r * mem::kBytes2M, 512);
    ctx.touchPcc(0, proc, heap, 2);
    ctx.touchPcc(0, proc, heap + mem::kBytes2M, 50); // hottest
    ctx.touchPcc(0, proc, heap + 2 * mem::kBytes2M, 10);

    PccPolicy::Params params;
    params.regions_to_promote = 1;
    PccPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(proc.promotions(), 1u);
    EXPECT_EQ(proc.regionStateOf(heap + mem::kBytes2M),
              RegionState::Huge2M);
}

TEST(PccPolicy, RoundRobinAlternatesAcrossCores)
{
    TestContext ctx(2, 64);
    Process &p0 = ctx.addProcess(32, {0});
    Process &p1 = ctx.addProcess(32, {1});
    const Addr h0 = p0.mmap(4 * mem::kBytes2M, "h0");
    const Addr h1 = p1.mmap(4 * mem::kBytes2M, "h1");
    for (u64 r = 0; r < 4; ++r) {
        ctx.fault(p0, h0 + r * mem::kBytes2M, 512);
        ctx.fault(p1, h1 + r * mem::kBytes2M, 512);
    }
    // Core 0's candidates are far hotter, but round robin must still
    // take one from each PCC.
    ctx.touchPcc(0, p0, h0, 100);
    ctx.touchPcc(0, p0, h0 + mem::kBytes2M, 90);
    ctx.touchPcc(1, p1, h1, 5);
    ctx.touchPcc(1, p1, h1 + mem::kBytes2M, 4);

    PccPolicy::Params params;
    params.regions_to_promote = 2;
    params.order = PromotionOrder::RoundRobin;
    PccPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(p0.promotions(), 1u);
    EXPECT_EQ(p1.promotions(), 1u);
}

TEST(PccPolicy, HighestFrequencyIgnoresFairness)
{
    TestContext ctx(2, 64);
    Process &p0 = ctx.addProcess(32, {0});
    Process &p1 = ctx.addProcess(32, {1});
    const Addr h0 = p0.mmap(4 * mem::kBytes2M, "h0");
    const Addr h1 = p1.mmap(4 * mem::kBytes2M, "h1");
    for (u64 r = 0; r < 4; ++r) {
        ctx.fault(p0, h0 + r * mem::kBytes2M, 512);
        ctx.fault(p1, h1 + r * mem::kBytes2M, 512);
    }
    ctx.touchPcc(0, p0, h0, 100);
    ctx.touchPcc(0, p0, h0 + mem::kBytes2M, 90);
    ctx.touchPcc(1, p1, h1, 5);

    PccPolicy::Params params;
    params.regions_to_promote = 2;
    params.order = PromotionOrder::HighestFrequency;
    PccPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(p0.promotions(), 2u);
    EXPECT_EQ(p1.promotions(), 0u);
}

TEST(PccPolicy, BiasPidJumpsTheQueue)
{
    TestContext ctx(2, 64);
    Process &p0 = ctx.addProcess(32, {0});
    Process &p1 = ctx.addProcess(32, {1});
    const Addr h0 = p0.mmap(4 * mem::kBytes2M, "h0");
    const Addr h1 = p1.mmap(4 * mem::kBytes2M, "h1");
    ctx.fault(p0, h0, 512);
    ctx.fault(p1, h1, 512);
    ctx.touchPcc(0, p0, h0, 100); // globally hottest
    ctx.touchPcc(1, p1, h1, 1);

    PccPolicy::Params params;
    params.regions_to_promote = 1;
    params.bias_pids = {p1.pid()}; // promotion_bias_process
    PccPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(p1.promotions(), 1u);
    EXPECT_EQ(p0.promotions(), 0u);
}

TEST(PccPolicy, DemotionFreesFramesUnderPressure)
{
    // Physical memory fits the footprint with almost no slack and is
    // fully fragmented: after the first promotions consume the only
    // compactable blocks, further promotions require demotion.
    TestContext ctx(1, 12);
    Rng rng(5);
    ctx.phys_.fragment(0.6, rng);
    ctx.phys_.scramble(rng);
    Process &proc = ctx.addProcess(8, {0});
    const Addr heap = proc.mmap(4 * mem::kBytes2M, "heap");
    for (u64 r = 0; r < 4; ++r)
        ctx.fault(proc, heap + r * mem::kBytes2M, 512);

    PccPolicy::Params params;
    params.regions_to_promote = 8;
    params.demote_on_pressure = true;
    PccPolicy policy(params);

    for (u64 round = 0; round < 4; ++round) {
        for (u64 r = 0; r < 4; ++r) {
            if (proc.regionStateOf(heap + r * mem::kBytes2M) ==
                RegionState::Base4K) {
                ctx.touchPcc(0, proc, heap + r * mem::kBytes2M,
                             10 + static_cast<u32>(r));
            }
        }
        policy.onInterval(ctx);
    }
    // With demotion enabled some region must have been demoted to make
    // room (or everything fit, in which case demotions may be zero but
    // promotions saturate).
    EXPECT_GT(proc.promotions(), 0u);
    if (proc.promotions() < 4) {
        EXPECT_GT(proc.demotions(), 0u);
    }
}

TEST(PccPolicy, PromotionShootdownInvalidatesCandidate)
{
    TestContext ctx(1, 64);
    Process &proc = ctx.addProcess(32, {0});
    const Addr heap = proc.mmap(2 * mem::kBytes2M, "heap");
    ctx.fault(proc, heap, 512);
    ctx.touchPcc(0, proc, heap, 20);
    ASSERT_EQ(ctx.units_[0]->pcc2m().size(), 1u);

    // Wire the shootdown hook the way the System does.
    ctx.os_.setShootdownHook(
        [&](Pid, Addr base, u64 bytes) -> Cycles {
            ctx.units_[0]->shootdown(base, bytes);
            return 0;
        });
    PccPolicy::Params params;
    params.regions_to_promote = 4;
    PccPolicy policy(params);
    policy.onInterval(ctx);
    EXPECT_EQ(proc.promotions(), 1u);
    EXPECT_EQ(ctx.units_[0]->pcc2m().size(), 0u)
        << "promoted candidates must leave the PCC (Fig. 4 step C)";
}
