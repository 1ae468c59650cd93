/**
 * SampleController on its own: the SMARTS phase machine, fed counter
 * totals by hand, with no System behind it.
 */

#include <gtest/gtest.h>

#include "sim/sampling.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

using Phase = SampleController::Phase;

/** Consume the whole current phase; true when advance() is due. */
bool
drain(SampleController &ctl)
{
    const u32 left = ctl.clamp(~0u);
    return left > 0 && ctl.consume(left);
}

CoreCounters
totals(u64 tlb_accesses, u64 walks, Cycles walk_cycles)
{
    CoreCounters c;
    c.tlb_accesses = tlb_accesses;
    c.walks = walks;
    c.walk_cycles = walk_cycles;
    return c;
}

} // namespace

TEST(SampleController, PhasesRunWarmMeasureFastForward)
{
    SampleController ctl(4, 3);
    ctl.advance({}, 0);
    std::vector<std::pair<Phase, u32>> seen;
    for (int step = 0; step < 4; ++step) {
        seen.emplace_back(ctl.phase(), ctl.clamp(100));
        ASSERT_TRUE(drain(ctl));
        ctl.advance({}, 0);
    }
    const std::vector<std::pair<Phase, u32>> expected = {
        {Phase::Warming, 2},
        {Phase::Measuring, 2},
        {Phase::FastForward, 3},
        {Phase::Warming, 2},
    };
    EXPECT_EQ(seen, expected);
    EXPECT_FALSE(ctl.fastForwarding());
}

TEST(SampleController, PartialChunksFinishThePhaseExactly)
{
    SampleController ctl(4, 3);
    ctl.advance({}, 0);
    EXPECT_FALSE(ctl.consume(1));
    EXPECT_EQ(ctl.clamp(100), 1u);
    EXPECT_TRUE(ctl.consume(1));
}

TEST(SampleController, WindowOfOneHasNoWarmUp)
{
    SampleController ctl(1, 5);
    ctl.advance({}, 0);
    EXPECT_EQ(ctl.phase(), Phase::Measuring);
    EXPECT_EQ(ctl.clamp(100), 1u);
    ASSERT_TRUE(drain(ctl));
    ctl.advance({}, 0);
    EXPECT_EQ(ctl.phase(), Phase::FastForward);
    EXPECT_EQ(ctl.clamp(100), 5u);
}

TEST(SampleController, OddWindowMeasuresTheLargerHalf)
{
    SampleController ctl(5, 2);
    ctl.advance({}, 0);
    EXPECT_EQ(ctl.phase(), Phase::Warming);
    EXPECT_EQ(ctl.clamp(100), 2u);
    ASSERT_TRUE(drain(ctl));
    ctl.advance({}, 0);
    EXPECT_EQ(ctl.phase(), Phase::Measuring);
    EXPECT_EQ(ctl.clamp(100), 3u);
}

TEST(SampleController, ClosedWindowSetsChargeAndPccRate)
{
    // W = 4: two warm-up accesses, then two measured ones.
    SampleController ctl(4, 8);
    ctl.advance({}, 0);
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(100, 10, 50), 1000); // measurement starts here
    ASSERT_TRUE(drain(ctl));
    // The window saw 2 TLB accesses, 1 walk and 90 cycles.
    ctl.advance(totals(102, 11, 110), 1090);
    ASSERT_TRUE(ctl.fastForwarding());
    EXPECT_EQ(ctl.ffCharge(), 45u); // 90 cycles / 2 measured accesses
    // One walk per two measured accesses: every second access feeds.
    std::vector<bool> feeds;
    for (int i = 0; i < 6; ++i)
        feeds.push_back(ctl.feedPcc());
    EXPECT_EQ(feeds,
              (std::vector<bool>{false, true, false, true, false, true}));
}

TEST(SampleController, NoPccFeedBeforeTheFirstWindowCloses)
{
    SampleController ctl(2, 2);
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(ctl.feedPcc());
    EXPECT_EQ(ctl.ffCharge(), 0u);
}

TEST(SampleController, StatsAreMeanAndCi95OverWindows)
{
    SampleController ctl(4, 3);
    ctl.advance({}, 0);
    // Window 1: 1 walk in 2 TLB accesses (50%), 60 walk cycles / 2.
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(0, 0, 0), 0);
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(2, 1, 60), 100);
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(2, 1, 60), 100);
    // Window 2: 2 walks in 2 TLB accesses (100%), 20 walk cycles / 2.
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(2, 1, 60), 100);
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(4, 3, 80), 200);

    const SamplingStats s = ctl.stats();
    EXPECT_TRUE(s.enabled);
    EXPECT_EQ(s.window, 4u);
    EXPECT_EQ(s.fastforward, 3u);
    EXPECT_EQ(s.windows, 2u);
    EXPECT_EQ(s.detailed_accesses, 8u);
    EXPECT_EQ(s.ff_accesses, 3u);
    // Means 75% and 20 cycles; sample variances 1250 and 200, so
    // CI95 = 1.96 * sqrt(var / 2) = 1.96 * 25 and 1.96 * 10.
    EXPECT_DOUBLE_EQ(s.miss_rate_mean, 75.0);
    EXPECT_DOUBLE_EQ(s.miss_rate_ci95, 49.0);
    EXPECT_DOUBLE_EQ(s.walk_cycles_mean, 20.0);
    EXPECT_DOUBLE_EQ(s.walk_cycles_ci95, 19.6);
}

TEST(SampleController, OneWindowHasNoConfidenceInterval)
{
    SampleController ctl(2, 1);
    ctl.advance({}, 0);
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(0, 0, 0), 0);
    ASSERT_TRUE(drain(ctl));
    ctl.advance(totals(4, 1, 30), 40);
    const SamplingStats s = ctl.stats();
    EXPECT_EQ(s.windows, 1u);
    EXPECT_DOUBLE_EQ(s.miss_rate_mean, 25.0);
    EXPECT_DOUBLE_EQ(s.walk_cycles_mean, 30.0);
    EXPECT_DOUBLE_EQ(s.miss_rate_ci95, 0.0);
    EXPECT_DOUBLE_EQ(s.walk_cycles_ci95, 0.0);
}
