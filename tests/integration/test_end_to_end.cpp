#include <gtest/gtest.h>

#include "sim/experiment.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

ExperimentSpec
ciSpec(const std::string &workload, PolicyKind policy)
{
    ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    spec.policy = policy;
    return spec;
}

} // namespace

class EndToEnd : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EndToEnd, AllPoliciesCompleteOnEveryWorkload)
{
    for (PolicyKind policy :
         {PolicyKind::Base, PolicyKind::AllHuge, PolicyKind::LinuxThp,
          PolicyKind::HawkEye, PolicyKind::Pcc}) {
        ExperimentSpec spec = ciSpec(GetParam(), policy);
        spec.frag_fraction = policy == PolicyKind::AllHuge ? 0.0 : 0.5;
        const RunResult result = runOne(spec);
        ASSERT_GT(result.job().accesses, 0u)
            << GetParam() << " under " << to_string(policy);
        ASSERT_GT(result.job().wall_cycles, 0u);
        // The TLB never sees more walks than accesses.
        ASSERT_LE(result.job().walks, result.job().tlb_accesses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, EndToEnd,
    ::testing::ValuesIn(workloads::allWorkloadNames()));

TEST(EndToEndInvariants, PromotionNeverExceedsCap)
{
    for (double cap : {1.0, 4.0, 16.0}) {
        ExperimentSpec spec = ciSpec("bfs", PolicyKind::Pcc);
        spec.cap_percent = cap;
        const RunResult result = runOne(spec);
        const u64 cap_bytes = mem::alignUp(
            static_cast<u64>(cap / 100.0 *
                             result.job().footprint_bytes),
            mem::PageSize::Huge2M);
        EXPECT_LE(result.job().promoted_bytes, cap_bytes);
    }
}

TEST(EndToEndInvariants, HugeCoverageReducesWalks)
{
    ExperimentSpec base = ciSpec("canneal", PolicyKind::Base);
    base.cap_percent = 0.0;
    ExperimentSpec pcc = ciSpec("canneal", PolicyKind::Pcc);
    pcc.cap_percent = 50.0;
    const RunResult b = runOne(base);
    const RunResult p = runOne(pcc);
    EXPECT_LT(p.job().walks, b.job().walks);
}

TEST(EndToEndInvariants, BackgroundWorkIsAccounted)
{
    ExperimentSpec spec = ciSpec("bfs", PolicyKind::Pcc);
    spec.frag_fraction = 0.9;
    const RunResult result = runOne(spec);
    if (result.job().promotions > 0 && result.compactions > 0) {
        EXPECT_GT(result.os_background_cycles, 0u);
    }
}

TEST(EndToEndInvariants, SortedInputsStillComplete)
{
    ExperimentSpec spec = ciSpec("pr", PolicyKind::Pcc);
    spec.workload.dbg_sorted = true;
    const RunResult result = runOne(spec);
    EXPECT_GT(result.job().accesses, 0u);
}

TEST(EndToEndInvariants, NetworksVariantsComplete)
{
    for (auto kind : {graph::NetworkKind::Social,
                      graph::NetworkKind::Web}) {
        ExperimentSpec spec = ciSpec("bfs", PolicyKind::Base);
        spec.workload.network = kind;
        const RunResult result = runOne(spec);
        EXPECT_GT(result.job().accesses, 0u);
    }
}
