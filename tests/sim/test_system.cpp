#include <gtest/gtest.h>

#include "sim/system.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

SystemConfig
ciConfig(PolicyKind policy)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.policy = policy;
    return cfg;
}

workloads::SyntheticSpec
hotSpec()
{
    workloads::SyntheticSpec spec;
    spec.pattern = workloads::Pattern::HotRegions;
    spec.footprint_bytes = 64ull << 20;
    spec.hot_regions = 8;
    spec.ops = 1'500'000;
    return spec;
}

} // namespace

TEST(System, BaselineRunProducesSaneMetrics)
{
    workloads::SyntheticWorkload w(hotSpec());
    System system(ciConfig(PolicyKind::Base));
    const auto result = system.run(w);
    ASSERT_EQ(result.jobs.size(), 1u);
    const auto &job = result.job();
    EXPECT_GT(job.wall_cycles, 0u);
    EXPECT_GT(job.accesses, hotSpec().ops);
    EXPECT_GT(job.walks, 0u);
    EXPECT_EQ(job.promotions, 0u);
    EXPECT_GT(job.faults, (64ull << 20) / mem::kBytes4K / 2);
    EXPECT_GT(job.tlbMissPercent(), 10.0) << "hot set >> TLB coverage";
    EXPECT_GE(job.refs_per_walk, 1.0);
    EXPECT_LE(job.refs_per_walk, 4.0);
}

TEST(System, RunsAreDeterministic)
{
    workloads::SyntheticWorkload w1(hotSpec());
    workloads::SyntheticWorkload w2(hotSpec());
    System s1(ciConfig(PolicyKind::Pcc));
    System s2(ciConfig(PolicyKind::Pcc));
    const auto r1 = s1.run(w1);
    const auto r2 = s2.run(w2);
    EXPECT_EQ(r1.job().wall_cycles, r2.job().wall_cycles);
    EXPECT_EQ(r1.job().walks, r2.job().walks);
    EXPECT_EQ(r1.job().promotions, r2.job().promotions);
}

TEST(System, AllHugeEliminatesWalksAndSpeedsUp)
{
    workloads::SyntheticWorkload base_w(hotSpec());
    workloads::SyntheticWorkload huge_w(hotSpec());
    System base_sys(ciConfig(PolicyKind::Base));
    System huge_sys(ciConfig(PolicyKind::AllHuge));
    const auto base = base_sys.run(base_w);
    const auto huge = huge_sys.run(huge_w);
    EXPECT_LT(huge.job().tlbMissPercent(), 1.0);
    EXPECT_GT(speedup(base, huge), 1.1);
    EXPECT_GT(huge.job().promotions, 0u); // fault-time THPs counted
}

TEST(System, PccPolicyPromotesHotRegions)
{
    workloads::SyntheticWorkload base_w(hotSpec());
    workloads::SyntheticWorkload pcc_w(hotSpec());
    System base_sys(ciConfig(PolicyKind::Base));
    SystemConfig cfg = ciConfig(PolicyKind::Pcc);
    cfg.promotion_cap_percent = 50.0;
    System pcc_sys(cfg);
    const auto base = base_sys.run(base_w);
    const auto pcc = pcc_sys.run(pcc_w);
    EXPECT_GT(pcc.job().promotions, 0u);
    EXPECT_LT(pcc.job().ptwPercent(), base.job().ptwPercent());
    EXPECT_GT(speedup(base, pcc), 1.05);
    EXPECT_GT(pcc.intervals, 0u);
    EXPECT_GT(pcc.shootdowns, 0u);
}

TEST(System, PromotionCapZeroForbidsPromotion)
{
    workloads::SyntheticWorkload w(hotSpec());
    SystemConfig cfg = ciConfig(PolicyKind::Pcc);
    cfg.promotion_cap_percent = 0.0;
    System system(cfg);
    const auto result = system.run(w);
    EXPECT_EQ(result.job().promotions, 0u);
}

TEST(System, FragmentationForcesCompaction)
{
    workloads::SyntheticWorkload w(hotSpec());
    SystemConfig cfg = ciConfig(PolicyKind::Pcc);
    cfg.frag_fraction = 0.5;
    cfg.promotion_cap_percent = 25.0;
    System system(cfg);
    const auto result = system.run(w);
    EXPECT_GT(result.job().promotions, 0u);
    EXPECT_GT(result.compactions, 0u);
}

TEST(System, MultiLaneRunCompletes)
{
    workloads::WorkloadSpec spec;
    spec.name = "pr";
    spec.scale = workloads::Scale::Ci;
    auto w = workloads::makeWorkload(spec);
    SystemConfig cfg = ciConfig(PolicyKind::Pcc);
    cfg.num_cores = 4;
    System system(cfg);
    const auto result = system.run(*w, 4);
    EXPECT_GT(result.job().accesses, 0u);
    EXPECT_GT(result.job().wall_cycles, 0u);
    // Wall time of the job is the max over its lanes' cores, so it is
    // bounded by total work but must reflect parallel division.
    EXPECT_LT(result.job().wall_cycles,
              result.job().accesses * 400ull);
}

TEST(System, MultiProcessRunsIsolateAddressSpaces)
{
    workloads::SyntheticWorkload wa(hotSpec());
    workloads::SyntheticSpec sb = hotSpec();
    sb.pattern = workloads::Pattern::Sequential;
    workloads::SyntheticWorkload wb(sb);

    // Base policy: promotions would otherwise erase the contrast this
    // test uses to check that the jobs' address spaces are isolated.
    SystemConfig cfg = ciConfig(PolicyKind::Base);
    cfg.num_cores = 2;
    System system(cfg);
    const auto result =
        system.run({System::Job{&wa, 1}, System::Job{&wb, 1}});
    ASSERT_EQ(result.jobs.size(), 2u);
    EXPECT_NE(result.jobs[0].pid, result.jobs[1].pid);
    // The random job misses; the streaming job barely does.
    EXPECT_GT(result.jobs[0].tlbMissPercent(),
              result.jobs[1].tlbMissPercent() * 5);
}

namespace {

/** Forwards to a synthetic workload, counting setup() calls. */
class CountingWorkload : public workloads::Workload
{
  public:
    explicit CountingWorkload(const workloads::SyntheticSpec &spec)
        : inner_(spec)
    {
    }

    std::string name() const override { return inner_.name(); }

    void
    setup(os::Process &proc) override
    {
        ++setups;
        pids.push_back(proc.pid());
        inner_.setup(proc);
    }

    u64 footprintBytes() const override { return inner_.footprintBytes(); }

    Generator<workloads::BatchEnd>
    batchLane(u32 lane, u32 num_lanes,
              workloads::AccessBuffer &buf) override
    {
        return inner_.batchLane(lane, num_lanes, buf);
    }

    u32 setups = 0;
    std::vector<Pid> pids; //!< pid of each process setup() ran on

  private:
    workloads::SyntheticWorkload inner_;
};

} // namespace

TEST(System, SetupRunsOncePerJobAndSizesMemoryFromIt)
{
    workloads::SyntheticSpec a = hotSpec();
    a.footprint_bytes = (24ull << 20) + 4096; // VMA rounds to 26MB
    a.ops = 20'000;
    workloads::SyntheticSpec b = hotSpec();
    b.footprint_bytes = 40ull << 20;
    b.ops = 20'000;
    CountingWorkload wa(a);
    CountingWorkload wb(b);

    SystemConfig cfg = ciConfig(PolicyKind::Pcc);
    cfg.num_cores = 2;
    cfg.phys_headroom = 20.0; // makes phys size track the footprint
    cfg.promotion_cap_percent = 10.0;
    System system(cfg);
    system.run({{&wa, 1}, {&wb, 1}});

    EXPECT_EQ(wa.setups, 1u);
    EXPECT_EQ(wb.setups, 1u);
    EXPECT_EQ(wa.pids, std::vector<Pid>{0});
    EXPECT_EQ(wb.pids, std::vector<Pid>{1});
    ASSERT_EQ(system.os().numProcesses(), 2u);
    EXPECT_EQ(system.os().process(1).heapBase(),
              os::Process(1, cfg.heap_capacity).heapBase());

    // Sized from the VMA-rounded footprints of the one setup pass.
    const u64 declared = (26ull + 40ull) << 20;
    const u64 phys = mem::alignUp(
        static_cast<u64>(static_cast<double>(declared) * 20.0) +
            (64ull << 20),
        mem::PageSize::Huge1G);
    EXPECT_EQ(phys, 2ull << 30);
    EXPECT_EQ(system.phys()->totalFrames(), phys / mem::kBytes4K);
    EXPECT_EQ(system.os().params().promotion_cap_bytes,
              mem::alignUp(declared / 10, mem::PageSize::Huge2M));
}

TEST(SystemDeathTest, MoreLanesThanCoresPanics)
{
    workloads::SyntheticWorkload w(hotSpec());
    System system(ciConfig(PolicyKind::Base));
    EXPECT_DEATH(system.run(w, 2), "more lanes than cores");
}

TEST(SystemConfigValidate, ShippedProfilesAreValid)
{
    for (auto scale :
         {workloads::Scale::Ci, workloads::Scale::Small,
          workloads::Scale::Medium, workloads::Scale::Paper}) {
        const SystemConfig cfg = SystemConfig::forScale(scale);
        EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().toString();
    }
    const SystemConfig defaults;
    EXPECT_TRUE(defaults.validate().ok())
        << defaults.validate().toString();
}

TEST(SystemConfigValidate, RejectsImpossibleGeometry)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.tlb.l2.ways = 3; // entries no longer divisible by ways
    const auto status = cfg.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("tlb.l2"), std::string::npos)
        << status.toString();

    SystemConfig zero_way = SystemConfig::forScale(workloads::Scale::Ci);
    zero_way.tlb.l1_4k.ways = 0;
    EXPECT_FALSE(zero_way.validate().ok());

    SystemConfig bad_pcc = SystemConfig::forScale(workloads::Scale::Ci);
    bad_pcc.pcc.pcc2m.counter_bits = 0;
    EXPECT_FALSE(bad_pcc.validate().ok());

    // Cache sizes must divide into whole ways of whole lines, but a
    // non-power-of-two set count is a supported geometry (modulo
    // indexing), e.g. the paper profile's 20MB 16-way LLC.
    SystemConfig bad_cache = SystemConfig::forScale(workloads::Scale::Ci);
    bad_cache.cache.llc.size_bytes += 1;
    EXPECT_FALSE(bad_cache.validate().ok());
    SystemConfig odd_sets = SystemConfig::forScale(workloads::Scale::Ci);
    odd_sets.cache.llc = {20 * 1024 * 1024, 16, 64};
    EXPECT_TRUE(odd_sets.validate().ok())
        << odd_sets.validate().toString();
}

TEST(SystemConfigValidate, RejectsTlbWaysPastTheScanMask)
{
    // TLB and PWC structures are capped at 32 ways.
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.tlb.l2 = {32, 32};
    EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().toString();
    cfg.tlb.l2 = {64, 64};
    const auto status = cfg.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("tlb.l2"), std::string::npos)
        << status.toString();

    SystemConfig pwc = SystemConfig::forScale(workloads::Scale::Ci);
    pwc.pwc.pde = {40, 40};
    const auto pwc_status = pwc.validate();
    ASSERT_FALSE(pwc_status.ok());
    EXPECT_NE(pwc_status.toString().find("pwc.pde"), std::string::npos)
        << pwc_status.toString();
}

TEST(SystemConfigValidate, RejectsCacheWaysPastTheRankWidth)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    const u32 max = cache::Cache::kMaxWays;
    cfg.cache.llc = {u64{max} * 64, max, 64};
    EXPECT_TRUE(cfg.validate().ok()) << cfg.validate().toString();
    cfg.cache.llc = {u64{max + 1} * 64, max + 1, 64};
    const auto status = cfg.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.toString().find("cache.llc"), std::string::npos)
        << status.toString();
}

TEST(SystemConfigValidate, RejectsNonsenseRunParameters)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.num_cores = 0;
    cfg.interval_accesses = 0;
    cfg.promotion_cap_percent = 150.0;
    cfg.frag_fraction = 2.0;
    const auto status = cfg.validate();
    ASSERT_FALSE(status.ok());
    // The sweep reports the first failure and counts the rest instead
    // of stopping at one.
    EXPECT_GE(status.extraFailures(), 3u) << status.toString();
}

TEST(SystemConfigValidate, RejectsEnabledTelemetryWithoutTopK)
{
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.telemetry.enabled = true;
    cfg.telemetry.top_k = 0;
    EXPECT_FALSE(cfg.validate().ok());
    cfg.telemetry.top_k = 8;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(SystemConfigValidateDeathTest, RunRefusesAnInvalidConfig)
{
    workloads::SyntheticWorkload w(hotSpec());
    SystemConfig cfg = ciConfig(PolicyKind::Base);
    cfg.interval_accesses = 0;
    System system(cfg);
    EXPECT_DEATH(system.run(w), "invalid SystemConfig");
}

TEST(PolicyKindNames, ParseRoundTripsWithToString)
{
    for (auto kind :
         {PolicyKind::Base, PolicyKind::AllHuge, PolicyKind::LinuxThp,
          PolicyKind::HawkEye, PolicyKind::Pcc,
          PolicyKind::TraceReplay}) {
        const auto parsed = parsePolicyKind(to_string(kind));
        ASSERT_TRUE(parsed.has_value()) << to_string(kind);
        EXPECT_EQ(*parsed, kind);
    }
    // Short aliases accepted by the CLI surfaces.
    EXPECT_EQ(parsePolicyKind("base"), PolicyKind::Base);
    EXPECT_EQ(parsePolicyKind("4k"), PolicyKind::Base);
    EXPECT_EQ(parsePolicyKind("thp"), PolicyKind::LinuxThp);
    EXPECT_EQ(parsePolicyKind("huge"), PolicyKind::AllHuge);
    // Typos surface as nullopt so callers can report them.
    EXPECT_FALSE(parsePolicyKind("pccx").has_value());
    EXPECT_FALSE(parsePolicyKind("").has_value());
}
