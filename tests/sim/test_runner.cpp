#include <cstdio>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/runner.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

ExperimentSpec
ciSpec(const std::string &workload, PolicyKind policy,
       double cap = 8.0, double frag = 0.0)
{
    ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    spec.policy = policy;
    spec.cap_percent = cap;
    spec.frag_fraction = frag;
    return spec;
}

/** A ci-scale suite covering every policy family plus fault injection. */
std::vector<ExperimentSpec>
ciSuite()
{
    std::vector<ExperimentSpec> specs;
    specs.push_back(ciSpec("bfs", PolicyKind::Base, 0.0));
    specs.push_back(ciSpec("bfs", PolicyKind::Pcc));
    specs.push_back(ciSpec("bfs", PolicyKind::LinuxThp, 25.0, 0.5));
    specs.push_back(ciSpec("pr", PolicyKind::Base, 0.0));
    specs.push_back(ciSpec("pr", PolicyKind::HawkEye, 25.0));
    specs.push_back(ciSpec("pr", PolicyKind::AllHuge, -1.0));

    // A faulty run: the injector is seeded from the spec inside each
    // simulation, so it must replay identically at any job count.
    auto faulty = ciSpec("bfs", PolicyKind::Pcc, 25.0, 0.3);
    faulty.tweak = [](SystemConfig &cfg) {
        cfg.faults.alloc_fail_huge = 0.3;
        cfg.faults.compaction_fail = 0.25;
        cfg.faults.shootdown_storm = 0.1;
        cfg.faults.shock_intervals = {2, 5};
        cfg.check_invariants = true;
    };
    faulty.tweak_key = "storm";
    specs.push_back(std::move(faulty));
    return specs;
}

} // namespace

TEST(SpecKey, IdenticalSpecsShareAKey)
{
    EXPECT_EQ(specKey(ciSpec("bfs", PolicyKind::Pcc)),
              specKey(ciSpec("bfs", PolicyKind::Pcc)));
}

TEST(SpecKey, DistinguishesEveryRunShapingField)
{
    const auto base = ciSpec("bfs", PolicyKind::Pcc);
    const std::string key = specKey(base);

    EXPECT_NE(key, specKey(ciSpec("pr", PolicyKind::Pcc)));
    EXPECT_NE(key, specKey(ciSpec("bfs", PolicyKind::LinuxThp)));
    EXPECT_NE(key, specKey(ciSpec("bfs", PolicyKind::Pcc, 16.0)));
    EXPECT_NE(key, specKey(ciSpec("bfs", PolicyKind::Pcc, 8.0, 0.5)));

    auto lanes = base;
    lanes.lanes = 4;
    EXPECT_NE(key, specKey(lanes));

    auto seeded = base;
    seeded.workload.seed = base.workload.seed + 1;
    EXPECT_NE(key, specKey(seeded));

    auto policy = base;
    policy.pcc_policy.regions_to_promote += 1;
    EXPECT_NE(key, specKey(policy));

    auto keyed = base;
    keyed.tweak = [](SystemConfig &) {};
    keyed.tweak_key = "variant-a";
    EXPECT_NE(key, specKey(keyed));

    auto arbitrated = base;
    arbitrated.pcc_policy.arbiter = "static";
    EXPECT_NE(key, specKey(arbitrated));
    auto propshare = base;
    propshare.pcc_policy.arbiter = "propshare";
    EXPECT_NE(specKey(arbitrated), specKey(propshare));

    // Co-runners: each one's name and seed, and their order.
    auto paired = base;
    paired.corunners = {base.workload, base.workload};
    paired.corunners[0].name = "mcf";
    EXPECT_NE(key, specKey(paired));
    auto renamed = paired;
    renamed.corunners[1].name = "sssp";
    EXPECT_NE(specKey(paired), specKey(renamed));
    auto reseeded = paired;
    reseeded.corunners[0].seed += 1;
    EXPECT_NE(specKey(paired), specKey(reseeded));
    auto reordered = renamed;
    std::swap(reordered.corunners[0], reordered.corunners[1]);
    EXPECT_NE(specKey(renamed), specKey(reordered));
}

TEST(SpecKey, SampledAndExactRunsNeverShareAMemoEntry)
{
    // A sampled run reports estimates, not exact results, so serving
    // it from (or into) an exact run's memo entry would be silent
    // corruption. The sampling geometry is part of the key.
    const auto exact = ciSpec("bfs", PolicyKind::Pcc);
    auto sampled = exact;
    sampled.sampling.window = 10'000;
    sampled.sampling.fastforward = 40'000;
    EXPECT_NE(specKey(exact), specKey(sampled));

    // Different geometries are different estimators too.
    auto wider = sampled;
    wider.sampling.fastforward = 90'000;
    EXPECT_NE(specKey(sampled), specKey(wider));

    // End to end: one runner, both specs in one batch — the sampled
    // run must not be a memo hit off the exact one (or vice versa),
    // and the results must differ in kind.
    Runner runner(1);
    const auto results = runner.runMany({exact, sampled});
    EXPECT_EQ(runner.stats().memo_hits, 0u);
    EXPECT_FALSE(results[0]->sampling.enabled);
    EXPECT_TRUE(results[1]->sampling.enabled);
    EXPECT_GT(results[1]->sampling.ff_accesses, 0u);
}

TEST(SpecKey, UnkeyedTweakIsNotMemoizable)
{
    auto spec = ciSpec("bfs", PolicyKind::Pcc);
    spec.tweak = [](SystemConfig &cfg) { cfg.pcc.pcc2m.entries = 7; };
    EXPECT_TRUE(specKey(spec).empty());
    spec.tweak_key = "pcc2m=7";
    EXPECT_FALSE(specKey(spec).empty());
}

TEST(Runner, ParallelIsBitIdenticalToSerial)
{
    const auto specs = ciSuite();
    Runner serial(1);
    Runner parallel(8);
    const auto a = serial.runMany(specs);
    const auto b = parallel.runMany(specs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i] && b[i]) << i;
        EXPECT_TRUE(*a[i] == *b[i]) << "spec " << i
                                    << " diverged across job counts";
    }
}

TEST(Runner, RepeatedBatchesStayDeterministic)
{
    // The memo must hand back the exact result a fresh simulation
    // would produce, and a second runner must reproduce it.
    const auto specs = ciSuite();
    Runner first(4);
    Runner second(2);
    const auto a = first.runMany(specs);
    const auto again = first.runMany(specs);
    const auto b = second.runMany(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(*a[i] == *b[i]) << i;
        EXPECT_TRUE(*a[i] == *again[i]) << i;
    }
}

TEST(Runner, MemoizesAcrossCalls)
{
    Runner runner(2);
    const auto spec = ciSpec("bfs", PolicyKind::Base, 0.0);
    const auto first = runner.run(spec);
    const auto second = runner.run(spec);
    EXPECT_EQ(first.get(), second.get()); // same cached object
    const auto stats = runner.stats();
    EXPECT_EQ(stats.requested, 2u);
    EXPECT_EQ(stats.simulated, 1u);
    EXPECT_EQ(stats.memo_hits, 1u);
    EXPECT_GT(stats.total_accesses, 0u);
}

TEST(Runner, DeduplicatesWithinABatch)
{
    // The duplicated-baseline bug: harnesses used to re-run the Base
    // config once per variant. The runner collapses them.
    Runner runner(4);
    const auto base = ciSpec("bfs", PolicyKind::Base, 0.0);
    const auto results = runner.runMany({base, base, base});
    EXPECT_EQ(results[0].get(), results[1].get());
    EXPECT_EQ(results[0].get(), results[2].get());
    EXPECT_EQ(runner.stats().simulated, 1u);
    EXPECT_EQ(runner.stats().memo_hits, 2u);
}

TEST(Runner, UnkeyedTweakSimulatesEveryTime)
{
    Runner runner(2);
    auto spec = ciSpec("bfs", PolicyKind::Base, 0.0);
    spec.tweak = [](SystemConfig &cfg) { cfg.pwc.enabled = false; };
    const auto a = runner.run(spec);
    const auto b = runner.run(spec);
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(runner.stats().simulated, 2u);
    EXPECT_EQ(runner.stats().memo_hits, 0u);
    EXPECT_TRUE(*a == *b); // still deterministic, just not cached
}

TEST(Runner, LastTranslationCacheNeverChangesResults)
{
    // The per-core (vpn, size) fast path is a pure CPU-time
    // optimization: every stat — TLB hits, walks, promotions,
    // shootdowns, wall cycles — must be identical with it disabled.
    // PolicyKind::Pcc promotes and demotes mid-run, so the shootdown
    // invalidation path is exercised too.
    Runner runner(2);
    for (PolicyKind kind : {PolicyKind::Pcc, PolicyKind::LinuxThp}) {
        const auto with = ciSpec("bfs", kind, 25.0, 0.3);
        auto without = with;
        without.tweak = [](SystemConfig &cfg) {
            cfg.last_translation_cache = false;
        };
        without.tweak_key = "ltc=off";
        const auto results = runner.runMany({with, without});
        EXPECT_TRUE(*results[0] == *results[1])
            << "last-translation cache changed results for policy "
            << static_cast<int>(kind);
    }
}

TEST(Runner, GlobalRunnerIsConfigurable)
{
    Runner::setGlobalJobs(3);
    EXPECT_EQ(Runner::global().jobs(), 3u);
    Runner::setGlobalJobs(1);
    EXPECT_EQ(Runner::global().jobs(), 1u);
}

namespace {

/** A fresh journal path under the test temp dir. */
std::string
journalPath(const std::string &tag)
{
    const std::string path = ::testing::TempDir() + "pccsim-journal-" +
                             tag + "-" +
                             std::to_string(::getpid()) + ".txt";
    std::remove(path.c_str());
    return path;
}

/** An endless workload: only the watchdog can end it. */
ExperimentSpec
spinSpec()
{
    ExperimentSpec spec;
    spec.workload.name = "syn:spin:1:1000:1";
    spec.policy = PolicyKind::Base;
    spec.cap_percent = 0.0;
    return spec;
}

} // namespace

TEST(SpecKey, DistinguishesResilienceFields)
{
    const auto base = ciSpec("bfs", PolicyKind::Pcc);
    const std::string key = specKey(base);

    auto faults = base;
    faults.faults.alloc_fail_huge = 0.3;
    EXPECT_NE(key, specKey(faults));

    auto shocks = base;
    shocks.faults.shock_intervals = {2, 5};
    EXPECT_NE(key, specKey(shocks));

    auto invariants = base;
    invariants.check_invariants = true;
    EXPECT_NE(key, specKey(invariants));

    auto interval = base;
    interval.interval_accesses = 12'345;
    EXPECT_NE(key, specKey(interval));

    auto mutated = base;
    mutated.mutation = HotPathMutation::SkipL2Fill;
    EXPECT_NE(key, specKey(mutated));

    // The oracle is result-neutral, so it must NOT split the key: an
    // oracle-checked run may serve and be served by plain memo hits.
    auto checked = base;
    checked.oracle.enabled = true;
    EXPECT_EQ(key, specKey(checked));
}

TEST(Runner, JournalPersistsAndResumes)
{
    const std::string path = journalPath("resume");
    const auto specs = ciSuite();

    RunnerOptions options;
    options.jobs = 2;
    options.journal_path = path;
    std::vector<std::shared_ptr<const RunResult>> first;
    u64 appended = 0;
    {
        Runner writer(options);
        EXPECT_EQ(writer.stats().journal_loaded, 0u);
        first = writer.runMany(specs);
        appended = writer.stats().journal_appends;
        // Every keyed spec persists (none of these carry telemetry).
        EXPECT_EQ(appended, writer.stats().simulated);
        EXPECT_GT(appended, 0u);
    }

    // A new runner — a restarted process, as far as the journal is
    // concerned — must preload every persisted result and answer the
    // same batch without simulating anything keyed again.
    Runner resumed(options);
    const auto stats_before = resumed.stats();
    EXPECT_EQ(stats_before.journal_loaded, appended);
    EXPECT_EQ(stats_before.journal_malformed, 0u);
    EXPECT_EQ(resumed.memoSize(), static_cast<size_t>(appended));

    const auto second = resumed.runMany(specs);
    const auto stats_after = resumed.stats();
    EXPECT_GE(stats_after.memo_hits, appended);
    EXPECT_EQ(stats_after.simulated, 0u);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_TRUE(*first[i] == *second[i])
            << "journal round-trip changed result " << i;
    }
    std::remove(path.c_str());
}

TEST(Runner, JournalToleratesTruncatedTail)
{
    // A crash mid-append leaves a partial last line; the loader must
    // keep every complete record and count the tail as malformed.
    const std::string path = journalPath("truncated");
    RunnerOptions options;
    options.jobs = 1;
    options.journal_path = path;
    u64 appended = 0;
    {
        Runner writer(options);
        writer.run(ciSpec("bfs", PolicyKind::Base, 0.0));
        writer.run(ciSpec("bfs", PolicyKind::Pcc));
        appended = writer.stats().journal_appends;
        EXPECT_EQ(appended, 2u);
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "R deadbeef"; // no newline: torn mid-record
    }

    Runner resumed(options);
    EXPECT_EQ(resumed.stats().journal_loaded, appended);
    EXPECT_EQ(resumed.stats().journal_malformed, 1u);
    std::remove(path.c_str());
}

TEST(Runner, JournalRejectsCorruptedRecords)
{
    const std::string path = journalPath("corrupt");
    RunnerOptions options;
    options.jobs = 1;
    options.journal_path = path;
    {
        Runner writer(options);
        writer.run(ciSpec("bfs", PolicyKind::Base, 0.0));
    }
    // Flip payload bytes without updating the hash.
    std::string contents;
    {
        std::ifstream in(path);
        std::getline(in, contents, '\0');
    }
    const auto digit = contents.find_last_of("123456789");
    ASSERT_NE(digit, std::string::npos);
    contents[digit] = contents[digit] == '1' ? '2' : '1';
    {
        std::ofstream out(path, std::ios::trunc);
        out << contents;
    }

    Runner resumed(options);
    EXPECT_EQ(resumed.stats().journal_loaded, 0u);
    EXPECT_EQ(resumed.stats().journal_malformed, 1u);
    std::remove(path.c_str());
}

TEST(Runner, GuardedBatchMatchesUnguarded)
{
    const auto specs = ciSuite();
    Runner plain(2);
    Runner guarded(2);
    const auto expect = plain.runMany(specs);
    const auto outcomes = guarded.runManyGuarded(specs);
    ASSERT_EQ(outcomes.size(), expect.size());
    for (size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok())
            << i << ": " << outcomes[i].message;
        EXPECT_EQ(outcomes[i].fail, JobFail::None);
        EXPECT_TRUE(*outcomes[i].result == *expect[i]) << i;
    }
    EXPECT_EQ(guarded.stats().quarantined, 0u);
}

TEST(Runner, WatchdogQuarantinesHungJobWhileBatchCompletes)
{
    // One endless job must not wedge the batch: the watchdog cancels
    // it at the deadline and the healthy jobs still finish.
    // The deadline needs headroom for the *healthy* job: it bounds
    // every attempt in the batch, not just the hung one. The healthy
    // job is a small synthetic run, so it finishes well inside the
    // deadline even under ThreadSanitizer on a loaded host.
    RunnerOptions options;
    options.jobs = 2;
    options.deadline_ms = 5'000;
    options.watchdog_poll_ms = 10;
    Runner runner(options);

    const std::vector<ExperimentSpec> batch = {
        spinSpec(), ciSpec("syn:uniform:8:200000:1", PolicyKind::Base, 0.0)};
    const auto outcomes = runner.runManyGuarded(batch);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].fail, JobFail::Timeout)
        << to_string(outcomes[0].fail);
    EXPECT_FALSE(outcomes[0].result);
    EXPECT_FALSE(outcomes[0].message.empty());
    EXPECT_TRUE(outcomes[1].ok()) << outcomes[1].message;
    EXPECT_EQ(runner.stats().quarantined, 1u);
    EXPECT_EQ(to_string(JobFail::Timeout), "timeout");
}

TEST(Runner, OracleDivergenceIsQuarantinedNotThrown)
{
    auto diverging = ciSpec("bfs", PolicyKind::Pcc);
    diverging.workload.name = "syn:uniform:8:200000:1";
    diverging.policy = PolicyKind::Base;
    diverging.mutation = HotPathMutation::SkipL2Fill;
    diverging.oracle.enabled = true;
    diverging.oracle.sample_every = 1;

    Runner runner(2);
    const auto outcomes = runner.runManyGuarded(
        {diverging, ciSpec("bfs", PolicyKind::Base, 0.0)});
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_EQ(outcomes[0].fail, JobFail::Diverged);
    EXPECT_NE(outcomes[0].message.find("divergence"),
              std::string::npos);
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_EQ(runner.stats().quarantined, 1u);
}

TEST(Runner, MemoServedOutcomesTakeZeroAttempts)
{
    Runner runner(1);
    const auto spec = ciSpec("bfs", PolicyKind::Base, 0.0);
    const auto first = runner.runManyGuarded({spec});
    ASSERT_TRUE(first[0].ok());
    EXPECT_EQ(first[0].attempts, 1u);
    const auto again = runner.runManyGuarded({spec});
    ASSERT_TRUE(again[0].ok());
    EXPECT_EQ(again[0].attempts, 0u); // served from the memo
    EXPECT_EQ(runner.stats().simulated, 1u);
}

TEST(Runner, GlobalReconfigurationCountsMemoDiscards)
{
    Runner::setGlobalJobs(1);
    const u64 before = Runner::globalMemoDiscards();

    // Empty memo: replacing the runner discards nothing.
    Runner::setGlobalJobs(1);
    EXPECT_EQ(Runner::globalMemoDiscards(), before);

    Runner::global().run(ciSpec("bfs", PolicyKind::Base, 0.0));
    Runner::setGlobalJobs(1); // discards one memoized result
    EXPECT_EQ(Runner::globalMemoDiscards(), before + 1);
}

namespace {

/** fig09's pair at ci: pr on core 0 with mcf co-running on core 1. */
ExperimentSpec
pairSpec(std::string_view policy, double cap)
{
    ExperimentSpec spec;
    spec.workload.name = "pr";
    spec.workload.scale = workloads::Scale::Ci;
    spec.corunners = {spec.workload};
    spec.corunners[0].name = "mcf";
    EXPECT_TRUE(applyPolicySelector(spec, policy).ok());
    spec.cap_percent = cap;
    return spec;
}

/** Hand-built single-lane jobs (name, seed) at ci on a raw System. */
RunResult
rawRun(const SystemConfig &cfg,
       const std::vector<std::pair<std::string, u64>> &apps)
{
    std::vector<workloads::WorkloadPtr> owned;
    std::vector<System::Job> jobs;
    for (const auto &[name, seed] : apps) {
        workloads::WorkloadSpec w;
        w.name = name;
        w.scale = workloads::Scale::Ci;
        w.seed = seed;
        owned.push_back(workloads::makeWorkload(w));
        jobs.push_back({owned.back().get(), 1});
    }
    System system(cfg);
    return system.run(std::move(jobs));
}

} // namespace

TEST(Runner, CoRunnerSpecMatchesTheSameJobsOnARawSystem)
{
    const ExperimentSpec spec = pairSpec("pcc", 8.0);
    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    cfg.num_cores = 2;
    ASSERT_TRUE(applyPolicySelector(cfg, "pcc").ok());
    cfg.promotion_cap_percent = 8.0;
    cfg.seed = spec.workload.seed;

    Runner runner(1);
    const auto shared = runner.run(spec);
    ASSERT_EQ(shared->jobs.size(), 2u);
    EXPECT_TRUE(*shared == rawRun(cfg, {{"pr", 42}, {"mcf", 42}}));
}

TEST(Runner, TenantSpecMatchesTheSameTenantsOnARawSystem)
{
    // fig10's point: two tenants time-sharing one core with ASIDs,
    // static budgets, fragmented memory and the audit log on.
    ExperimentSpec spec = pairSpec("pcc", -1.0);
    spec.corunners[0].seed += 1;
    spec.pcc_policy.arbiter = "static";
    spec.pcc_policy.regions_to_promote = 1;
    spec.frag_fraction = 0.9;
    spec.telemetry.enabled = true;
    spec.telemetry.audit = true;
    const auto shareOneCore = [](SystemConfig &cfg) {
        cfg.num_cores = 1;
        cfg.tenant.cores = 1;
        cfg.tenant.switch_mode = tenant::SwitchMode::Asid;
        cfg.tenant.quantum_ops = 1024;
    };
    spec.tweak = shareOneCore;
    spec.tweak_key = "tenant-node";

    SystemConfig cfg = SystemConfig::forScale(workloads::Scale::Ci);
    shareOneCore(cfg);
    ASSERT_TRUE(applyPolicySelector(cfg, "pcc").ok());
    cfg.pcc_policy.arbiter = "static";
    cfg.pcc_policy.regions_to_promote = 1;
    cfg.frag_fraction = 0.9;
    cfg.telemetry.enabled = true;
    cfg.telemetry.audit = true;
    cfg.seed = spec.workload.seed;

    Runner runner(1);
    const auto shared = runner.run(spec);
    ASSERT_EQ(shared->jobs.size(), 2u);
    EXPECT_TRUE(*shared == rawRun(cfg, {{"pr", 42}, {"mcf", 43}}));
}

TEST(Runner, CoRunnerPolicySiblingsShareOneCacheTape)
{
    const std::vector<ExperimentSpec> specs = {pairSpec("base-4k", 0.0),
                                               pairSpec("pcc", 8.0)};
    Runner runner(1);
    const auto shared = runner.runMany(specs);
    const auto stats = runner.stats();
    EXPECT_EQ(stats.cache_tape_records, 1u);
    EXPECT_EQ(stats.cache_tape_replays, 1u);
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_TRUE(*shared[i] == runOne(specs[i])) << specKey(specs[i]);
}

TEST(Runner, JournalRoundTripsMultiJobResults)
{
    const std::string path = journalPath("pair");
    RunnerOptions options;
    options.jobs = 1;
    options.journal_path = path;
    const ExperimentSpec spec = pairSpec("pcc", 8.0);
    std::shared_ptr<const RunResult> first;
    {
        Runner writer(options);
        first = writer.run(spec);
        EXPECT_EQ(writer.stats().journal_appends, 1u);
    }
    Runner resumed(options);
    EXPECT_EQ(resumed.stats().journal_loaded, 1u);
    const auto second = resumed.run(spec);
    EXPECT_EQ(resumed.stats().simulated, 0u);
    ASSERT_EQ(second->jobs.size(), 2u);
    EXPECT_TRUE(*first == *second);
    std::remove(path.c_str());
}
