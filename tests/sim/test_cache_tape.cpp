/**
 * Shared data-cache work (sim/cache_tape.hpp): every result a Runner
 * produces while recording or replaying cache tapes must equal a
 * standalone run of the same spec, and a tape that does not match its
 * run must be refused, never trusted.
 */

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "os/policy_registry.hpp"
#include "sim/fuzz.hpp"
#include "sim/runner.hpp"
#include "tlb/hw_registry.hpp"
#include "workloads/registry.hpp"

using namespace pccsim;
using namespace pccsim::sim;

namespace {

ExperimentSpec
ciSpec(const std::string &workload, PolicyKind policy, double cap = -1.0,
       u32 lanes = 1)
{
    ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    spec.lanes = lanes;
    spec.policy = policy;
    spec.cap_percent = cap;
    return spec;
}

/** The policy siblings a sweep runs on one stream. */
std::vector<ExperimentSpec>
siblings(const ExperimentSpec &spec)
{
    std::vector<ExperimentSpec> out;
    for (PolicyKind policy : {PolicyKind::Base, PolicyKind::Pcc,
                              PolicyKind::LinuxThp, PolicyKind::HawkEye}) {
        ExperimentSpec s = spec;
        s.policy = policy;
        s.cap_percent = policy == PolicyKind::Base ? 0.0 : 25.0;
        out.push_back(std::move(s));
    }
    return out;
}

/** Run `specs` one by one in a shared Runner; each must match runOne. */
Runner::Stats
expectSharedMatchesStandalone(const std::vector<ExperimentSpec> &specs,
                              u32 jobs = 1)
{
    Runner runner(jobs);
    const auto shared = runner.runMany(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(*shared[i] == runOne(specs[i]))
            << "spec " << i << ": " << specKey(specs[i]);
    }
    return runner.stats();
}

/** A store holding exactly one tape, recorded by `spec`. */
std::string
recordOne(CacheTapeStore &store, const ExperimentSpec &spec)
{
    runOne(spec, nullptr, nullptr, &store);
    const auto keys = store.keys();
    EXPECT_EQ(keys.size(), 1u);
    return keys.empty() ? std::string() : keys.front();
}

/**
 * perfbench graph-sweep's request list at ci: per app, base-4k paired
 * with all-huge, pcc and a 2-entry pcc, so base-4k repeats. Eight
 * distinct runs on two (stream, cache config) keys.
 */
std::vector<ExperimentSpec>
graphSweepRequests()
{
    std::vector<ExperimentSpec> specs;
    for (const char *app : {"bfs", "pr"}) {
        const ExperimentSpec base = ciSpec(app, PolicyKind::Base, 0.0);
        const ExperimentSpec pcc = ciSpec(app, PolicyKind::Pcc, 32.0);
        ExperimentSpec pcc2 = pcc;
        pcc2.tweak = [](SystemConfig &cfg) { cfg.pcc.pcc2m.entries = 2; };
        pcc2.tweak_key = "pcc2m=2";
        for (const ExperimentSpec &variant :
             {ciSpec(app, PolicyKind::AllHuge), pcc, pcc2}) {
            specs.push_back(base);
            specs.push_back(variant);
        }
    }
    return specs;
}

/** Poll `done` for up to a minute; false if it never held. */
template <typename Pred>
bool
eventually(Pred done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/**
 * A workload that parks its first batch until opened: a run on it
 * holds its tape claim, mid-recording, for as long as a test needs.
 */
class GatedWorkload : public workloads::Workload
{
  public:
    explicit GatedWorkload(workloads::WorkloadPtr inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    void setup(os::Process &proc) override { inner_->setup(proc); }
    u64 footprintBytes() const override { return inner_->footprintBytes(); }

    Generator<workloads::BatchEnd>
    batchLane(u32 lane, u32 num_lanes,
              workloads::AccessBuffer &buf) override
    {
        auto inner = inner_->batchLane(lane, num_lanes, buf);
        bool first = true;
        while (inner.next()) {
            if (std::exchange(first, false)) {
                parked.store(true);
                while (!opened.load())
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            co_yield inner.value();
        }
    }

    std::atomic<bool> parked{false};
    std::atomic<bool> opened{false};

  private:
    workloads::WorkloadPtr inner_;
};

} // namespace

TEST(CacheTape, EveryPolicyAndHwBackendMatchesStandalone)
{
    const ExperimentSpec base = ciSpec("bfs", PolicyKind::Base, 0.0);
    std::vector<ExperimentSpec> specs{base};
    for (const auto &entry : os::PolicyRegistry::instance().entries()) {
        if (!entry.sweepable)
            continue;
        ExperimentSpec s = ciSpec("bfs", PolicyKind::Base, 8.0);
        ASSERT_TRUE(applyPolicySelector(s, entry.key).ok()) << entry.key;
        specs.push_back(std::move(s));
    }
    size_t hw_backends = 0;
    for (const auto &entry : tlb::HwRegistry::instance().entries()) {
        ExperimentSpec s = ciSpec("bfs", PolicyKind::Pcc, 8.0);
        s.hw = entry.key;
        specs.push_back(std::move(s));
        ++hw_backends;
    }
    // A plain run after the backends: it must replay the plain tape,
    // not the victima-reach one.
    specs.push_back(ciSpec("bfs", PolicyKind::HawkEye, 16.0));
    ASSERT_GE(specs.size(), 8u);
    ASSERT_GE(hw_backends, 2u);

    const Runner::Stats st = expectSharedMatchesStandalone(specs);
    // victima-reach borrows L2 data-cache ways, so it keys its own
    // tape; every other run shares the plain one.
    EXPECT_EQ(st.cache_tape_records, 2u);
    EXPECT_EQ(st.cache_tape_replays, st.simulated - 2);
    EXPECT_GT(st.cache_tape_bytes, 0u);
}

TEST(CacheTape, VictimaReachTapeNeverServesAPlainRun)
{
    ExperimentSpec victima = ciSpec("pr", PolicyKind::Pcc, 8.0);
    victima.hw = "victima-reach";
    const ExperimentSpec plain = ciSpec("pr", PolicyKind::Pcc, 8.0);
    const Runner::Stats st =
        expectSharedMatchesStandalone({victima, plain});
    EXPECT_EQ(st.cache_tape_records, 2u);
    EXPECT_EQ(st.cache_tape_replays, 0u);
}

TEST(CacheTape, MultiLaneGraphRunsWithBarriersMatchStandalone)
{
    for (const char *app : {"bfs", "pr"}) {
        const Runner::Stats st = expectSharedMatchesStandalone(
            siblings(ciSpec(app, PolicyKind::Base, 0.0, 4)));
        EXPECT_EQ(st.cache_tape_records, 1u) << app;
        EXPECT_EQ(st.cache_tape_replays, 3u) << app;
    }
}

TEST(CacheTape, ParallelRunnerMatchesStandalone)
{
    std::vector<ExperimentSpec> specs =
        siblings(ciSpec("bfs", PolicyKind::Base));
    for (ExperimentSpec &s : siblings(ciSpec("mcf", PolicyKind::Base)))
        specs.push_back(std::move(s));
    const Runner::Stats st = expectSharedMatchesStandalone(specs, 4);
    // Recording is single-flight: one run per stream records, whatever
    // the timing, and every other run replays.
    EXPECT_EQ(st.cache_tape_records, 2u);
    EXPECT_EQ(st.cache_tape_replays, 6u);
}

TEST(CacheTape, TelemetrySeriesAndAuditMatchStandalone)
{
    ExperimentSpec spec = ciSpec("bfs", PolicyKind::Base);
    spec.telemetry.enabled = true;
    spec.telemetry.trace_events = true;
    spec.telemetry.attribution = true;
    spec.telemetry.audit = true;
    spec.interval_accesses = 20'000; // many series rows
    const Runner::Stats st = expectSharedMatchesStandalone(siblings(spec));
    EXPECT_EQ(st.cache_tape_replays, 3u);
}

TEST(CacheTape, TailHistogramRunsNeitherRecordNorReplay)
{
    ExperimentSpec spec = ciSpec("mcf", PolicyKind::Base);
    spec.telemetry.enabled = true;
    spec.telemetry.histograms = true;
    const Runner::Stats st = expectSharedMatchesStandalone(siblings(spec));
    EXPECT_EQ(st.cache_tape_records, 0u);
    EXPECT_EQ(st.cache_tape_replays, 0u);
}

TEST(CacheTape, IneligibleEnginesNeitherRecordNorReplay)
{
    const auto tweaked = [](std::string key,
                            std::function<void(SystemConfig &)> tweak) {
        ExperimentSpec spec = ciSpec("mcf", PolicyKind::Base);
        spec.tweak = std::move(tweak);
        spec.tweak_key = std::move(key);
        return siblings(spec);
    };
    for (const auto &specs :
         {tweaked("scalar", [](SystemConfig &c) { c.batch_engine = false; }),
          tweaked("tenant", [](SystemConfig &c) { c.tenant.cores = 1; }),
          tweaked("ptdc", [](SystemConfig &c) {
              c.timing.pt_through_dcache = true;
          })}) {
        const Runner::Stats st = expectSharedMatchesStandalone(specs);
        EXPECT_EQ(st.cache_tape_records, 0u) << specs[0].tweak_key;
        EXPECT_EQ(st.cache_tape_replays, 0u) << specs[0].tweak_key;
    }
}

TEST(CacheTape, SampledRunsMatchStandalone)
{
    ExperimentSpec spec = ciSpec("bfs", PolicyKind::Base);
    spec.sampling.window = 10'000;
    spec.sampling.fastforward = 30'000;
    const Runner::Stats st = expectSharedMatchesStandalone(siblings(spec));
    EXPECT_EQ(st.cache_tape_replays, 3u);

    // An exact run of the same stream has other segments: it must not
    // replay the sampled tape.
    Runner runner(1);
    runner.run(spec);
    const ExperimentSpec exact = ciSpec("bfs", PolicyKind::Base);
    EXPECT_TRUE(*runner.run(exact) == runOne(exact));
    EXPECT_EQ(runner.stats().cache_tape_records, 2u);
}

TEST(CacheTape, FaultInjectionAndShocksMatchStandalone)
{
    ExperimentSpec spec = ciSpec("bfs", PolicyKind::Base);
    spec.frag_fraction = 0.3;
    spec.faults.alloc_fail_huge = 0.3;
    spec.faults.compaction_fail = 0.25;
    spec.faults.shootdown_storm = 0.1;
    spec.faults.shock_intervals = {2, 5};
    spec.check_invariants = true;
    const Runner::Stats st = expectSharedMatchesStandalone(siblings(spec));
    EXPECT_EQ(st.cache_tape_replays, 3u);
}

TEST(CacheTape, CorruptedSegmentThrowsAndIsDropped)
{
    const ExperimentSpec spec = ciSpec("mcf", PolicyKind::Pcc, 8.0);
    const RunResult standalone = runOne(spec);

    using Corrupt = void (*)(CacheTape &);
    const Corrupt corruptions[] = {
        [](CacheTape &t) { t.cores[0][t.cores[0].size() / 2].fingerprint ^= 1; },
        [](CacheTape &t) { ++t.cores[0].front().length; },
        [](CacheTape &t) { t.cores[0].pop_back(); },
        [](CacheTape &t) { t.cores[0].push_back(t.cores[0].back()); },
    };
    for (const Corrupt corrupt : corruptions) {
        CacheTapeStore store;
        const std::string key = recordOne(store, spec);
        auto bad = std::make_shared<CacheTape>(*store.find(key));
        ASSERT_GT(bad->cores.at(0).size(), 1u);
        corrupt(*bad);
        store.drop(key, store.find(key).get());
        store.publish(key, bad);
        ASSERT_EQ(store.find(key), bad);

        EXPECT_THROW(runOne(spec, nullptr, nullptr, &store),
                     CacheTapeMismatch);
        EXPECT_EQ(store.find(key), nullptr);
        EXPECT_EQ(store.stats().replays, 0u);

        // The next run records a sound tape again.
        EXPECT_TRUE(runOne(spec, nullptr, nullptr, &store) == standalone);
        ASSERT_NE(store.find(key), nullptr);
        EXPECT_TRUE(runOne(spec, nullptr, nullptr, &store) == standalone);
        EXPECT_EQ(store.stats().replays, 1u);
    }
}

TEST(CacheTape, MiscountMutationDriftsOnlyReplayingRuns)
{
    ExperimentSpec spec = ciSpec("mcf", PolicyKind::Pcc, 8.0);
    spec.mutation = HotPathMutation::TapeMiscount;
    CacheTapeStore store;
    const RunResult standalone = runOne(spec);
    EXPECT_TRUE(runOne(spec, nullptr, nullptr, &store) == standalone);
    const RunResult replayed = runOne(spec, nullptr, nullptr, &store);
    EXPECT_EQ(replayed.wall_cycles, standalone.wall_cycles + 1);
}

TEST(CacheTape, FuzzSharingGateCatchesAndShrinksTheMiscount)
{
    FuzzSpec planted;
    planted.ops = 40'000;
    planted.seed = 7;
    planted.mutation = HotPathMutation::TapeMiscount;
    const auto failure = checkSpec(planted, 2);
    ASSERT_TRUE(failure.has_value());
    EXPECT_EQ(failure->kind, "sharing");
    const FuzzSpec small = shrink(planted, 2);
    EXPECT_LE(small.ops, planted.ops / 8);
    const auto still = checkSpec(small, 2);
    ASSERT_TRUE(still.has_value());
    EXPECT_EQ(still->kind, "sharing");

    // Without the planted bug the same spec passes every gate.
    planted.mutation = HotPathMutation::None;
    EXPECT_FALSE(checkSpec(planted, 2).has_value());
}

TEST(CacheTapeStore, EvictsOldestFirstWithinItsBudget)
{
    const size_t per_tape = CacheTapeStore::kBudgetBytes * 2 / 5;
    const auto tapeOf = [](size_t bytes) {
        auto tape = std::make_shared<CacheTape>();
        tape->cores.resize(1);
        tape->cores[0].resize(bytes / sizeof(CacheTapeSegment));
        tape->cores[0].shrink_to_fit();
        return tape;
    };
    CacheTapeStore store;
    store.publish("a", tapeOf(per_tape));
    store.publish("b", tapeOf(per_tape));
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"a", "b"}));
    // A third tape overflows the budget: the oldest goes.
    store.publish("c", tapeOf(per_tape));
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"b", "c"}));
    EXPECT_EQ(store.find("a"), nullptr);
    EXPECT_LE(store.stats().bytes, CacheTapeStore::kBudgetBytes);
    EXPECT_EQ(store.stats().records, 3u);

    // A key already held keeps its first tape.
    const auto held = store.find("b");
    store.publish("b", tapeOf(64));
    EXPECT_EQ(store.find("b"), held);

    // A tape larger than the whole budget is never kept.
    store.publish("huge", tapeOf(CacheTapeStore::kBudgetBytes + 4096));
    EXPECT_EQ(store.find("huge"), nullptr);
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"b", "c"}));
}

TEST(SingleFlight, ParallelRunnersRecordEachKeyOnce)
{
    const std::vector<ExperimentSpec> specs = graphSweepRequests();
    Runner serial(1);
    const auto expect = serial.runMany(specs);
    ASSERT_EQ(serial.stats().simulated, 8u);
    EXPECT_EQ(serial.stats().cache_tape_records, 2u);
    EXPECT_EQ(serial.stats().cache_tape_waits, 0u);
    for (const u32 jobs : {2u, 4u}) {
        for (int round = 0; round < 3; ++round) {
            Runner runner(jobs);
            const auto got = runner.runMany(specs);
            for (size_t i = 0; i < specs.size(); ++i) {
                EXPECT_TRUE(*got[i] == *expect[i])
                    << jobs << " workers, round " << round << ", spec " << i;
            }
            const Runner::Stats st = runner.stats();
            ASSERT_EQ(st.simulated, 8u);
            EXPECT_EQ(st.cache_tape_records, 2u) << jobs << " workers";
            EXPECT_EQ(st.cache_tape_replays, 6u) << jobs << " workers";
            EXPECT_LE(st.cache_tape_waits, 6u) << jobs << " workers";
        }
    }
}

TEST(SingleFlight, StoreHandsAnAbandonedClaimToItsWaiter)
{
    CacheTapeStore store;
    auto tape = std::make_shared<CacheTape>();
    tape->cores.resize(1);

    std::atomic<bool> abandon{false};
    std::thread recorder([&] {
        try {
            CacheTapeStore::Lease lease = store.acquire("k", true);
            ASSERT_TRUE(lease.claim);
            // Held: a run that may not wait gets nothing to replay and
            // no claim.
            const CacheTapeStore::Lease other = store.acquire("k", false);
            EXPECT_FALSE(other.tape);
            EXPECT_FALSE(other.claim);
            while (!abandon.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            throw std::runtime_error("recorder failed");
        } catch (const std::runtime_error &) {
        }
    });
    CacheTapeStore::Lease waited;
    std::thread waiter([&] { waited = store.acquire("k", true); });
    EXPECT_TRUE(eventually([&] { return store.stats().waits == 1; }));
    abandon.store(true);
    recorder.join();
    waiter.join();

    // The waiter took the claim over; its publish serves the next run.
    EXPECT_FALSE(waited.tape);
    ASSERT_TRUE(waited.claim);
    store.publish("k", tape, std::move(waited.claim));
    EXPECT_FALSE(waited.claim);
    const CacheTapeStore::Lease replay = store.acquire("k", true);
    EXPECT_EQ(replay.tape, tape);
    EXPECT_FALSE(replay.claim);
    EXPECT_EQ(store.stats().records, 1u);
    EXPECT_EQ(store.stats().waits, 1u);
}

TEST(SingleFlight, WaiterRecordsWhenItsRecorderThrowsOrIsCancelled)
{
    // The recorder diverges under the oracle or is cancelled while its
    // sibling waits; the oracle is not part of the tape key, and the
    // planted bug it catches does not change the cache stream.
    ExperimentSpec spec = ciSpec("syn:uniform:8:200000:1", PolicyKind::Base,
                                 0.0);
    spec.mutation = HotPathMutation::SkipL2Fill;
    const RunResult standalone = runOne(spec);

    for (const bool cancelled : {false, true}) {
        SCOPED_TRACE(cancelled ? "cancelled" : "diverged");
        ExperimentSpec recorder_spec = spec;
        recorder_spec.oracle.enabled = !cancelled;
        recorder_spec.oracle.sample_every = 1;
        std::atomic<bool> cancel{false};
        SystemConfig recorder_cfg = configFor(recorder_spec);
        if (cancelled)
            recorder_cfg.cancel = &cancel;

        CacheTapeStore store;
        GatedWorkload gated(workloads::makeWorkload(spec.workload));
        std::exception_ptr recorder_error;
        std::thread recorder([&] {
            try {
                System system(recorder_cfg);
                system.run(gated, 1, &store, workloadKey(spec));
            } catch (...) {
                recorder_error = std::current_exception();
            }
        });
        RunResult waited;
        std::thread waiter;
        if (eventually([&] { return gated.parked.load(); })) {
            waiter = std::thread([&] {
                waited = runOne(spec, nullptr, nullptr, &store);
            });
        }
        EXPECT_TRUE(eventually([&] { return store.stats().waits == 1; }));
        cancel.store(true);
        gated.opened.store(true);
        recorder.join();
        if (waiter.joinable())
            waiter.join();

        ASSERT_TRUE(recorder_error);
        try {
            std::rethrow_exception(recorder_error);
        } catch (const CancelledError &) {
            EXPECT_TRUE(cancelled);
        } catch (const OracleError &) {
            EXPECT_FALSE(cancelled);
        }
        EXPECT_TRUE(waited == standalone);
        EXPECT_EQ(store.stats().records, 1u);
        EXPECT_EQ(store.keys().size(), 1u);
    }
}

TEST(SingleFlight, WatchedAttemptsNeverWait)
{
    const std::vector<ExperimentSpec> specs =
        siblings(ciSpec("mcf", PolicyKind::Base));
    RunnerOptions options;
    options.jobs = 4;
    Runner plain(options);
    const auto expect = plain.runManyGuarded(specs);
    EXPECT_EQ(plain.stats().cache_tape_records, 1u);
    EXPECT_EQ(plain.stats().cache_tape_replays, 3u);

    // A deadline makes every attempt watched; it never fires here.
    options.deadline_ms = 600'000;
    Runner watched(options);
    const auto outcomes = watched.runManyGuarded(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok()) << i << ": " << outcomes[i].message;
        ASSERT_TRUE(expect[i].ok());
        EXPECT_TRUE(*outcomes[i].result == *expect[i].result) << i;
    }
    const Runner::Stats st = watched.stats();
    EXPECT_EQ(st.cache_tape_waits, 0u);
    // Siblings that started while the first held the claim recorded
    // unclaimed; only the first tape is kept.
    EXPECT_EQ(st.cache_tape_records, 1u);
}
