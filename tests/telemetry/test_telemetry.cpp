#include <gtest/gtest.h>

#include "sim/runner.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "telemetry/series.hpp"
#include "telemetry/trace.hpp"

using namespace pccsim;
using namespace pccsim::telemetry;

// ---------------------------------------------------------------- Registry

TEST(Registry, ProbesReadOnDemand)
{
    Registry reg;
    u64 external = 7;
    reg.probe("walks", [&external] { return external; });
    EXPECT_EQ(reg.read("walks"), 7u);
    external = 42; // no re-registration needed: probes read live state
    EXPECT_EQ(reg.read("walks"), 42u);
}

TEST(Registry, UnknownNamesReadZero)
{
    Registry reg;
    EXPECT_EQ(reg.read("never-registered"), 0u);
    EXPECT_FALSE(reg.has("never-registered"));
}

TEST(Registry, ReadAllSortsByName)
{
    Registry reg;
    reg.probe("c_probe", [] { return u64{3}; });
    reg.probe("a_probe", [] { return u64{1}; });
    reg.probe("b_probe", [] { return u64{2}; });
    const auto all = reg.readAll();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], (std::pair<std::string, u64>{"a_probe", 1}));
    EXPECT_EQ(all[1], (std::pair<std::string, u64>{"b_probe", 2}));
    EXPECT_EQ(all[2], (std::pair<std::string, u64>{"c_probe", 3}));
}

// ----------------------------------------------------------------- Sampler

TEST(IntervalSampler, CumulativeDeltasAndGaugeValues)
{
    Registry reg;
    u64 total = 0, level = 0;
    reg.probe("total", [&total] { return total; });
    reg.probe("level", [&level] { return level; });

    IntervalSampler sampler(reg);
    sampler.track("total", SampleKind::Cumulative);
    sampler.track("level", SampleKind::Gauge);

    total = 10; level = 3;
    sampler.sample();
    total = 25; level = 1;
    sampler.sample();
    total = 25; level = 8;
    sampler.sample();

    EXPECT_EQ(sampler.samplesTaken(), 3u);
    const SeriesSet &set = sampler.series();
    ASSERT_EQ(set.intervals(), 3u);
    const Series *t = set.find("total");
    const Series *l = set.find("level");
    ASSERT_TRUE(t && l);
    EXPECT_EQ(t->values, (std::vector<u64>{10, 15, 0}));
    EXPECT_EQ(l->values, (std::vector<u64>{3, 1, 8}));
}

TEST(IntervalSampler, EverySeriesHasOneValuePerSample)
{
    Registry reg;
    reg.probe("a", [] { return u64{1}; });
    reg.probe("b", [] { return u64{2}; });
    IntervalSampler sampler(reg);
    sampler.track("a", SampleKind::Cumulative);
    sampler.track("b", SampleKind::Gauge);
    for (int i = 0; i < 5; ++i)
        sampler.sample();
    for (const auto &series : sampler.series().all())
        EXPECT_EQ(series.values.size(), 5u) << series.name;
}

TEST(TopKChurnTracker, CountsNewEntrantsOnly)
{
    TopKChurnTracker tracker;
    EXPECT_EQ(tracker.update({3, 1, 2}), 3u);    // first set: all new
    EXPECT_EQ(tracker.update({1, 2, 3}), 0u);    // same set, any order
    EXPECT_EQ(tracker.update({2, 3, 4}), 1u);    // one new region
    EXPECT_EQ(tracker.update({9, 9, 9}), 1u);    // duplicates collapse
    EXPECT_EQ(tracker.update({}), 0u);           // empty head: no churn
    EXPECT_EQ(tracker.update({9}), 1u);          // 9 left with {} above
}

// ------------------------------------------------------------------ Tracer

TEST(EventTracer, UsesInstalledClockAndBoundsMemory)
{
    EventTracer tracer(/*max_events=*/2);
    u64 now = 100;
    tracer.setClock([&now] { return now; });
    tracer.record(EventKind::Promotion, 1, 0x200000, 2u << 20, 0);
    now = 250;
    tracer.record(EventKind::Demotion, 1, 0x200000, 2u << 20, 0);
    tracer.record(EventKind::Shootdown, 1); // over the cap: dropped
    tracer.record(EventKind::Reclaim);

    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].ts, 100u);
    EXPECT_EQ(tracer.events()[0].kind, EventKind::Promotion);
    EXPECT_EQ(tracer.events()[1].ts, 250u);
    EXPECT_EQ(tracer.dropped(), 2u);
}

TEST(EventTracer, GoldenChromeTraceShape)
{
    // The exact wire shape chrome://tracing consumes; any change here
    // is a compatibility break, so compare the full document.
    std::vector<Event> events;
    events.push_back(
        {120, EventKind::Promotion, 1, 0x200000, 2u << 20, 3});
    events.push_back({340, EventKind::Interval, 0, 0, 0, 7});

    const std::string got =
        EventTracer::chromeTrace(events, /*dropped=*/5).dump();
    const std::string want =
        "{\"traceEvents\":["
        "{\"name\":\"promotion\",\"cat\":\"os\",\"ph\":\"i\","
        "\"s\":\"p\",\"ts\":120,\"pid\":1,\"tid\":0,"
        "\"args\":{\"addr\":\"0x200000\",\"bytes\":2097152,\"arg\":3}},"
        "{\"name\":\"interval\",\"cat\":\"sim\",\"ph\":\"i\","
        "\"s\":\"p\",\"ts\":340,\"pid\":0,\"tid\":0,"
        "\"args\":{\"arg\":7}}],"
        "\"displayTimeUnit\":\"ms\","
        "\"otherData\":{\"clock\":\"simulated-accesses\","
        "\"events_dropped\":5}}";
    EXPECT_EQ(got, want);
}

TEST(SeriesSet, JsonShapeMatchesCheckScript)
{
    SeriesSet set;
    set.append("walks", 10);
    set.append("walks", 20);
    set.append("occupancy", 4);
    set.append("occupancy", 4);
    EXPECT_EQ(set.toJson().dump(),
              "{\"intervals\":2,\"series\":"
              "{\"walks\":[10,20],\"occupancy\":[4,4]}}");
}

// ------------------------------------------------------- System integration

namespace {

sim::ExperimentSpec
telemetrySpec(const std::string &workload, bool enabled,
              sim::PolicyKind policy = sim::PolicyKind::Pcc)
{
    sim::ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    spec.policy = policy;
    spec.cap_percent = 25.0;
    spec.frag_fraction = 0.3;
    spec.telemetry.enabled = enabled;
    return spec;
}

} // namespace

TEST(SystemTelemetry, DisabledRunsAttachNoReport)
{
    const auto result = sim::runOne(telemetrySpec("bfs", false));
    EXPECT_EQ(result.telemetry, nullptr);
}

TEST(SystemTelemetry, SeriesLengthsMatchIntervalCount)
{
    const auto result = sim::runOne(telemetrySpec("bfs", true));
    ASSERT_NE(result.telemetry, nullptr);
    const auto &report = *result.telemetry;
    EXPECT_GT(result.intervals, 0u);
    EXPECT_EQ(report.intervals, result.intervals);
    EXPECT_FALSE(report.series.all().empty());
    for (const auto &series : report.series.all()) {
        EXPECT_EQ(series.values.size(), result.intervals)
            << series.name;
    }
    // The core sampled sources all exist.
    for (const char *name :
         {"walks", "l1_hits", "l2_hits", "promotions", "compactions",
          "shootdowns", "pcc_topk_churn", "pcc_occupancy",
          "job0_cycles"}) {
        EXPECT_NE(report.series.find(name), nullptr) << name;
    }
    // Final counters cover every registered source and carry the
    // run's end-of-run totals.
    EXPECT_FALSE(report.counters.empty());
    u64 walks_total = 0;
    for (const auto &[name, value] : report.counters)
        if (name == "walks")
            walks_total = value;
    EXPECT_EQ(walks_total, result.job().walks);
}

TEST(SystemTelemetry, CollectionDoesNotPerturbTheSimulation)
{
    const auto off = sim::runOne(telemetrySpec("bfs", false));
    const auto on = sim::runOne(telemetrySpec("bfs", true));
    // Every simulation metric is bit-identical; only the attached
    // report differs.
    EXPECT_EQ(off.total_accesses, on.total_accesses);
    EXPECT_EQ(off.wall_cycles, on.wall_cycles);
    EXPECT_EQ(off.intervals, on.intervals);
    EXPECT_EQ(off.compactions, on.compactions);
    ASSERT_EQ(off.jobs.size(), on.jobs.size());
    for (size_t i = 0; i < off.jobs.size(); ++i) {
        EXPECT_EQ(off.jobs[i].wall_cycles, on.jobs[i].wall_cycles);
        EXPECT_EQ(off.jobs[i].walks, on.jobs[i].walks);
        EXPECT_EQ(off.jobs[i].promotions, on.jobs[i].promotions);
    }
}

TEST(SystemTelemetry, TraceEventsUseTheSimulatedClock)
{
    auto spec = telemetrySpec("bfs", true);
    const auto result = sim::runOne(spec);
    ASSERT_NE(result.telemetry, nullptr);
    const auto &events = result.telemetry->events;
    ASSERT_FALSE(events.empty());
    // Timestamps are monotonically non-decreasing simulated accesses,
    // bounded by the run length.
    u64 prev = 0;
    u64 interval_markers = 0;
    for (const auto &event : events) {
        EXPECT_GE(event.ts, prev);
        EXPECT_LE(event.ts, result.total_accesses);
        prev = event.ts;
        if (event.kind == EventKind::Interval)
            ++interval_markers;
    }
    EXPECT_EQ(interval_markers, result.intervals);
    EXPECT_EQ(result.telemetry->events_dropped, 0u);

    // trace_events=false still samples series but keeps no event log.
    spec.telemetry.trace_events = false;
    const auto quiet = sim::runOne(spec);
    ASSERT_NE(quiet.telemetry, nullptr);
    EXPECT_TRUE(quiet.telemetry->events.empty());
    EXPECT_FALSE(quiet.telemetry->series.all().empty());
}

TEST(SystemTelemetry, SerialAndParallelRunnersAgreeOnTelemetry)
{
    std::vector<sim::ExperimentSpec> specs;
    specs.push_back(telemetrySpec("bfs", true));
    specs.push_back(telemetrySpec("pr", true, sim::PolicyKind::LinuxThp));
    auto faulty = telemetrySpec("bfs", true);
    faulty.tweak = [](sim::SystemConfig &cfg) {
        cfg.faults.alloc_fail_huge = 0.3;
        cfg.faults.compaction_fail = 0.25;
        cfg.faults.shootdown_storm = 0.1;
        cfg.faults.shock_intervals = {2, 5};
    };
    faulty.tweak_key = "storm";
    specs.push_back(std::move(faulty));

    sim::Runner serial(1);
    sim::Runner parallel(4);
    const auto a = serial.runMany(specs);
    const auto b = parallel.runMany(specs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(a[i]->telemetry, nullptr) << i;
        ASSERT_NE(b[i]->telemetry, nullptr) << i;
        // RunResult equality includes the report contents...
        EXPECT_TRUE(*a[i] == *b[i]) << "spec " << i;
        // ...but check the report explicitly too, so a failure points
        // at telemetry rather than at the simulation.
        EXPECT_TRUE(*a[i]->telemetry == *b[i]->telemetry)
            << "telemetry diverged across job counts for spec " << i;
    }
}

TEST(SystemTelemetry, MemoKeyDistinguishesTelemetrySettings)
{
    const auto off = telemetrySpec("bfs", false);
    const auto on = telemetrySpec("bfs", true);
    EXPECT_NE(sim::specKey(off), sim::specKey(on));
    auto quiet = on;
    quiet.telemetry.trace_events = false;
    EXPECT_NE(sim::specKey(on), sim::specKey(quiet));
}

TEST(TelemetryReport, SeriesJsonCarriesTopLevelKeys)
{
    const auto result = sim::runOne(telemetrySpec("bfs", true));
    ASSERT_NE(result.telemetry, nullptr);
    const std::string doc = result.telemetry->seriesJson().dump();
    for (const char *key :
         {"\"intervals\":", "\"series\":", "\"counters\":",
          "\"events\":", "\"events_dropped\":"}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
    const std::string trace = result.telemetry->traceJson().dump();
    for (const char *key :
         {"\"traceEvents\":", "\"displayTimeUnit\":", "\"otherData\":"}) {
        EXPECT_NE(trace.find(key), std::string::npos) << key;
    }
}
