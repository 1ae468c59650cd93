#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "sim/runner.hpp"
#include "telemetry/report.hpp"
#include "telemetry/tail.hpp"

using namespace pccsim;
using namespace pccsim::telemetry;

// ------------------------------------------------------ LatencyHistogram

TEST(LatencyHistogram, BucketIndexAndLowerBoundRoundTrip)
{
    // Every bucket's lower bound maps back to its own index, and a
    // value is never below the lower bound of its bucket.
    for (u32 i = 0; i < LatencyHistogram::kBuckets; ++i)
        EXPECT_EQ(LatencyHistogram::indexOf(LatencyHistogram::bucketLow(i)),
                  i);
    for (u64 v : {0ull, 1ull, 15ull, 16ull, 17ull, 31ull, 32ull, 1000ull,
                  123456789ull, ~0ull}) {
        const u32 idx = LatencyHistogram::indexOf(v);
        EXPECT_LE(LatencyHistogram::bucketLow(idx), v) << v;
        if (idx + 1 < LatencyHistogram::kBuckets) {
            EXPECT_LT(v, LatencyHistogram::bucketLow(idx + 1)) << v;
        }
    }
}

TEST(LatencyHistogram, QuantilesMatchExactSortedReferenceWithinOneBucket)
{
    // Mixed-magnitude stream: exact small values, mid-range, and
    // multi-million-cycle outliers, so every octave regime is hit.
    std::mt19937_64 rng(42);
    LatencyHistogram hist;
    std::vector<u64> values;
    for (int i = 0; i < 10000; ++i) {
        const u64 band = rng() % 3;
        const u64 v = band == 0   ? rng() % 16
                      : band == 1 ? 1000 + rng() % 5000
                                  : 1'000'000 + rng() % 9'000'000;
        values.push_back(v);
        hist.record(v);
    }
    std::sort(values.begin(), values.end());

    u64 exact_sum = 0;
    for (u64 v : values)
        exact_sum += v;
    EXPECT_EQ(hist.count(), values.size());
    EXPECT_EQ(hist.sum(), exact_sum);
    EXPECT_EQ(hist.minValue(), values.front());
    EXPECT_EQ(hist.maxValue(), values.back());

    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const auto rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const u64 exact = values[rank - 1];
        const u64 approx = hist.quantile(q);
        // Same rank convention on both sides: the answer is the lower
        // bound of (at worst a neighbor of) the exact value's bucket,
        // i.e. within one log-linear bucket (<= 6.25% relative error).
        EXPECT_LE(approx, exact) << "q=" << q;
        const int exact_idx =
            static_cast<int>(LatencyHistogram::indexOf(exact));
        const int approx_idx =
            static_cast<int>(LatencyHistogram::indexOf(approx));
        EXPECT_LE(std::abs(exact_idx - approx_idx), 1) << "q=" << q;
    }
}

TEST(LatencyHistogram, MergeIsAssociativeCommutativeAndLossless)
{
    std::mt19937_64 rng(7);
    LatencyHistogram a, b, c, concat;
    for (int i = 0; i < 1000; ++i) {
        const u64 v = rng() % 100000;
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
        concat.record(v);
    }

    LatencyHistogram left = a; // (a + b) + c
    left.merge(b);
    left.merge(c);
    LatencyHistogram bc = b; // a + (b + c)
    bc.merge(c);
    LatencyHistogram right = a;
    right.merge(bc);
    LatencyHistogram reversed = c; // c + b + a
    reversed.merge(b);
    reversed.merge(a);

    EXPECT_TRUE(left == right);
    EXPECT_TRUE(left == reversed);
    EXPECT_TRUE(left == concat);
    EXPECT_EQ(left.toJson().dump(), concat.toJson().dump());

    // Merging an empty histogram is the identity.
    LatencyHistogram copy = concat;
    copy.merge(LatencyHistogram{});
    EXPECT_TRUE(copy == concat);
}

// ------------------------------------------------------ ExemplarReservoir

namespace {

Exemplar
exemplarAt(u64 ts, Cycles cycles)
{
    Exemplar e;
    e.ts = ts;
    e.cycles = cycles;
    return e;
}

} // namespace

TEST(ExemplarReservoir, KeepsWorstKOrderedWithEarliestArrivalOnTies)
{
    ExemplarReservoir res(3);
    const u64 metrics[] = {5, 1, 9, 5, 7, 9, 2};
    for (u64 ts = 0; ts < std::size(metrics); ++ts)
        res.offer(exemplarAt(ts, metrics[ts]), metrics[ts]);

    ASSERT_EQ(res.worst().size(), 3u);
    // Worst-first; the two 9s keep arrival order (ts=2 before ts=5).
    EXPECT_EQ(res.worst()[0].cycles, 9u);
    EXPECT_EQ(res.worst()[0].ts, 2u);
    EXPECT_EQ(res.worst()[1].cycles, 9u);
    EXPECT_EQ(res.worst()[1].ts, 5u);
    EXPECT_EQ(res.worst()[2].cycles, 7u);
    EXPECT_EQ(res.worst()[2].ts, 4u);
}

TEST(ExemplarReservoir, FullReservoirRejectsTiesWithTheIncumbent)
{
    ExemplarReservoir res(1);
    res.offer(exemplarAt(0, 5), 5);
    res.offer(exemplarAt(1, 5), 5); // tie: the incumbent stays
    ASSERT_EQ(res.worst().size(), 1u);
    EXPECT_EQ(res.worst()[0].ts, 0u);
    res.offer(exemplarAt(2, 6), 6); // strictly worse access evicts
    ASSERT_EQ(res.worst().size(), 1u);
    EXPECT_EQ(res.worst()[0].ts, 2u);
}

// ------------------------------------------------------- System integration

namespace {

sim::ExperimentSpec
tailSpec(const std::string &workload, bool histograms,
         sim::PolicyKind policy = sim::PolicyKind::Pcc)
{
    sim::ExperimentSpec spec;
    spec.workload.name = workload;
    spec.workload.scale = workloads::Scale::Ci;
    spec.policy = policy;
    spec.cap_percent = 25.0;
    spec.frag_fraction = 0.3;
    spec.telemetry.enabled = true;
    spec.telemetry.histograms = histograms;
    return spec;
}

sim::ExperimentSpec
faultStormSpec()
{
    auto spec = tailSpec("bfs", true);
    spec.tweak = [](sim::SystemConfig &cfg) {
        cfg.faults.alloc_fail_huge = 0.3;
        cfg.faults.compaction_fail = 0.25;
        cfg.faults.shootdown_storm = 0.1;
        cfg.faults.shock_intervals = {2, 5};
    };
    spec.tweak_key = "storm";
    return spec;
}

} // namespace

TEST(TailTelemetry, ReportCoversEveryAccessAndSlicesAddUp)
{
    const auto result = sim::runOne(tailSpec("bfs", true));
    ASSERT_NE(result.telemetry, nullptr);
    const TailReport &tail = result.telemetry->tail;
    ASSERT_TRUE(tail.enabled);
    EXPECT_EQ(tail.total.translation.count(), result.total_accesses);
    EXPECT_GT(tail.total.walk.count(), 0u);
    EXPECT_GT(tail.total.stall.count(), 0u); // first touches fault

    // The total slice is exactly the merge of the per-core slices and
    // of the per-job slices.
    LatencyHistogram cores, jobs;
    for (const auto &slice : tail.per_core)
        cores.merge(slice.translation);
    for (const auto &slice : tail.per_job)
        jobs.merge(slice.translation);
    EXPECT_TRUE(cores == tail.total.translation);
    EXPECT_TRUE(jobs == tail.total.translation);

    // Exemplars: bounded by K, worst-first, and self-consistent.
    ASSERT_GT(tail.exemplar_k, 0u);
    ASSERT_FALSE(tail.worst_translation.empty());
    EXPECT_LE(tail.worst_translation.size(), tail.exemplar_k);
    for (size_t i = 1; i < tail.worst_translation.size(); ++i)
        EXPECT_GE(tail.worst_translation[i - 1].cycles,
                  tail.worst_translation[i].cycles);
    EXPECT_EQ(tail.worst_translation[0].cycles,
              tail.total.translation.maxValue());

    // The windowed p99 series exists and covers every interval.
    const Series *p99 = result.telemetry->series.find("tail_p99_cycles");
    ASSERT_NE(p99, nullptr);
    EXPECT_EQ(p99->values.size(), result.intervals);
}

TEST(TailTelemetry, SerialAndParallelRunnersAgreeByteForByte)
{
    std::vector<sim::ExperimentSpec> specs;
    specs.push_back(tailSpec("bfs", true));
    specs.push_back(tailSpec("pr", true, sim::PolicyKind::LinuxThp));
    specs.push_back(faultStormSpec());

    sim::Runner serial(1);
    sim::Runner parallel(4);
    const auto a = serial.runMany(specs);
    const auto b = parallel.runMany(specs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(a[i]->telemetry, nullptr) << i;
        ASSERT_NE(b[i]->telemetry, nullptr) << i;
        EXPECT_TRUE(*a[i] == *b[i]) << "spec " << i;
        EXPECT_TRUE(a[i]->telemetry->tail == b[i]->telemetry->tail)
            << "tail report diverged across job counts for spec " << i;
        // The serialized form — what the exports and gates diff — is
        // byte-identical too.
        EXPECT_EQ(a[i]->telemetry->tail.toJson().dump(),
                  b[i]->telemetry->tail.toJson().dump())
            << "spec " << i;
    }
}

TEST(TailTelemetry, FaultStormExemplarsAreReproducible)
{
    // Two fresh runners (separate memo caches) under a fault storm:
    // the worst-K exemplar sets — the part most sensitive to ordering
    // — must come out identical.
    sim::Runner first(1);
    sim::Runner second(2);
    const auto a = first.runMany({faultStormSpec()});
    const auto b = second.runMany({faultStormSpec()});
    ASSERT_NE(a[0]->telemetry, nullptr);
    ASSERT_NE(b[0]->telemetry, nullptr);
    const TailReport &ta = a[0]->telemetry->tail;
    const TailReport &tb = b[0]->telemetry->tail;
    ASSERT_FALSE(ta.worst_stall.empty());
    EXPECT_EQ(ta.worst_translation, tb.worst_translation);
    EXPECT_EQ(ta.worst_walk, tb.worst_walk);
    EXPECT_EQ(ta.worst_stall, tb.worst_stall);
    EXPECT_TRUE(ta == tb);
}

TEST(TailTelemetry, DisabledHistogramsLeaveMetricsAndSeriesUnchanged)
{
    const auto off = sim::runOne(tailSpec("bfs", false));
    const auto on = sim::runOne(tailSpec("bfs", true));

    // Simulation metrics are bit-identical with histograms on.
    EXPECT_EQ(off.total_accesses, on.total_accesses);
    EXPECT_EQ(off.wall_cycles, on.wall_cycles);
    EXPECT_EQ(off.intervals, on.intervals);
    ASSERT_EQ(off.jobs.size(), on.jobs.size());
    for (size_t i = 0; i < off.jobs.size(); ++i) {
        EXPECT_EQ(off.jobs[i].wall_cycles, on.jobs[i].wall_cycles);
        EXPECT_EQ(off.jobs[i].walks, on.jobs[i].walks);
        EXPECT_EQ(off.jobs[i].promotions, on.jobs[i].promotions);
    }

    // Off means off: no tail report, no tail series, and the legacy
    // series are untouched by the new instrumentation.
    ASSERT_NE(off.telemetry, nullptr);
    EXPECT_FALSE(off.telemetry->tail.enabled);
    EXPECT_EQ(off.telemetry->tail.total.translation.count(), 0u);
    EXPECT_EQ(off.telemetry->series.find("tail_p99_cycles"), nullptr);
    ASSERT_NE(on.telemetry, nullptr);
    const auto &off_series = off.telemetry->series.all();
    for (const auto &series : off_series) {
        const Series *match = on.telemetry->series.find(series.name);
        ASSERT_NE(match, nullptr) << series.name;
        EXPECT_EQ(match->values, series.values) << series.name;
    }
}

TEST(TailTelemetry, SpecKeyGatesOnHistogramsOnly)
{
    const auto off = tailSpec("bfs", false);
    const auto on = tailSpec("bfs", true);
    EXPECT_NE(sim::specKey(off), sim::specKey(on));

    // exemplar_k is part of the key only while histograms are on, so
    // legacy (histogram-free) memo keys are unchanged by this field.
    auto on_k16 = on;
    on_k16.telemetry.exemplar_k = 16;
    EXPECT_NE(sim::specKey(on), sim::specKey(on_k16));
    auto off_k16 = off;
    off_k16.telemetry.exemplar_k = 16;
    EXPECT_EQ(sim::specKey(off), sim::specKey(off_k16));
}
