/**
 * @file
 * Microbenchmark of a policy sweep at `ci` scale: the four suite-thp
 * apps (mcf, dedup, omnetpp, canneal) under base-4k, linux-thp,
 * hawkeye and pcc, 16 simulations per iteration.
 *
 *   shared_runner   one serial sim::Runner for the whole sweep: the
 *                   first policy of each app records the data-cache
 *                   tape (sim/cache_tape.hpp), the other three replay
 *   runner_per_sim  a fresh serial Runner per simulation: every run
 *                   simulates the data cache itself
 *
 * Both produce identical results; the gap is the data-cache work the
 * shared Runner does not repeat. The `ns_per_access` counter divides
 * each iteration's time by its simulated accesses.
 *
 *   parallel_runner perfbench graph-sweep's shape at `ci`: bfs and pr
 *                   under base-4k, all-huge, pcc and a 2-entry pcc in
 *                   one runMany() batch on a 2-worker Runner. The
 *                   `records`, `replays` and `waits` counters are per
 *                   iteration: single-flight tapes make the first two
 *                   2 and 6 whatever the timing, and stream-aware
 *                   dispatch keeps runs from sleeping on a recorder. Timed in wall time (the
 *                   `/real_time` suffix); `busy_ns_per_access` is the
 *                   workers' summed busy time per access.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "sim/runner.hpp"

using namespace pccsim;

namespace {

std::vector<sim::ExperimentSpec>
sweep()
{
    std::vector<sim::ExperimentSpec> specs;
    for (const char *app : {"mcf", "dedup", "omnetpp", "canneal"}) {
        for (sim::PolicyKind policy :
             {sim::PolicyKind::Base, sim::PolicyKind::LinuxThp,
              sim::PolicyKind::HawkEye, sim::PolicyKind::Pcc}) {
            sim::ExperimentSpec spec;
            spec.workload.name = app;
            spec.workload.scale = workloads::Scale::Ci;
            spec.policy = policy;
            if (policy == sim::PolicyKind::Base)
                spec.cap_percent = 0.0;
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
BM_PolicySweep(benchmark::State &state, bool shared)
{
    const std::vector<sim::ExperimentSpec> specs = sweep();
    u64 accesses = 0;
    for (auto _ : state) {
        sim::Runner runner(1);
        for (const sim::ExperimentSpec &spec : specs) {
            sim::Runner own(1);
            const auto result = (shared ? runner : own).run(spec);
            benchmark::DoNotOptimize(result->wall_cycles);
            accesses += result->total_accesses;
        }
    }
    state.counters["ns_per_access"] = benchmark::Counter(
        static_cast<double>(accesses),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/** Two graph streams under four policies, as graph-sweep runs them. */
std::vector<sim::ExperimentSpec>
graphSweep()
{
    std::vector<sim::ExperimentSpec> specs;
    for (const char *app : {"bfs", "pr"}) {
        for (u32 variant = 0; variant < 4; ++variant) {
            sim::ExperimentSpec spec;
            spec.workload.name = app;
            spec.workload.scale = workloads::Scale::Ci;
            spec.policy = variant == 0   ? sim::PolicyKind::Base
                          : variant == 1 ? sim::PolicyKind::AllHuge
                                         : sim::PolicyKind::Pcc;
            spec.cap_percent = variant == 0 ? 0.0 : 32.0;
            if (variant == 3) {
                spec.tweak = [](sim::SystemConfig &cfg) {
                    cfg.pcc.pcc2m.entries = 2;
                };
                spec.tweak_key = "pcc2m=2";
            }
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

void
BM_ParallelSweep(benchmark::State &state)
{
    const std::vector<sim::ExperimentSpec> specs = graphSweep();
    u64 accesses = 0;
    u64 busy_ns = 0;
    sim::Runner::Stats st;
    for (auto _ : state) {
        sim::Runner runner(2);
        for (const auto &result : runner.runMany(specs))
            benchmark::DoNotOptimize(result->wall_cycles);
        st = runner.stats();
        accesses += st.total_accesses;
        busy_ns += st.sim_nanos;
    }
    // Wall time per access, and the workers' busy time per access
    // (what the shared cache work saves, whatever the overlap).
    state.counters["ns_per_access"] = benchmark::Counter(
        static_cast<double>(accesses),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.counters["busy_ns_per_access"] =
        accesses ? static_cast<double>(busy_ns) / accesses : 0.0;
    state.counters["records"] =
        static_cast<double>(st.cache_tape_records);
    state.counters["replays"] =
        static_cast<double>(st.cache_tape_replays);
    state.counters["waits"] = static_cast<double>(st.cache_tape_waits);
}

} // namespace

BENCHMARK_CAPTURE(BM_PolicySweep, shared_runner, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicySweep, runner_per_sim, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelSweep)
    ->Name("BM_PolicySweep/parallel_runner")
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
