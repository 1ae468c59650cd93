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

} // namespace

BENCHMARK_CAPTURE(BM_PolicySweep, shared_runner, true)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PolicySweep, runner_per_sim, false)
    ->Unit(benchmark::kMillisecond);
