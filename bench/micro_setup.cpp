/**
 * @file
 * Microbenchmarks for the per-run set-up `System::run` pays before the
 * first simulated access, at `ci` scale: a fresh `os::Process` plus
 * `Workload::setup` for each suite-thp app and for bfs (the workload is
 * built once, outside the timed loop), and the construction of a 1GB
 * `mem::PhysicalMemory`, the smallest size auto-sizing picks.
 */

#include <benchmark/benchmark.h>

#include <string>

#include "mem/phys_mem.hpp"
#include "os/process.hpp"
#include "sim/config.hpp"
#include "workloads/registry.hpp"

using namespace pccsim;

namespace {

void
BM_ProcessSetup(benchmark::State &state, const std::string &name)
{
    workloads::WorkloadSpec spec;
    spec.name = name;
    spec.scale = workloads::Scale::Ci;
    const workloads::WorkloadPtr workload = workloads::makeWorkload(spec);
    const u64 capacity = sim::SystemConfig{}.heap_capacity;
    for (auto _ : state) {
        os::Process proc(0, capacity);
        workload->setup(proc);
        benchmark::DoNotOptimize(proc.footprintBytes());
    }
}

void
BM_PhysicalMemory(benchmark::State &state, u64 bytes)
{
    for (auto _ : state) {
        mem::PhysicalMemory phys(bytes);
        benchmark::DoNotOptimize(phys.totalFrames());
    }
}

} // namespace

BENCHMARK_CAPTURE(BM_ProcessSetup, mcf, std::string("mcf"));
BENCHMARK_CAPTURE(BM_ProcessSetup, dedup, std::string("dedup"));
BENCHMARK_CAPTURE(BM_ProcessSetup, omnetpp, std::string("omnetpp"));
BENCHMARK_CAPTURE(BM_ProcessSetup, canneal, std::string("canneal"));
BENCHMARK_CAPTURE(BM_ProcessSetup, bfs, std::string("bfs"));
BENCHMARK_CAPTURE(BM_PhysicalMemory, 1GB, u64{1} << 30)
    ->Unit(benchmark::kMicrosecond);
