/**
 * @file
 * Microbenchmark for the data-cache hierarchy on real access streams.
 *
 * Every simulated access goes through cache::CacheHierarchy, and at the
 * reduced scales most of them scan all three levels on the way to
 * DRAM. This replays an in-memory capture of one workload's access
 * stream (lane 0, loads and stores alike) through a hierarchy built
 * at SystemConfig::forScale geometry for the workload's scale, one
 * access per iteration, wrapping around at the end of the capture.
 * The hierarchy keeps its state across the wrap, as it would across a
 * long run.
 *
 * Run:  build/bench/micro_cache
 */

#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "workloads/registry.hpp"

using namespace pccsim;

namespace {

/** Longest capture kept: 32MB of addresses. */
constexpr u64 kMaxCapture = u64{1} << 22;

/**
 * The first kMaxCapture addresses of the workload's single-lane
 * stream. Captured once per (workload, scale) and shared by every
 * benchmark that replays it.
 */
const std::vector<Addr> &
capture(const std::string &name, workloads::Scale scale)
{
    static std::map<std::pair<std::string, workloads::Scale>,
                    std::vector<Addr>>
        streams;
    std::vector<Addr> &stream = streams[{name, scale}];
    if (!stream.empty())
        return stream;
    workloads::WorkloadSpec spec;
    spec.name = name;
    spec.scale = scale;
    auto workload = workloads::makeWorkload(spec);
    os::Process proc(0, sim::SystemConfig{}.heap_capacity);
    workload->setup(proc);
    workloads::AccessBuffer buf(4096);
    auto lane = workload->batchLane(0, 1, buf);
    const auto drain = [&] {
        for (u32 i = 0; i < buf.size() && stream.size() < kMaxCapture;
             ++i)
            stream.push_back(buf.addrs()[i]);
        buf.clear();
    };
    while (stream.size() < kMaxCapture && lane.next())
        drain();
    drain();
    return stream;
}

void
replay(benchmark::State &state, const std::string &name,
       workloads::Scale scale)
{
    const std::vector<Addr> &stream = capture(name, scale);
    cache::CacheHierarchy caches(
        sim::SystemConfig::forScale(scale).cache);
    u64 i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(caches.access(stream[i]));
        if (++i == stream.size())
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["stream_accesses"] =
        static_cast<double>(stream.size());
    state.counters["dram_share"] =
        static_cast<double>(caches.dramAccesses()) /
        static_cast<double>(caches.accesses());
}

} // namespace

static void
BM_CacheReplayMcfCi(benchmark::State &state)
{
    replay(state, "mcf", workloads::Scale::Ci);
}
BENCHMARK(BM_CacheReplayMcfCi);

static void
BM_CacheReplayBfsSmall(benchmark::State &state)
{
    replay(state, "bfs", workloads::Scale::Small);
}
BENCHMARK(BM_CacheReplayBfsSmall);
