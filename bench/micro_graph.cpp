/**
 * @file
 * Microbenchmarks for graph-input construction (seed 1): the library's
 * R-MAT edge sampling and CSR build at `small` scale (2^18 vertices,
 * average degree 16), the DBG reorder, and whole `generate` calls per
 * network kind at `small` and, for Kronecker, at `medium` (2^20). This
 * is the set-up every graph workload pays before its first simulated
 * access.
 *
 * The sampling, CSR and generate cases each run on one thread and on
 * all hardware threads (the last argument: 1 or 0 = all); the
 * `threads` counter reports the count used. They report wall time,
 * since the calling thread only waits while the workers run.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "graph/generators.hpp"
#include "util/thread_pool.hpp"

using namespace pccsim;
using namespace pccsim::graph;

namespace {

GraphSpec
spec(NetworkKind kind, unsigned scale = 18)
{
    GraphSpec s;
    s.scale = scale;
    s.avg_degree = 16;
    s.kind = kind;
    s.seed = 1;
    return s;
}

/** The thread count an argument of 1 or 0 (= all) selects. */
u32
threads(i64 arg)
{
    return arg == 0 ? util::ThreadPool::hardwareJobs()
                    : static_cast<u32>(arg);
}

} // namespace

static void
BM_RmatEdges(benchmark::State &state)
{
    const GraphSpec s = spec(NetworkKind::Kronecker);
    const u32 n = threads(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(kroneckerEdges(s, n).data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(s.numDirectedEdges()));
    state.counters["threads"] = n;
}
BENCHMARK(BM_RmatEdges)
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void
BM_BuildCsr(benchmark::State &state)
{
    const GraphSpec s = spec(NetworkKind::Kronecker);
    const u32 n = threads(state.range(0));
    const std::vector<Edge> sampled = kroneckerEdges(s);
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<Edge> edges = sampled;
        state.ResumeTiming();
        const CsrGraph g = buildCsr(s.numNodes(), edges, true, n);
        benchmark::DoNotOptimize(g.targets().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(sampled.size()));
    state.counters["threads"] = n;
}
BENCHMARK(BM_BuildCsr)
    ->Arg(1)
    ->Arg(0)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

static void
BM_DbgReorder(benchmark::State &state)
{
    const CsrGraph g = generate(spec(NetworkKind::Kronecker));
    for (auto _ : state) {
        const CsrGraph sorted = dbgReorder(g);
        benchmark::DoNotOptimize(sorted.targets().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(g.numNodes()));
}
BENCHMARK(BM_DbgReorder)->Unit(benchmark::kMillisecond);

/** Arguments: network kind, scale, threads (1 or 0 = all). */
static void
BM_Generate(benchmark::State &state)
{
    const auto kind = static_cast<NetworkKind>(state.range(0));
    const GraphSpec s = spec(kind, static_cast<unsigned>(state.range(1)));
    const u32 n = threads(state.range(2));
    for (auto _ : state) {
        const CsrGraph g = generate(s, n);
        benchmark::DoNotOptimize(g.targets().data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(kind == NetworkKind::Kronecker ? "kronecker"
                   : kind == NetworkKind::Social  ? "social"
                                                  : "web");
    state.counters["threads"] = n;
}
BENCHMARK(BM_Generate)
    ->ArgsProduct({{static_cast<int>(NetworkKind::Kronecker),
                    static_cast<int>(NetworkKind::Social),
                    static_cast<int>(NetworkKind::Web)},
                   {18},
                   {1, 0}})
    ->Args({static_cast<int>(NetworkKind::Kronecker), 20, 1})
    ->Args({static_cast<int>(NetworkKind::Kronecker), 20, 0})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
