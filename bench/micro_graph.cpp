/**
 * @file
 * Microbenchmarks for graph-input construction at `small` scale
 * (2^18 vertices, average degree 16, seed 1): R-MAT edge sampling,
 * the CSR build, the DBG reorder, and whole `generate` calls per
 * network kind. This is the set-up every graph workload pays before
 * its first simulated access.
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "graph/generators.hpp"

using namespace pccsim;
using namespace pccsim::graph;

namespace {

GraphSpec
smallSpec(NetworkKind kind)
{
    GraphSpec spec;
    spec.scale = 18;
    spec.avg_degree = 16;
    spec.kind = kind;
    spec.seed = 1;
    return spec;
}

std::vector<Edge>
rmatEdges(const GraphSpec &spec)
{
    Rng rng(spec.seed);
    const RmatSampler gap(kRmatA, kRmatB, kRmatC);
    std::vector<Edge> edges(spec.numDirectedEdges());
    for (Edge &e : edges)
        e = gap.edge(spec.scale, rng);
    return edges;
}

} // namespace

static void
BM_RmatEdges(benchmark::State &state)
{
    const GraphSpec spec = smallSpec(NetworkKind::Kronecker);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rmatEdges(spec).data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(spec.numDirectedEdges()));
}
BENCHMARK(BM_RmatEdges)->Unit(benchmark::kMillisecond);

static void
BM_BuildCsr(benchmark::State &state)
{
    const GraphSpec spec = smallSpec(NetworkKind::Kronecker);
    const std::vector<Edge> sampled = rmatEdges(spec);
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<Edge> edges = sampled;
        state.ResumeTiming();
        const CsrGraph g = buildCsr(spec.numNodes(), edges, true);
        benchmark::DoNotOptimize(g.targets().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(sampled.size()));
}
BENCHMARK(BM_BuildCsr)->Unit(benchmark::kMillisecond);

static void
BM_DbgReorder(benchmark::State &state)
{
    const CsrGraph g = generate(smallSpec(NetworkKind::Kronecker));
    for (auto _ : state) {
        const CsrGraph sorted = dbgReorder(g);
        benchmark::DoNotOptimize(sorted.targets().data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<i64>(g.numNodes()));
}
BENCHMARK(BM_DbgReorder)->Unit(benchmark::kMillisecond);

static void
BM_Generate(benchmark::State &state)
{
    const auto kind = static_cast<NetworkKind>(state.range(0));
    const GraphSpec spec = smallSpec(kind);
    for (auto _ : state) {
        const CsrGraph g = generate(spec);
        benchmark::DoNotOptimize(g.targets().data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(kind == NetworkKind::Kronecker ? "kronecker"
                   : kind == NetworkKind::Social  ? "social"
                                                  : "web");
}
BENCHMARK(BM_Generate)
    ->Arg(static_cast<int>(NetworkKind::Kronecker))
    ->Arg(static_cast<int>(NetworkKind::Social))
    ->Arg(static_cast<int>(NetworkKind::Web))
    ->Unit(benchmark::kMillisecond);
