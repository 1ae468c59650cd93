#include "graph/generators.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace pccsim::graph {

Edge
rmatEdge(unsigned scale, Rng &rng, double a, double b, double c)
{
    return RmatSampler(a, b, c).edge(scale, rng);
}

namespace {

/**
 * Fewest values one thread draws. Below this, starting the thread and
 * jumping its stream ahead cost more than the draws it takes over.
 */
constexpr u64 kMinPart = u64(1) << 16;

/**
 * Fill `out` from one stream that `draw` advances by exactly `stride`
 * values per element, as a serial loop from `seeded` would: element i
 * starts at stream position i * stride, so each thread jumps a copy of
 * the stream to the first element of its slice.
 */
template <typename T, typename Draw>
void
fillFromStream(std::vector<T> &out, const Rng &seeded, u64 stride,
               u32 threads, const Draw &draw)
{
    const u64 n = out.size();
    const u32 parts = util::partCount(n, kMinPart, threads);
    util::forEachPart(parts, [&](u32 part) {
        const u64 begin = util::partBegin(n, part, parts);
        const u64 end = util::partBegin(n, part + 1, parts);
        Rng rng = seeded;
        rng.advance(begin * stride);
        for (u64 i = begin; i < end; ++i)
            out[i] = draw(rng);
    });
}

/**
 * Twitter-like social surrogate: a small celebrity set attracts a large
 * share of endpoints (Zipf-distributed popularity) while the rest of
 * the endpoints are uniform — heavier skew than R-MAT and no locality
 * between the two endpoints.
 */
std::vector<Edge>
socialEdges(const GraphSpec &spec, Rng &rng)
{
    const NodeId n = spec.numNodes();
    ZipfSampler zipf(n, 0.9);
    std::vector<Edge> edges;
    edges.reserve(spec.numDirectedEdges());
    for (u64 i = 0; i < spec.numDirectedEdges(); ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(n));
        const NodeId dst = static_cast<NodeId>(zipf.sample(rng));
        edges.push_back({src, dst});
    }
    return edges;
}

/**
 * Web-crawl surrogate: most links are intra-host (destination close to
 * the source in vertex order, modelling crawl-order locality), with a
 * minority of cross-host links to Zipf-popular hub pages.
 */
std::vector<Edge>
webEdges(const GraphSpec &spec, Rng &rng)
{
    const NodeId n = spec.numNodes();
    ZipfSampler zipf(n, 0.8);
    std::vector<Edge> edges;
    edges.reserve(spec.numDirectedEdges());
    const u64 host_span = 1024; // pages per simulated host
    for (u64 i = 0; i < spec.numDirectedEdges(); ++i) {
        const NodeId src = static_cast<NodeId>(rng.below(n));
        NodeId dst;
        if (rng.chance(0.8)) {
            const u64 host_base = (src / host_span) * host_span;
            dst = static_cast<NodeId>(
                std::min<u64>(host_base + rng.below(host_span), n - 1));
        } else {
            dst = static_cast<NodeId>(zipf.sample(rng));
        }
        edges.push_back({src, dst});
    }
    return edges;
}

} // namespace

std::vector<Edge>
kroneckerEdges(const GraphSpec &spec, u32 threads)
{
    const RmatSampler gap(kRmatA, kRmatB, kRmatC);
    const unsigned scale = spec.scale;
    std::vector<Edge> edges(spec.numDirectedEdges());
    fillFromStream(edges, Rng(spec.seed), scale, threads,
                   [&gap, scale](Rng &r) { return gap.edge(scale, r); });
    return edges;
}

CsrGraph
generate(const GraphSpec &spec, u32 threads)
{
    Rng rng(spec.seed);
    std::vector<Edge> edges;
    switch (spec.kind) {
      case NetworkKind::Kronecker:
        edges = kroneckerEdges(spec, threads);
        break;
      // A Zipf draw rejects a variable number of values, so no edge's
      // stream position is known before the ones ahead of it are
      // drawn: these two sample serially.
      case NetworkKind::Social:
        edges = socialEdges(spec, rng);
        break;
      case NetworkKind::Web:
        edges = webEdges(spec, rng);
        break;
    }
    CsrGraph graph = buildCsr(spec.numNodes(), edges, true, threads);
    if (spec.weighted)
        graph = withUniformWeights(std::move(graph), spec.seed ^ 0x77ull,
                                   255, threads);
    return graph;
}

CsrGraph
withUniformWeights(CsrGraph graph, u64 seed, u32 max_weight, u32 threads)
{
    std::vector<u32> weights(graph.numEdges());
    fillFromStream(weights, Rng(seed), 1, threads, [&](Rng &rng) {
        return static_cast<u32>(rng.range(1, max_weight));
    });
    return std::move(graph).withWeights(std::move(weights));
}

CsrGraph
dbgReorder(const CsrGraph &graph)
{
    const NodeId n = graph.numNodes();
    // Group vertices by floor(log2(degree)), degree 0 with degree 1,
    // and number them group by group, hottest group first and by old
    // id within a group: a stable counting sort on 32 keys.
    const auto group = [&](NodeId v) {
        return std::bit_width(graph.degree(v) | 1u) - 1;
    };
    constexpr int kGroups = 32;
    std::array<NodeId, kGroups> next{};
    for (NodeId v = 0; v < n; ++v)
        ++next[group(v)];
    NodeId start = 0;
    for (int g = kGroups - 1; g >= 0; --g)
        start += std::exchange(next[g], start);
    std::vector<NodeId> new_id(n);
    for (NodeId v = 0; v < n; ++v)
        new_id[v] = next[group(v)]++;

    std::vector<u64> offsets(static_cast<u64>(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v)
        offsets[new_id[v] + 1] = graph.degree(v);
    for (u64 v = 0; v < n; ++v)
        offsets[v + 1] += offsets[v];

    std::vector<NodeId> targets(graph.numEdges());
    std::vector<u32> weights;
    if (graph.hasWeights())
        weights.resize(graph.numEdges());
    for (NodeId v = 0; v < n; ++v) {
        const u64 base = offsets[new_id[v]];
        const auto nbrs = graph.neighbors(v);
        for (u64 i = 0; i < nbrs.size(); ++i)
            targets[base + i] = new_id[nbrs[i]];
        if (graph.hasWeights())
            std::ranges::copy(graph.edgeWeights(v), weights.begin() + base);
    }
    return CsrGraph(std::move(offsets), std::move(targets),
                    std::move(weights));
}

} // namespace pccsim::graph
