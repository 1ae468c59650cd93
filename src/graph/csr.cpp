#include "graph/csr.hpp"

#include <algorithm>

namespace pccsim::graph {

namespace {

// The scatter writes the targets at random. It prefetches in two
// stages: the row cursors of the edge 2 * kPrefetchAhead ahead, then
// the target slots those cursors name for the edge kPrefetchAhead
// ahead, by which time the cursors are cached. A prefetch is only a
// hint, so a cursor that moves in between costs a wasted line, never a
// wrong result.
constexpr u64 kPrefetchAhead = 16;

} // namespace

CsrGraph
buildCsr(NodeId num_nodes, std::vector<Edge> &edges, bool symmetrize)
{
    const u64 n = edges.size();
    const u64 last = n == 0 ? 0 : n - 1;

    // Degrees go in shifted by two, so after the prefix sum
    // offsets[v + 1] is where row v starts: it is row v's cursor, and
    // the scatter leaves it where row v ends, i.e. at the final
    // offsets[v + 1]. The spare last slot is dropped at the end.
    std::vector<u64> offsets(static_cast<u64>(num_nodes) + 2, 0);
    u64 *const count = offsets.data() + 2;
    for (const Edge &e : edges) {
        PCCSIM_ASSERT(e.src < num_nodes && e.dst < num_nodes);
        ++count[e.src];
        if (symmetrize)
            ++count[e.dst];
    }
    for (u64 v = 1; v < offsets.size(); ++v)
        offsets[v] += offsets[v - 1];

    std::vector<NodeId> targets(n * (symmetrize ? 2ull : 1ull));
    u64 *const cursor = offsets.data() + 1;
    for (u64 i = 0; i < n; ++i) {
        const Edge &far = edges[std::min(i + 2 * kPrefetchAhead, last)];
        __builtin_prefetch(cursor + far.src, 1);
        __builtin_prefetch(cursor + far.dst, 1);
        const Edge &near = edges[std::min(i + kPrefetchAhead, last)];
        __builtin_prefetch(targets.data() + cursor[near.src], 1);
        __builtin_prefetch(targets.data() + cursor[near.dst], 1);
        const Edge &e = edges[i];
        targets[cursor[e.src]++] = e.dst;
        if (symmetrize)
            targets[cursor[e.dst]++] = e.src;
    }
    offsets.pop_back();
    edges.clear();
    edges.shrink_to_fit();
    return CsrGraph(std::move(offsets), std::move(targets));
}

} // namespace pccsim::graph
