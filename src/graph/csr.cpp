#include "graph/csr.hpp"

#include <algorithm>
#include <bit>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/thread_pool.hpp"

namespace pccsim::graph {

namespace {

// The serial scatter writes the targets at random. It prefetches in
// two stages: the row cursors of the edge 2 * kPrefetchAhead ahead,
// then the target slots those cursors name for the edge kPrefetchAhead
// ahead, by which time the cursors are cached. A prefetch is only a
// hint, so a cursor that moves in between costs a wasted line, never a
// wrong result.
constexpr u64 kPrefetchAhead = 16;

// Fewest edges per thread of the scatter. Every thread reads the whole
// edge list, so a thread pays off only on lists far longer than its
// start-up.
constexpr u64 kMinPart = u64(1) << 16;

// A thread of the parallel scatter takes the edges kBlock at a time:
// one mask marks the endpoints of the block in its rows (bit 2j: edge
// j's src, bit 2j + 1: its dst), and it visits only the marked ones, in
// bit order, i.e. in list order. The mask costs a few instructions per
// edge and no branch on which thread owns a row.
constexpr u64 kBlock = 32;

static_assert(sizeof(Edge) == 2 * sizeof(NodeId),
              "blockMask reads edges as (src, dst) pairs");

/** The rows [begin, begin + count) of one thread. */
struct Rows
{
    NodeId begin;
    NodeId count;

    /** Whether v is one of these rows (one compare: v - begin wraps). */
    bool has(NodeId v) const { return v - begin < count; }
};

/** The mask of the endpoints of edges[0, size) (size <= kBlock) in rows. */
u64
blockMask(const Edge *edges, u64 size, Rows rows)
{
    u64 mask = 0;
    u64 j = 0;
#if defined(__SSE2__)
    // Two edges per 128-bit lane group: (src, dst, src, dst) compare to
    // four mask bits in edge order. Unsigned v - begin < count is the
    // signed compare with both sides' top bits flipped.
    const __m128i flip = _mm_set1_epi32(static_cast<int>(0x80000000u));
    const __m128i begin = _mm_set1_epi32(static_cast<int>(rows.begin));
    const __m128i limit =
        _mm_set1_epi32(static_cast<int>(rows.count ^ 0x80000000u));
    for (; j + 2 <= size; j += 2) {
        const __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(edges + j));
        const __m128i in = _mm_cmplt_epi32(
            _mm_xor_si128(_mm_sub_epi32(v, begin), flip), limit);
        mask |= u64(_mm_movemask_ps(_mm_castsi128_ps(in))) << (2 * j);
    }
#endif
    for (; j < size; ++j) {
        mask |= u64(rows.has(edges[j].src)) << (2 * j);
        mask |= u64(rows.has(edges[j].dst)) << (2 * j + 1);
    }
    return mask;
}

/** One thread's scatter: the endpoints in `rows`, in list order. */
void
scatterRows(const std::vector<Edge> &edges, bool symmetrize, Rows rows,
            u64 *cursor, NodeId *targets)
{
    const u64 keep = symmetrize ? ~u64(0) : 0x5555555555555555ull;
    for (u64 first = 0; first < edges.size(); first += kBlock) {
        const Edge *block = edges.data() + first;
        const u64 size = std::min(kBlock, edges.size() - first);
        for (u64 m = blockMask(block, size, rows) & keep; m; m &= m - 1) {
            const unsigned bit = std::countr_zero(m);
            const Edge &e = block[bit / 2];
            const bool at_dst = bit & 1;
            const NodeId row = at_dst ? e.dst : e.src;
            targets[cursor[row]++] = at_dst ? e.src : e.dst;
        }
    }
}

/** The scatter on one thread, every row. */
void
scatterAll(const std::vector<Edge> &edges, bool symmetrize, u64 *cursor,
           NodeId *targets)
{
    const u64 n = edges.size();
    const u64 last = n == 0 ? 0 : n - 1;
    for (u64 i = 0; i < n; ++i) {
        const Edge &far = edges[std::min(i + 2 * kPrefetchAhead, last)];
        __builtin_prefetch(cursor + far.src, 1);
        __builtin_prefetch(cursor + far.dst, 1);
        const Edge &near = edges[std::min(i + kPrefetchAhead, last)];
        __builtin_prefetch(targets + cursor[near.src], 1);
        __builtin_prefetch(targets + cursor[near.dst], 1);
        const Edge &e = edges[i];
        targets[cursor[e.src]++] = e.dst;
        if (symmetrize)
            targets[cursor[e.dst]++] = e.src;
    }
}

} // namespace

CsrGraph
buildCsr(NodeId num_nodes, std::vector<Edge> &edges, bool symmetrize,
         u32 threads)
{
    const u64 n = edges.size();

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

    const u64 total = n * (symmetrize ? 2ull : 1ull);
    std::vector<NodeId> targets(total);
    u64 *const cursor = offsets.data() + 1;
    const u32 parts = util::partCount(n, kMinPart, threads);
    if (parts == 1) {
        scatterAll(edges, symmetrize, cursor, targets.data());
    } else {
        // Each thread owns a contiguous range of rows holding about
        // 1/parts of the targets. It reads every edge in list order and
        // places only the endpoints in its rows, so it writes nothing
        // another thread writes, and each row gets its targets in list
        // order, exactly as on one thread.
        std::vector<NodeId> bounds(parts + 1, num_nodes);
        bounds[0] = 0;
        for (u32 p = 1; p < parts; ++p)
            bounds[p] = static_cast<NodeId>(
                std::lower_bound(cursor, cursor + num_nodes,
                                 util::partBegin(total, p, parts)) -
                cursor);
        util::forEachPart(parts, [&](u32 part) {
            scatterRows(edges, symmetrize,
                        {bounds[part], bounds[part + 1] - bounds[part]},
                        cursor, targets.data());
        });
    }
    offsets.pop_back();
    edges.clear();
    edges.shrink_to_fit();
    return CsrGraph(std::move(offsets), std::move(targets));
}

} // namespace pccsim::graph
