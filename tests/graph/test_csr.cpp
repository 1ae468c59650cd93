#include <gtest/gtest.h>

#include "graph/csr.hpp"
#include "util/rng.hpp"

using namespace pccsim;
using namespace pccsim::graph;

TEST(Csr, BuildSymmetricFromEdgeList)
{
    std::vector<Edge> edges = {{0, 1}, {1, 2}, {0, 2}};
    const CsrGraph g = buildCsr(3, edges, true);
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 6u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_EQ(g.degree(2), 2u);
    EXPECT_TRUE(edges.empty()) << "edge list should be consumed";
}

TEST(Csr, BuildDirected)
{
    std::vector<Edge> edges = {{0, 1}, {0, 2}, {2, 1}};
    const CsrGraph g = buildCsr(3, edges, false);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
}

TEST(Csr, NeighborsSpanIsCorrect)
{
    std::vector<Edge> edges = {{0, 1}, {0, 2}};
    const CsrGraph g = buildCsr(3, edges, false);
    const auto nbrs = g.neighbors(0);
    ASSERT_EQ(nbrs.size(), 2u);
    EXPECT_EQ(nbrs[0], 1u);
    EXPECT_EQ(nbrs[1], 2u);
    EXPECT_TRUE(g.neighbors(1).empty());
}

TEST(Csr, SelfLoopAndIsolatedNode)
{
    std::vector<Edge> edges = {{1, 1}};
    const CsrGraph g = buildCsr(3, edges, true);
    EXPECT_EQ(g.degree(1), 2u); // self loop symmetrized twice
    EXPECT_EQ(g.degree(0), 0u);
    EXPECT_EQ(g.degree(2), 0u);
}

TEST(Csr, WeightsParallelToTargets)
{
    std::vector<u64> offsets = {0, 2, 2};
    std::vector<NodeId> targets = {1, 0};
    std::vector<u32> weights = {5, 9};
    const CsrGraph g(std::move(offsets), std::move(targets),
                     std::move(weights));
    ASSERT_TRUE(g.hasWeights());
    const auto w = g.edgeWeights(0);
    EXPECT_EQ(w[0], 5u);
    EXPECT_EQ(w[1], 9u);
}

TEST(Csr, BytesAccountsAllArrays)
{
    std::vector<Edge> edges = {{0, 1}};
    const CsrGraph g = buildCsr(2, edges, true);
    EXPECT_EQ(g.bytes(), 3 * sizeof(u64) + 2 * sizeof(NodeId));
}

TEST(Csr, EmptyGraph)
{
    std::vector<Edge> edges;
    const CsrGraph g = buildCsr(1, edges, true);
    EXPECT_EQ(g.numNodes(), 1u);
    EXPECT_EQ(g.numEdges(), 0u);
}

TEST(Csr, SameForEveryThreadCount)
{
    // Enough edges for up to eight scatter threads, on few rows, so rows
    // repeat targets and the per-row order is tested; one self-loop.
    constexpr NodeId kNodes = 1000;
    Rng rng(3);
    std::vector<Edge> edges(1u << 19);
    for (Edge &e : edges)
        e = {static_cast<NodeId>(rng.below(kNodes)),
             static_cast<NodeId>(rng.below(kNodes))};
    edges[7] = {5, 5};
    for (bool symmetrize : {true, false}) {
        std::vector<Edge> copy = edges;
        const CsrGraph want = buildCsr(kNodes, copy, symmetrize, 1);
        for (u32 threads : {2u, 3u, 5u, 8u}) {
            copy = edges;
            const CsrGraph got = buildCsr(kNodes, copy, symmetrize, threads);
            EXPECT_EQ(got.offsets(), want.offsets()) << "threads " << threads;
            EXPECT_EQ(got.targets(), want.targets()) << "threads " << threads;
        }
    }
}
