#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "graph/generators.hpp"

using namespace pccsim;
using namespace pccsim::graph;

namespace {

GraphSpec
smallSpec(NetworkKind kind)
{
    GraphSpec spec;
    spec.scale = 10;
    spec.avg_degree = 8;
    spec.kind = kind;
    spec.seed = 99;
    return spec;
}

u32
maxDegree(const CsrGraph &g)
{
    u32 best = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        best = std::max(best, g.degree(v));
    return best;
}

} // namespace

TEST(Generators, SpecArithmetic)
{
    GraphSpec spec;
    spec.scale = 10;
    spec.avg_degree = 8;
    EXPECT_EQ(spec.numNodes(), 1024u);
    EXPECT_EQ(spec.numDirectedEdges(), 1024u * 8 / 2);
}

TEST(Generators, DeterministicForSameSeed)
{
    const CsrGraph a = generate(smallSpec(NetworkKind::Kronecker));
    const CsrGraph b = generate(smallSpec(NetworkKind::Kronecker));
    ASSERT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.targets(), b.targets());
}

TEST(Generators, SeedChangesGraph)
{
    GraphSpec spec = smallSpec(NetworkKind::Kronecker);
    const CsrGraph a = generate(spec);
    spec.seed = 100;
    const CsrGraph b = generate(spec);
    EXPECT_NE(a.targets(), b.targets());
}

class AllKinds : public ::testing::TestWithParam<NetworkKind>
{
};

TEST_P(AllKinds, SymmetrizedSizeAndValidity)
{
    const GraphSpec spec = smallSpec(GetParam());
    const CsrGraph g = generate(spec);
    EXPECT_EQ(g.numNodes(), spec.numNodes());
    EXPECT_EQ(g.numEdges(), 2 * spec.numDirectedEdges());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        for (NodeId u : g.neighbors(v))
            ASSERT_LT(u, g.numNodes());
}

TEST_P(AllKinds, PowerLawSkewPresent)
{
    const CsrGraph g = generate(smallSpec(GetParam()));
    const u32 avg = static_cast<u32>(g.numEdges() / g.numNodes());
    // Hubs far above the mean degree are the signature of all three
    // network classes the paper evaluates.
    EXPECT_GT(maxDegree(g), avg * 4);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllKinds,
                         ::testing::Values(NetworkKind::Kronecker,
                                           NetworkKind::Social,
                                           NetworkKind::Web));

TEST(Generators, RmatEdgeInRange)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const Edge e = rmatEdge(12, rng);
        EXPECT_LT(e.src, 1u << 12);
        EXPECT_LT(e.dst, 1u << 12);
    }
}

TEST(Generators, WeightsInDeclaredRange)
{
    GraphSpec spec = smallSpec(NetworkKind::Kronecker);
    spec.weighted = true;
    const CsrGraph g = generate(spec);
    ASSERT_TRUE(g.hasWeights());
    for (u32 w : g.weights()) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 255u);
    }
}

TEST(Dbg, ReorderPreservesStructure)
{
    const CsrGraph g = generate(smallSpec(NetworkKind::Kronecker));
    const CsrGraph sorted = dbgReorder(g);
    EXPECT_EQ(sorted.numNodes(), g.numNodes());
    EXPECT_EQ(sorted.numEdges(), g.numEdges());

    // Degree multiset is preserved.
    std::vector<u32> before, after;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        before.push_back(g.degree(v));
        after.push_back(sorted.degree(v));
    }
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    EXPECT_EQ(before, after);
}

TEST(Dbg, HotVerticesMoveToFront)
{
    const CsrGraph g = generate(smallSpec(NetworkKind::Kronecker));
    const CsrGraph sorted = dbgReorder(g);
    // Average degree of the first 10% of vertices must exceed the
    // last 10% after degree-based grouping.
    const NodeId n = sorted.numNodes();
    u64 head = 0, tail = 0;
    for (NodeId v = 0; v < n / 10; ++v)
        head += sorted.degree(v);
    for (NodeId v = n - n / 10; v < n; ++v)
        tail += sorted.degree(v);
    EXPECT_GT(head, tail);
}

TEST(Dbg, ReorderKeepsWeightsAttached)
{
    GraphSpec spec = smallSpec(NetworkKind::Kronecker);
    spec.weighted = true;
    const CsrGraph g = generate(spec);
    const CsrGraph sorted = dbgReorder(g);
    ASSERT_TRUE(sorted.hasWeights());
    // Total weight is invariant under reordering.
    u64 sum_before = 0, sum_after = 0;
    for (u32 w : g.weights())
        sum_before += w;
    for (u32 w : sorted.weights())
        sum_after += w;
    EXPECT_EQ(sum_before, sum_after);
}

namespace {

/** FNV-1a 64 over offsets, then targets, then weights. */
u64
csrHash(const CsrGraph &g)
{
    u64 h = 1469598103934665603ull;
    const auto fold = [&h](u64 v) { h = (h ^ v) * 1099511628211ull; };
    for (u64 v : g.offsets())
        fold(v);
    for (NodeId v : g.targets())
        fold(v);
    for (u32 v : g.weights())
        fold(v);
    return h;
}

struct GoldenCase
{
    const char *name;
    unsigned scale;
    unsigned avg_degree;
    NetworkKind kind;
    bool weighted;
    bool dbg;
    u64 hash;
};

std::ostream &
operator<<(std::ostream &os, const GoldenCase &c)
{
    return os << c.name;
}

class GoldenCsr : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

// Every generated CSR, bit for bit, at seed 1. A changed value means
// changed inputs, and so changed simulated results, for every graph
// workload: a faster generator, CSR build or reorder must keep them.
TEST_P(GoldenCsr, HashUnchanged)
{
    const GoldenCase &c = GetParam();
    GraphSpec spec;
    spec.scale = c.scale;
    spec.avg_degree = c.avg_degree;
    spec.kind = c.kind;
    spec.weighted = c.weighted;
    spec.seed = 1;
    CsrGraph g = generate(spec);
    if (c.dbg)
        g = dbgReorder(g);
    EXPECT_EQ(csrHash(g), c.hash)
        << std::hex << "got 0x" << csrHash(g) << " want 0x" << c.hash;
}

INSTANTIATE_TEST_SUITE_P(
    SeedOne, GoldenCsr,
    ::testing::Values(
        GoldenCase{"KroneckerCi", 16, 8, NetworkKind::Kronecker, false,
                   false, 0xce85d6819088db27ull},
        GoldenCase{"SocialCi", 16, 8, NetworkKind::Social, false, false,
                   0x9e0e39ff62e8bd23ull},
        GoldenCase{"WebCi", 16, 8, NetworkKind::Web, false, false,
                   0x360b0b63f563c35dull},
        GoldenCase{"KroneckerSmall", 18, 16, NetworkKind::Kronecker,
                   false, false, 0x586ff774896eba43ull},
        GoldenCase{"SocialSmall", 18, 16, NetworkKind::Social, false,
                   false, 0xe74fdf1e518d860bull},
        GoldenCase{"WebSmall", 18, 16, NetworkKind::Web, false, false,
                   0x1b83c3db21e1f12dull},
        GoldenCase{"KroneckerSmallWeighted", 18, 16,
                   NetworkKind::Kronecker, true, false, 0xf4bab75d68d055acull},
        GoldenCase{"KroneckerSmallDbg", 18, 16, NetworkKind::Kronecker,
                   false, true, 0xdba588ee2bc4bfffull}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

namespace {

/** The (a, b, c) triples the threshold tests cover, GAP's first. */
constexpr double kTriples[][3] = {
    {kRmatA, kRmatB, kRmatC},
    {0.45, 0.15, 0.15},
    {0.25, 0.25, 0.25},
    {0.1, 0.3, 0.35},
    {0.7, 0.1, 0.19999999999999998},
};

/** The double compare that `x < uniformThreshold(t)` replaces. */
bool
below(u64 x, double t)
{
    return static_cast<double>(x) * 0x1.0p-53 < t;
}

/** The R-MAT bit ladder on Rng::uniform() draws, compare by compare. */
Edge
ladderEdge(unsigned scale, Rng &rng, double a, double b, double c)
{
    NodeId src = 0;
    NodeId dst = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
        const double r = rng.uniform();
        src <<= 1;
        dst <<= 1;
        if (r < a) {
        } else if (r < a + b) {
            dst |= 1;
        } else if (r < a + b + c) {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    return {src, dst};
}

} // namespace

TEST(RmatThreshold, IntegerCompareMatchesDoubleCompare)
{
    constexpr u64 kMax53 = (u64(1) << 53) - 1;
    Rng rng(2024);
    for (const auto &abc : kTriples) {
        const double sums[] = {abc[0], abc[0] + abc[1],
                               abc[0] + abc[1] + abc[2]};
        for (double t : sums) {
            const u64 T = uniformThreshold(t);
            ASSERT_GT(T, 0u);
            ASSERT_LE(T, kMax53);
            for (u64 x : {T - 1, T, T + 1, u64(0), kMax53})
                EXPECT_EQ(x < T, below(x, t)) << "t=" << t << " x=" << x;
            for (int i = 0; i < 100000; ++i) {
                const u64 x = rng.uniformBits();
                ASSERT_EQ(x < T, below(x, t)) << "t=" << t << " x=" << x;
            }
        }
    }
}

TEST(RmatThreshold, ClampsOutsideTheUnitInterval)
{
    constexpr u64 kMax53 = (u64(1) << 53) - 1;
    for (double t : {-1.0, 0.0, 1.0, 1.5}) {
        const u64 T = uniformThreshold(t);
        for (u64 x : {u64(0), u64(1), kMax53 - 1, kMax53})
            EXPECT_EQ(x < T, below(x, t)) << "t=" << t << " x=" << x;
    }
}

TEST(RmatThreshold, SamplerMatchesDoubleLadder)
{
    for (const auto &abc : kTriples) {
        Rng fast(7);
        Rng ladder(7);
        for (int i = 0; i < 20000; ++i) {
            const Edge got = rmatEdge(20, fast, abc[0], abc[1], abc[2]);
            const Edge want = ladderEdge(20, ladder, abc[0], abc[1], abc[2]);
            ASSERT_EQ(got.src, want.src) << "edge " << i;
            ASSERT_EQ(got.dst, want.dst) << "edge " << i;
        }
    }
}
