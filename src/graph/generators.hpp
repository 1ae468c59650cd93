/**
 * @file
 * Synthetic graph generators standing in for the paper's inputs
 * (Table 1): Kronecker/R-MAT power-law networks ("Kronecker 25"),
 * a social-network surrogate ("Twitter"), and a web-crawl surrogate
 * ("Sd1 Web"). All generators are deterministic given a seed.
 */

#pragma once

#include "graph/csr.hpp"
#include "util/rng.hpp"

namespace pccsim::graph {

/** Which real-world dataset a generator imitates. */
enum class NetworkKind
{
    Kronecker, //!< GAP-style R-MAT power law (synthetic)
    Social,    //!< Twitter-like: heavier skew, random placement
    Web,       //!< web-like: strong locality plus hub pages
};

/** Generation parameters. */
struct GraphSpec
{
    unsigned scale = 18;    //!< num_nodes = 2^scale
    unsigned avg_degree = 16;
    NetworkKind kind = NetworkKind::Kronecker;
    bool weighted = false;  //!< attach uniform random edge weights
    u64 seed = 42;

    NodeId numNodes() const { return NodeId(1) << scale; }
    u64 numDirectedEdges() const
    {
        return static_cast<u64>(numNodes()) * avg_degree / 2;
    }
};

/**
 * Generate a graph per the spec; symmetrized CSR. Kronecker sampling,
 * edge weights and the CSR build are split across up to `threads`
 * threads (0 selects ThreadPool::hardwareJobs()); the graph is
 * bit-identical for every thread count.
 */
CsrGraph generate(const GraphSpec &spec, u32 threads = 0);

/**
 * R-MAT quadrant choice on integers. Each bit of an edge draws one
 * Rng::uniformBits() value x and picks the quadrant the double ladder
 * `r < a`, `r < a+b`, `r < a+b+c` (r = x * 2^-53) would pick, by
 * comparing x against the three thresholds uniformThreshold() derives
 * once from those same double sums. The result is exact for any
 * (a, b, c) and has no data-dependent branch.
 */
class RmatSampler
{
  public:
    RmatSampler(double a, double b, double c)
        : t_a_(uniformThreshold(a)),
          t_ab_(uniformThreshold(a + b)),
          t_abc_(uniformThreshold(a + b + c))
    {
    }

    /** One edge of a 2^scale-vertex graph; draws `scale` values. */
    Edge
    edge(unsigned scale, Rng &rng) const
    {
        NodeId src = 0;
        NodeId dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            const u64 x = rng.uniformBits();
            // (src, dst) bits: 00 below t_a, 01 below t_ab, 10 below
            // t_abc, else 11.
            const NodeId past_a = x >= t_a_;
            const NodeId past_ab = x >= t_ab_;
            const NodeId past_abc = x >= t_abc_;
            src = (src << 1) | (past_a & past_ab);
            dst = (dst << 1) | (past_a & (past_abc | (past_ab ^ 1)));
        }
        return {src, dst};
    }

  private:
    u64 t_a_;
    u64 t_ab_;
    u64 t_abc_;
};

/** GAP's R-MAT quadrant probabilities; d = 1 - a - b - c = .05. */
inline constexpr double kRmatA = 0.57;
inline constexpr double kRmatB = 0.19;
inline constexpr double kRmatC = 0.19;

/**
 * The directed edge list of a Kronecker spec: edge i is
 * RmatSampler::edge draw i, with GAP's (a,b,c,d), of Rng(spec.seed), so
 * it starts at stream position i * scale. Slices go to up to `threads`
 * threads (0: ThreadPool::hardwareJobs()), each jumping its copy of
 * the stream to its slice with Rng::advance; the list is the same for
 * every thread count.
 */
std::vector<Edge> kroneckerEdges(const GraphSpec &spec, u32 threads = 0);

/** One R-MAT edge, by default with GAP's (a,b,c,d). */
Edge rmatEdge(unsigned scale, Rng &rng, double a = kRmatA,
              double b = kRmatB, double c = kRmatC);

/**
 * Attach uniform random weights in [1, max_weight] to a graph, edge i
 * taking draw i of the seed's stream, on up to `threads` threads (0:
 * ThreadPool::hardwareJobs()).
 */
CsrGraph withUniformWeights(CsrGraph graph, u64 seed, u32 max_weight = 255,
                            u32 threads = 0);

/**
 * Degree-based grouping (DBG) reorder [Faldu et al., IISWC'19]: place
 * vertices into log2-degree groups, hottest (highest degree) group
 * first, preserving relative order within groups. The paper evaluates
 * each graph workload on both sorted (DBG) and unsorted inputs.
 */
CsrGraph dbgReorder(const CsrGraph &graph);

} // namespace pccsim::graph
