/**
 * @file
 * Compressed-sparse-row graph representation used by the GAP-style
 * graph workloads (BFS, SSSP, PageRank).
 */

#pragma once

#include <span>
#include <vector>

#include "util/log.hpp"
#include "util/types.hpp"

namespace pccsim::graph {

/** Vertex identifier. */
using NodeId = u32;

/** Immutable CSR graph, optionally edge-weighted. */
class CsrGraph
{
  public:
    CsrGraph() = default;

    /**
     * Construct from prebuilt arrays. offsets has num_nodes+1 entries;
     * weights is empty or parallel to targets.
     */
    CsrGraph(std::vector<u64> offsets, std::vector<NodeId> targets,
             std::vector<u32> weights = {})
        : offsets_(std::move(offsets)),
          targets_(std::move(targets)),
          weights_(std::move(weights))
    {
        PCCSIM_ASSERT(!offsets_.empty());
        PCCSIM_ASSERT(offsets_.back() == targets_.size());
        PCCSIM_ASSERT(weights_.empty() ||
                      weights_.size() == targets_.size());
    }

    NodeId
    numNodes() const
    {
        return static_cast<NodeId>(offsets_.empty() ? 0
                                                    : offsets_.size() - 1);
    }

    u64 numEdges() const { return targets_.size(); }

    u32
    degree(NodeId v) const
    {
        return static_cast<u32>(offsets_[v + 1] - offsets_[v]);
    }

    std::span<const NodeId>
    neighbors(NodeId v) const
    {
        return {targets_.data() + offsets_[v],
                targets_.data() + offsets_[v + 1]};
    }

    std::span<const u32>
    edgeWeights(NodeId v) const
    {
        PCCSIM_ASSERT(hasWeights());
        return {weights_.data() + offsets_[v],
                weights_.data() + offsets_[v + 1]};
    }

    bool hasWeights() const { return !weights_.empty(); }

    const std::vector<u64> &offsets() const { return offsets_; }
    const std::vector<NodeId> &targets() const { return targets_; }
    const std::vector<u32> &weights() const { return weights_; }

    /** The same vertices and edges with `weights`; consumes this graph. */
    CsrGraph
    withWeights(std::vector<u32> weights) &&
    {
        return CsrGraph(std::move(offsets_), std::move(targets_),
                        std::move(weights));
    }

    /** Host-side bytes of the CSR arrays (the simulated footprint core). */
    u64
    bytes() const
    {
        return offsets_.size() * sizeof(u64) +
               targets_.size() * sizeof(NodeId) +
               weights_.size() * sizeof(u32);
    }

  private:
    std::vector<u64> offsets_;
    std::vector<NodeId> targets_;
    std::vector<u32> weights_;
};

/** Directed edge used during construction. */
struct Edge
{
    NodeId src;
    NodeId dst;
};

/**
 * Build a CSR graph from an edge list.
 *
 * @param num_nodes Number of vertices.
 * @param edges Edge list; consumed (cleared) to bound peak memory.
 * @param symmetrize Insert both directions of every edge (GAP treats
 *        its inputs as undirected for BFS/PR).
 */
CsrGraph buildCsr(NodeId num_nodes, std::vector<Edge> &edges,
                  bool symmetrize = true);

} // namespace pccsim::graph
