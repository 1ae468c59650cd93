/**
 * @file
 * GAP-style graph workloads: Breadth-First Search, Single-Source
 * Shortest Paths (bucketed delta-stepping), and PageRank (pull form).
 *
 * Each kernel runs for real on a host-side CSR graph while mirroring
 * every load/store of its simulated arrays into the process heap. The
 * per-vertex property arrays accessed through neighbor indices are the
 * irregular, high-reuse data the paper identifies as HUBs; the CSR
 * offset/target arrays are streamed and thus mostly TLB-friendly.
 */

#pragma once

#include <memory>
#include <vector>

#include "graph/csr.hpp"
#include "workloads/workload.hpp"

namespace pccsim::workloads {

/** Shared setup/layout logic for the graph kernels. */
class GraphWorkloadBase : public Workload
{
  public:
    explicit GraphWorkloadBase(std::shared_ptr<const graph::CsrGraph> g)
        : graph_(std::move(g))
    {
    }

    u64 footprintBytes() const override { return footprint_; }
    u32 maxLanes() const override { return 16; }

  protected:
    /**
     * Sequentially touch [base, base+bytes) with stores (init phase),
     * pushed into buf. Callers forward its yields:
     * `while (t.next()) co_yield t.value();`.
     */
    static Generator<BatchEnd> touchRange(Addr base, u64 bytes,
                                          AccessBuffer &buf,
                                          u64 stride = 64);

    /** This lane's contiguous vertex range under num_lanes lanes. */
    std::pair<graph::NodeId, graph::NodeId>
    laneRange(u32 lane, u32 num_lanes) const
    {
        const graph::NodeId n = graph_->numNodes();
        const graph::NodeId lo =
            static_cast<graph::NodeId>(u64(n) * lane / num_lanes);
        const graph::NodeId hi =
            static_cast<graph::NodeId>(u64(n) * (lane + 1) / num_lanes);
        return {lo, hi};
    }

    // Simulated addresses of CSR members, assigned in setup().
    Addr a_offsets_ = 0;   //!< u64 per node (+1)
    Addr a_targets_ = 0;   //!< u32 per edge
    Addr a_weights_ = 0;   //!< u32 per edge (weighted graphs only)

    Addr
    offsetAddr(graph::NodeId v) const
    {
        return a_offsets_ + static_cast<u64>(v) * sizeof(u64);
    }

    Addr
    targetAddr(u64 edge_index) const
    {
        return a_targets_ + edge_index * sizeof(graph::NodeId);
    }

    Addr
    weightAddr(u64 edge_index) const
    {
        return a_weights_ + edge_index * sizeof(u32);
    }

    /** mmap the CSR arrays; returns bytes allocated. */
    u64 setupCsr(os::Process &proc, bool weighted);

    std::shared_ptr<const graph::CsrGraph> graph_;
    u64 footprint_ = 0;
};

/** Top-down breadth-first search from a high-degree source. */
class BfsWorkload : public GraphWorkloadBase
{
  public:
    explicit BfsWorkload(std::shared_ptr<const graph::CsrGraph> g)
        : GraphWorkloadBase(std::move(g))
    {
    }

    std::string name() const override { return "bfs"; }
    void setup(os::Process &proc) override;
    Generator<BatchEnd>
    batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf) override;

  private:
    Addr a_parent_ = 0;  //!< u32 per node — the irregular HUB array
    Addr a_queue_ = 0;   //!< u32 per node, frontier storage
    // Host-side shared state for multi-lane runs.
    std::vector<graph::NodeId> frontier_;
    std::vector<std::vector<graph::NodeId>> next_;
    std::vector<u64> visited_; //!< bitset: v already reached
};

/** Delta-stepping SSSP over uniformly weighted edges. */
class SsspWorkload : public GraphWorkloadBase
{
  public:
    SsspWorkload(std::shared_ptr<const graph::CsrGraph> g, u32 delta = 32)
        : GraphWorkloadBase(std::move(g)), delta_(delta)
    {
    }

    std::string name() const override { return "sssp"; }
    void setup(os::Process &proc) override;
    Generator<BatchEnd>
    batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf) override;

  private:
    u32 delta_;
    Addr a_dist_ = 0; //!< u32 per node — irregular HUB array
    std::vector<u32> dist_;
    std::vector<std::vector<graph::NodeId>> buckets_;
    std::vector<std::vector<graph::NodeId>> next_;
    u64 current_bucket_ = 0;
};

/** Pull-based PageRank for a fixed number of iterations. */
class PageRankWorkload : public GraphWorkloadBase
{
  public:
    PageRankWorkload(std::shared_ptr<const graph::CsrGraph> g,
                     u32 iterations = 3)
        : GraphWorkloadBase(std::move(g)), iterations_(iterations)
    {
    }

    std::string name() const override { return "pr"; }
    void setup(os::Process &proc) override;
    Generator<BatchEnd>
    batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf) override;

  private:
    u32 iterations_;
    Addr a_contrib_ = 0; //!< f64 per node — irregular HUB array
    Addr a_rank_ = 0;    //!< f64 per node, written sequentially
};

} // namespace pccsim::workloads
