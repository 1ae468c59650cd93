#include "workloads/graph_workloads.hpp"

#include <limits>

#include "util/log.hpp"

namespace pccsim::workloads {

using graph::NodeId;

namespace {

constexpr u32 kInf = std::numeric_limits<u32>::max();

/** Deterministic high-degree source: the hub the paper's BFS hits. */
NodeId
pickSource(const graph::CsrGraph &g)
{
    NodeId best = 0;
    u32 best_deg = 0;
    // Sampling every 64th vertex is enough to find a hub and keeps the
    // scan cheap on big graphs.
    for (NodeId v = 0; v < g.numNodes(); v += 64) {
        if (g.degree(v) > best_deg) {
            best_deg = g.degree(v);
            best = v;
        }
    }
    return best;
}

} // namespace

Generator<BatchEnd>
GraphWorkloadBase::touchRange(Addr base, u64 bytes, AccessBuffer &buf,
                              u64 stride)
{
    for (u64 off = 0; off < bytes; off += stride)
        if (buf.pushStore(base + off))
            co_yield BatchEnd::Ops;
}

u64
GraphWorkloadBase::setupCsr(os::Process &proc, bool weighted)
{
    const u64 offsets_bytes =
        (static_cast<u64>(graph_->numNodes()) + 1) * sizeof(u64);
    const u64 targets_bytes = graph_->numEdges() * sizeof(NodeId);
    a_offsets_ = proc.mmap(offsets_bytes, "csr.offsets");
    a_targets_ = proc.mmap(targets_bytes, "csr.targets");
    u64 total = offsets_bytes + targets_bytes;
    if (weighted) {
        const u64 weights_bytes = graph_->numEdges() * sizeof(u32);
        a_weights_ = proc.mmap(weights_bytes, "csr.weights");
        total += weights_bytes;
    }
    return total;
}

// ------------------------------------------------------------------ BFS

void
BfsWorkload::setup(os::Process &proc)
{
    footprint_ = setupCsr(proc, false);
    const u64 n = graph_->numNodes();
    a_parent_ = proc.mmap(n * sizeof(u32), "bfs.parent");
    a_queue_ = proc.mmap(2 * n * sizeof(u32), "bfs.queues");
    footprint_ += n * sizeof(u32) + 2 * n * sizeof(u32);
}

Generator<BatchEnd>
BfsWorkload::batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf)
{
    PCCSIM_ASSERT(a_parent_ != 0, "setup() must run before lane()");
    const NodeId n = graph_->numNodes();
    const auto [lo, hi] = laneRange(lane, num_lanes);

    if (lane == 0) {
        visited_.assign((u64(n) + 63) / 64, 0);
        next_.assign(num_lanes, {});
        frontier_.clear();
    }

    // Init phase: first-touch this lane's slices in address order.
    {
        auto touch_offsets = touchRange(
            offsetAddr(lo), (u64(hi) - lo + 1) * sizeof(u64), buf);
        while (touch_offsets.next())
            co_yield touch_offsets.value();
        const u64 e_lo = graph_->offsets()[lo];
        const u64 e_hi = graph_->offsets()[hi];
        auto touch_targets = touchRange(
            targetAddr(e_lo), (e_hi - e_lo) * sizeof(NodeId), buf);
        while (touch_targets.next())
            co_yield touch_targets.value();
        auto touch_parent = touchRange(
            a_parent_ + u64(lo) * sizeof(u32),
            (u64(hi) - lo) * sizeof(u32), buf);
        while (touch_parent.next())
            co_yield touch_parent.value();
        auto touch_queue = touchRange(
            a_queue_ + u64(lo) * 2 * sizeof(u32),
            (u64(hi) - lo) * 2 * sizeof(u32), buf);
        while (touch_queue.next())
            co_yield touch_queue.value();
    }
    co_yield BatchEnd::Barrier;

    if (lane == 0) {
        const NodeId src = pickSource(*graph_);
        visited_[src >> 6] |= 1ull << (src & 63);
        frontier_.assign(1, src);
    }
    co_yield BatchEnd::Barrier;

    const Addr q_cur = a_queue_;
    const Addr q_next = a_queue_ + u64(n) * sizeof(u32);
    const u64 lane_seg = (u64(n) / num_lanes) * sizeof(u32);

    while (!frontier_.empty()) {
        u64 appended = 0;
        for (u64 i = lane; i < frontier_.size(); i += num_lanes) {
            if (buf.pushLoad(q_cur + i * sizeof(u32)))
                co_yield BatchEnd::Ops;
            const NodeId u = frontier_[i];
            if (buf.pushLoad(offsetAddr(u)))
                co_yield BatchEnd::Ops;
            const u64 e_begin = graph_->offsets()[u];
            const u64 e_end = graph_->offsets()[u + 1];
            for (u64 j = e_begin; j < e_end; ++j) {
                if (buf.pushLoad(targetAddr(j)))
                    co_yield BatchEnd::Ops;
                const NodeId v = graph_->targets()[j];
                if (buf.pushLoad(a_parent_ + u64(v) * sizeof(u32)))
                    co_yield BatchEnd::Ops;
                u64 &word = visited_[v >> 6];
                const u64 bit = 1ull << (v & 63);
                if (!(word & bit)) {
                    word |= bit;
                    if (buf.pushStore(a_parent_ + u64(v) * sizeof(u32)))
                        co_yield BatchEnd::Ops;
                    next_[lane].push_back(v);
                    if (buf.pushStore(
                            q_next + lane * lane_seg +
                            (appended++ % (u64(n) / num_lanes)) *
                                sizeof(u32)))
                        co_yield BatchEnd::Ops;
                }
            }
        }
        co_yield BatchEnd::Barrier;
        if (lane == 0) {
            frontier_.clear();
            for (auto &chunk : next_) {
                frontier_.insert(frontier_.end(), chunk.begin(),
                                 chunk.end());
                chunk.clear();
            }
        }
        co_yield BatchEnd::Barrier;
    }
}

// ----------------------------------------------------------------- SSSP

void
SsspWorkload::setup(os::Process &proc)
{
    PCCSIM_ASSERT(graph_->hasWeights(), "SSSP needs a weighted graph");
    footprint_ = setupCsr(proc, true);
    const u64 n = graph_->numNodes();
    a_dist_ = proc.mmap(n * sizeof(u32), "sssp.dist");
    footprint_ += n * sizeof(u32);
}

Generator<BatchEnd>
SsspWorkload::batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf)
{
    PCCSIM_ASSERT(a_dist_ != 0, "setup() must run before lane()");
    const NodeId n = graph_->numNodes();
    const auto [lo, hi] = laneRange(lane, num_lanes);

    if (lane == 0) {
        dist_.assign(n, kInf);
        buckets_.clear();
        next_.assign(num_lanes, {});
        current_bucket_ = 0;
    }

    // Init: touch offsets, targets, weights, dist.
    {
        auto t1 = touchRange(offsetAddr(lo),
                             (u64(hi) - lo + 1) * sizeof(u64), buf);
        while (t1.next())
            co_yield t1.value();
        const u64 e_lo = graph_->offsets()[lo];
        const u64 e_hi = graph_->offsets()[hi];
        auto t2 = touchRange(targetAddr(e_lo),
                             (e_hi - e_lo) * sizeof(NodeId), buf);
        while (t2.next())
            co_yield t2.value();
        auto t3 = touchRange(weightAddr(e_lo),
                             (e_hi - e_lo) * sizeof(u32), buf);
        while (t3.next())
            co_yield t3.value();
        auto t4 = touchRange(a_dist_ + u64(lo) * sizeof(u32),
                             (u64(hi) - lo) * sizeof(u32), buf);
        while (t4.next())
            co_yield t4.value();
    }
    co_yield BatchEnd::Barrier;

    if (lane == 0) {
        const NodeId src = pickSource(*graph_);
        dist_[src] = 0;
        buckets_.assign(1, {src});
        current_bucket_ = 0;
    }
    co_yield BatchEnd::Barrier;

    auto relax = [&](NodeId v, u32 cand) -> bool {
        if (cand < dist_[v]) {
            dist_[v] = cand;
            next_[lane].push_back(v);
            return true;
        }
        return false;
    };

    while (true) {
        // Lane 0 advanced current_bucket_ past empty buckets already.
        if (current_bucket_ >= buckets_.size())
            break;
        auto &bucket = buckets_[current_bucket_];
        for (u64 i = lane; i < bucket.size(); i += num_lanes) {
            const NodeId u = bucket[i];
            if (buf.pushLoad(a_dist_ + u64(u) * sizeof(u32)))
                co_yield BatchEnd::Ops;
            if (dist_[u] / delta_ != current_bucket_)
                continue; // stale entry, superseded by a better path
            if (buf.pushLoad(offsetAddr(u)))
                co_yield BatchEnd::Ops;
            const u64 e_begin = graph_->offsets()[u];
            const u64 e_end = graph_->offsets()[u + 1];
            for (u64 j = e_begin; j < e_end; ++j) {
                if (buf.pushLoad(targetAddr(j)))
                    co_yield BatchEnd::Ops;
                if (buf.pushLoad(weightAddr(j)))
                    co_yield BatchEnd::Ops;
                const NodeId v = graph_->targets()[j];
                const u32 w = graph_->weights()[j];
                if (buf.pushLoad(a_dist_ + u64(v) * sizeof(u32)))
                    co_yield BatchEnd::Ops;
                if (relax(v, dist_[u] + w))
                    if (buf.pushStore(a_dist_ + u64(v) * sizeof(u32)))
                        co_yield BatchEnd::Ops;
            }
        }
        co_yield BatchEnd::Barrier;
        if (lane == 0) {
            buckets_[current_bucket_].clear();
            for (auto &chunk : next_) {
                for (const NodeId v : chunk) {
                    const u64 b = dist_[v] / delta_;
                    if (b >= buckets_.size())
                        buckets_.resize(b + 1);
                    if (b >= current_bucket_)
                        buckets_[b].push_back(v);
                    else
                        buckets_[current_bucket_].push_back(v);
                }
                chunk.clear();
            }
            while (current_bucket_ < buckets_.size() &&
                   buckets_[current_bucket_].empty()) {
                ++current_bucket_;
            }
        }
        co_yield BatchEnd::Barrier;
    }
}

// ------------------------------------------------------------- PageRank

void
PageRankWorkload::setup(os::Process &proc)
{
    footprint_ = setupCsr(proc, false);
    const u64 n = graph_->numNodes();
    a_contrib_ = proc.mmap(n * sizeof(double), "pr.contrib");
    a_rank_ = proc.mmap(n * sizeof(double), "pr.rank");
    footprint_ += 2 * n * sizeof(double);
}

Generator<BatchEnd>
PageRankWorkload::batchLane(u32 lane, u32 num_lanes, AccessBuffer &buf)
{
    PCCSIM_ASSERT(a_contrib_ != 0, "setup() must run before lane()");
    const auto [lo, hi] = laneRange(lane, num_lanes);

    {
        auto t1 = touchRange(offsetAddr(lo),
                             (u64(hi) - lo + 1) * sizeof(u64), buf);
        while (t1.next())
            co_yield t1.value();
        const u64 e_lo = graph_->offsets()[lo];
        const u64 e_hi = graph_->offsets()[hi];
        auto t2 = touchRange(targetAddr(e_lo),
                             (e_hi - e_lo) * sizeof(NodeId), buf);
        while (t2.next())
            co_yield t2.value();
        auto t3 = touchRange(a_contrib_ + u64(lo) * sizeof(double),
                             (u64(hi) - lo) * sizeof(double), buf);
        while (t3.next())
            co_yield t3.value();
        auto t4 = touchRange(a_rank_ + u64(lo) * sizeof(double),
                             (u64(hi) - lo) * sizeof(double), buf);
        while (t4.next())
            co_yield t4.value();
    }
    co_yield BatchEnd::Barrier;

    for (u32 iter = 0; iter < iterations_; ++iter) {
        // Pull phase: gather neighbor contributions (irregular reads).
        for (NodeId v = lo; v < hi; ++v) {
            if (buf.pushLoad(offsetAddr(v)))
                co_yield BatchEnd::Ops;
            const u64 e_begin = graph_->offsets()[v];
            const u64 e_end = graph_->offsets()[v + 1];
            for (u64 j = e_begin; j < e_end; ++j) {
                if (buf.pushLoad(targetAddr(j)))
                    co_yield BatchEnd::Ops;
                const NodeId u = graph_->targets()[j];
                if (buf.pushLoad(a_contrib_ + u64(u) * sizeof(double)))
                    co_yield BatchEnd::Ops;
            }
            if (buf.pushStore(a_rank_ + u64(v) * sizeof(double)))
                co_yield BatchEnd::Ops;
        }
        co_yield BatchEnd::Barrier;
        // Contribution refresh: streaming pass over this lane's slice.
        for (NodeId v = lo; v < hi; ++v) {
            if (buf.pushLoad(a_rank_ + u64(v) * sizeof(double)))
                co_yield BatchEnd::Ops;
            if (buf.pushStore(a_contrib_ + u64(v) * sizeof(double)))
                co_yield BatchEnd::Ops;
        }
        co_yield BatchEnd::Barrier;
    }
}

} // namespace pccsim::workloads
