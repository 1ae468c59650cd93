#include "workloads/registry.hpp"

#include <future>
#include <map>
#include <mutex>
#include <sstream>

#include "util/log.hpp"
#include "workloads/graph_workloads.hpp"
#include "workloads/suite_workloads.hpp"
#include "workloads/synthetic.hpp"

namespace pccsim::workloads {

ScaleParams
scaleParams(Scale scale)
{
    switch (scale) {
      case Scale::Ci:
        return {16, 8, 8ull << 20, 1'000'000, 2};
      case Scale::Small:
        return {18, 16, 48ull << 20, 4'000'000, 2};
      case Scale::Medium:
        return {20, 16, 192ull << 20, 16'000'000, 2};
      case Scale::Paper:
        return {23, 24, 800ull << 20, 64'000'000, 3};
    }
    return {16, 16, 32ull << 20, 2'000'000, 2};
}

Scale
scaleFromString(const std::string &name)
{
    if (name == "ci")
        return Scale::Ci;
    if (name == "small")
        return Scale::Small;
    if (name == "medium")
        return Scale::Medium;
    if (name == "paper")
        return Scale::Paper;
    fatal("unknown scale '", name, "' (ci|small|medium|paper)");
}

std::string
to_string(Scale scale)
{
    switch (scale) {
      case Scale::Ci: return "ci";
      case Scale::Small: return "small";
      case Scale::Medium: return "medium";
      case Scale::Paper: return "paper";
    }
    return "?";
}

const std::vector<std::string> &
allWorkloadNames()
{
    static const std::vector<std::string> names = {
        "bfs", "sssp", "pr", "canneal", "omnetpp",
        "xalancbmk", "dedup", "mcf"};
    return names;
}

const std::vector<std::string> &
graphWorkloadNames()
{
    static const std::vector<std::string> names = {"bfs", "sssp", "pr"};
    return names;
}

bool
isGraphWorkload(const std::string &name)
{
    return name == "bfs" || name == "sssp" || name == "pr";
}

namespace {

struct GraphKey
{
    unsigned scale;
    unsigned degree;
    graph::NetworkKind kind;
    bool weighted;
    bool sorted;
    u64 seed;

    bool
    operator<(const GraphKey &other) const
    {
        return std::tie(scale, degree, kind, weighted, sorted, seed) <
               std::tie(other.scale, other.degree, other.kind,
                        other.weighted, other.sorted, other.seed);
    }
};

/** Approximate retained bytes of a CSR graph (for the LRU budget). */
u64
graphBytes(const graph::CsrGraph &g)
{
    return (static_cast<u64>(g.numNodes()) + 1) * 8 + g.numEdges() * 4 +
           (g.hasWeights() ? g.numEdges() * 4 : 0);
}

using GraphPtr = std::shared_ptr<const graph::CsrGraph>;

/**
 * Graph inputs shared by every workload of the process. A graph stays
 * while anyone holds it (a weak map). The most recent ones are also
 * held strongly, within a byte budget: the weak map alone lets a graph
 * die between back-to-back serial runs, so a harness sweeping
 * configurations would regenerate the same input dozens of times. The
 * budget bounds retention (paper-scale graphs run to hundreds of MB);
 * the newest graph is always kept.
 *
 * A graph is built outside the lock, once per key: the first caller
 * builds it, later callers for that key wait for the build, and callers
 * for any other key go on meanwhile.
 */
class GraphCache
{
  public:
    GraphPtr
    get(const GraphKey &key, const graph::GraphSpec &spec, bool dbg_sorted)
    {
        std::promise<GraphPtr> promise;
        std::shared_future<GraphPtr> pending;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            Slot &slot = slots_[key];
            if (GraphPtr hit = slot.graph.lock()) {
                remember(key, hit);
                return hit;
            }
            pending = slot.building;
            if (!pending.valid())
                slot.building = promise.get_future().share();
        }
        if (pending.valid())
            return pending.get(); // rethrows the builder's failure

        GraphPtr built;
        try {
            graph::CsrGraph g = graph::generate(spec);
            if (dbg_sorted)
                g = graph::dbgReorder(g);
            built = std::make_shared<const graph::CsrGraph>(std::move(g));
        } catch (...) {
            finish(key, nullptr);
            promise.set_exception(std::current_exception());
            throw;
        }
        finish(key, built);
        promise.set_value(built);
        return built;
    }

  private:
    struct Slot
    {
        std::weak_ptr<const graph::CsrGraph> graph;
        std::shared_future<GraphPtr> building; //!< valid while in flight
    };

    static constexpr u64 kRecentBudgetBytes = 512ull << 20;

    /** End the build of `key`, keeping `g` unless the build failed. */
    void
    finish(const GraphKey &key, const GraphPtr &g)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot &slot = slots_[key];
        slot.building = {};
        if (g) {
            slot.graph = g;
            remember(key, g);
        }
    }

    /** Make `g` the newest of the recent graphs; caller holds mutex_. */
    void
    remember(const GraphKey &key, const GraphPtr &g)
    {
        for (auto it = recent_.begin(); it != recent_.end(); ++it) {
            if (!(it->first < key) && !(key < it->first)) {
                recent_.erase(it);
                break;
            }
        }
        recent_.emplace_back(key, g);
        u64 total = 0;
        for (const auto &[k, kept] : recent_)
            total += graphBytes(*kept);
        while (recent_.size() > 1 && total > kRecentBudgetBytes) {
            total -= graphBytes(*recent_.front().second);
            recent_.erase(recent_.begin());
        }
    }

    std::mutex mutex_;
    std::map<GraphKey, Slot> slots_;
    std::vector<std::pair<GraphKey, GraphPtr>> recent_;
};

/**
 * Parse "syn:<pattern>:<footprintMB>:<ops>:<hot_regions>:<hot_percent>"
 * (fields after the pattern optional, later fields require earlier
 * ones; hot_percent, 1-100, is the share of accesses hitting the hot
 * set, 90 when absent). Patterns: uniform | zipf | seq | hot | spin.
 * Names fully-parameterized synthetic workloads inside a spec string,
 * for the fuzz harness and the controlled sensitivity studies.
 */
WorkloadPtr
makeSynthetic(const WorkloadSpec &spec)
{
    std::istringstream is(spec.name.substr(4));
    std::string field;
    SyntheticSpec syn;
    syn.seed = spec.seed;

    if (!std::getline(is, field, ':'))
        fatal("synthetic workload '", spec.name, "': missing pattern");
    if (field == "uniform")
        syn.pattern = Pattern::Uniform;
    else if (field == "zipf")
        syn.pattern = Pattern::Zipf;
    else if (field == "seq")
        syn.pattern = Pattern::Sequential;
    else if (field == "hot")
        syn.pattern = Pattern::HotRegions;
    else if (field == "spin")
        syn.pattern = Pattern::Spin;
    else
        fatal("synthetic workload '", spec.name, "': unknown pattern '",
              field, "' (uniform|zipf|seq|hot|spin)");

    const auto nextU64 = [&](const char *what, u64 &out) {
        if (!std::getline(is, field, ':'))
            return false;
        char *end = nullptr;
        const u64 v = std::strtoull(field.c_str(), &end, 10);
        if (end != field.c_str() + field.size() || field.empty())
            fatal("synthetic workload '", spec.name, "': bad ", what,
                  " '", field, "'");
        out = v;
        return true;
    };
    u64 mb = 0;
    if (nextU64("footprint", mb)) {
        if (mb == 0)
            fatal("synthetic workload '", spec.name,
                  "': footprint must be >= 1 MB");
        syn.footprint_bytes = mb << 20;
    }
    nextU64("ops", syn.ops);
    nextU64("hot_regions", syn.hot_regions);
    if (u64 hot_percent = 0; nextU64("hot_percent", hot_percent)) {
        if (hot_percent < 1 || hot_percent > 100)
            fatal("synthetic workload '", spec.name,
                  "': hot_percent must be 1-100");
        syn.hot_fraction = static_cast<double>(hot_percent) / 100.0;
    }
    if (std::getline(is, field, ':'))
        fatal("synthetic workload '", spec.name, "': trailing field '",
              field, "'");
    return std::make_unique<SyntheticWorkload>(syn);
}

} // namespace

std::shared_ptr<const graph::CsrGraph>
graphInput(const WorkloadSpec &spec)
{
    static GraphCache cache;
    const ScaleParams params = scaleParams(spec.scale);
    graph::GraphSpec gspec;
    gspec.scale = params.graph_scale;
    gspec.avg_degree = params.avg_degree;
    gspec.kind = spec.network;
    gspec.weighted = spec.name == "sssp";
    gspec.seed = spec.seed;
    const GraphKey key{gspec.scale,     gspec.avg_degree, gspec.kind,
                       gspec.weighted,  spec.dbg_sorted,  gspec.seed};
    return cache.get(key, gspec, spec.dbg_sorted);
}

WorkloadPtr
makeWorkload(const WorkloadSpec &spec)
{
    if (spec.name.rfind("syn:", 0) == 0)
        return makeSynthetic(spec);
    const ScaleParams params = scaleParams(spec.scale);
    if (spec.name == "bfs")
        return std::make_unique<BfsWorkload>(graphInput(spec));
    if (spec.name == "sssp")
        return std::make_unique<SsspWorkload>(graphInput(spec));
    if (spec.name == "pr") {
        return std::make_unique<PageRankWorkload>(graphInput(spec),
                                                  params.pr_iterations);
    }
    if (spec.name == "canneal") {
        return std::make_unique<CannealWorkload>(
            params.suite_footprint, params.suite_ops / 4, spec.seed);
    }
    if (spec.name == "omnetpp") {
        return std::make_unique<OmnetppWorkload>(
            params.suite_footprint / 2, params.suite_ops, spec.seed);
    }
    if (spec.name == "xalancbmk") {
        return std::make_unique<XalancWorkload>(
            params.suite_footprint / 2, params.suite_ops, spec.seed);
    }
    if (spec.name == "dedup") {
        return std::make_unique<DedupWorkload>(
            params.suite_footprint, params.suite_ops * 2, spec.seed);
    }
    if (spec.name == "mcf") {
        return std::make_unique<McfWorkload>(
            params.suite_footprint, params.suite_ops * 2, spec.seed);
    }
    fatal("unknown workload '", spec.name, "'");
}

} // namespace pccsim::workloads
