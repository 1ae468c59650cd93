/**
 * @file
 * Reproduces Fig. 2: page-level reuse-distance characterization of BFS
 * on a Kronecker network. For every 4KB page we compute the mean reuse
 * distance at 4KB and at the enclosing 2MB granularity and classify
 * pages as TLB-friendly / HUB / low-reuse using the paper's threshold
 * (1024, a typical L2 TLB entry count). Emits the class census plus a
 * scatter sample (CSV columns: reuse_4k, reuse_2m, class) of every
 * Nth page, N from --scatter-every (default 97).
 */

#include "analysis/reuse.hpp"
#include "common.hpp"
#include "workloads/registry.hpp"

using namespace pccsim;
using namespace pccsim::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = BenchEnv::parse(argc, argv, {"bfs"});
    Options opts(argc, argv);
    const u64 threshold =
        static_cast<u64>(opts.getInt("threshold", 1024));
    // Not --sample: BenchEnv reads that as the W:F sampled-mode window.
    const u64 sample_every =
        static_cast<u64>(opts.getInt("scatter-every", 97));

    workloads::WorkloadSpec wspec;
    wspec.name = env.apps.front();
    wspec.scale = env.scale;
    wspec.seed = env.seed;
    auto workload = workloads::makeWorkload(wspec);
    os::Process proc(0, 8ull << 30);
    workload->setup(proc);

    analysis::ReuseTracker tracker(threshold);
    auto lane = workload->lane(0, 1);
    // Skip the init phase: Fig. 2 characterizes steady-state access
    // behaviour, not first-touch initialization.
    while (lane.next() &&
           lane.value().kind != workloads::OpKind::Barrier) {
    }
    while (lane.next()) {
        if (lane.value().kind != workloads::OpKind::Barrier)
            tracker.touch(lane.value().addr);
    }

    const auto summary = tracker.summarize();
    Table census({"class", "pages", "share %"});
    census.row({"TLB-friendly", std::to_string(summary.tlb_friendly),
                Table::fmt(percent(summary.tlb_friendly,
                                   summary.total()), 1)});
    census.row({"HUB", std::to_string(summary.hubs),
                Table::fmt(percent(summary.hubs, summary.total()), 1)});
    census.row({"low-reuse", std::to_string(summary.low_reuse),
                Table::fmt(percent(summary.low_reuse,
                                   summary.total()), 1)});
    env.emit(census, "Fig. 2: page classification census (" +
                         wspec.name + ")");

    // Scatter sample in the figure's axes.
    Table scatter({"reuse_4k", "reuse_2m", "class"});
    const auto pages = tracker.results();
    for (u64 i = 0; i < pages.size(); i += sample_every) {
        const auto &p = pages[i];
        const char *cls =
            p.cls == analysis::ReuseClass::TlbFriendly ? "friendly"
            : p.cls == analysis::ReuseClass::Hub       ? "hub"
                                                       : "low";
        scatter.row({Table::fmt(p.mean_4k, 0), Table::fmt(p.mean_2m, 0),
                     cls});
    }
    std::printf("## Fig. 2 scatter sample (1/%llu pages)\n\n%s\n",
                static_cast<unsigned long long>(sample_every),
                scatter.csv().c_str());

    // The top promotion candidates by HUB-page count — what an ideal
    // oracle would hand the OS.
    const auto hubs = tracker.hubRegions();
    std::printf("hub regions: %zu (top candidates for promotion)\n",
                hubs.size());
    return 0;
}
