/**
 * @file
 * Example: surviving a hostile memory system. Runs the PCC policy
 * through a deterministic fault storm — denied allocations, failing
 * and half-finished compactions, TLB-shootdown storms, and scheduled
 * fragmentation shocks — with the cross-layer invariant checker
 * sweeping the whole OS/memory/TLB state after every interval.
 *
 * Shows the graceful-degradation machinery end to end: backoff
 * retries recover transient allocation failures, and when base pages
 * run dry the OS demotes the coldest huge pages and reclaims their
 * never-touched (bloat) frames instead of giving up.
 *
 * Usage: pressure_storm [--scale=ci] [--seed=1] [--huge-fail=0.4]
 *                       [--compaction-fail=0.3] [--storm=0.2]
 */

#include <cstdio>

#include "sim/experiment.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace pccsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (sim::handleListFlags(opts.get("policy"), opts.get("hw")))
        return 0;
    const auto scale = workloads::scaleFromString(opts.get("scale", "ci"));
    const u64 seed = static_cast<u64>(opts.getInt("seed", 1));

    // 8 hot 2MB regions in a 64MB footprint.
    sim::ExperimentSpec clean_spec;
    clean_spec.workload.name = "syn:hot:64:1500000:8";
    clean_spec.workload.scale = scale;
    clean_spec.workload.seed = seed;
    clean_spec.policy = sim::PolicyKind::Pcc;
    clean_spec.cap_percent = 50.0;

    sim::ExperimentSpec storm_spec = clean_spec;
    sim::FaultConfig &faults = storm_spec.faults;
    faults.alloc_fail_huge = opts.getDouble("huge-fail", 0.4);
    faults.alloc_fail_base = 0.02;
    faults.compaction_fail = opts.getDouble("compaction-fail", 0.3);
    faults.compaction_partial = 0.3;
    faults.shootdown_storm = opts.getDouble("storm", 0.2);
    faults.shock_intervals = {2, 5};
    storm_spec.check_invariants = true;

    const auto clean = sim::runOne(clean_spec);
    const auto storm = sim::runOne(storm_spec);

    Table table({"metric", "clean", "under storm"});
    auto row = [&](const char *metric, u64 a, u64 b) {
        table.row({metric, std::to_string(a), std::to_string(b)});
    };
    row("wall cycles", clean.wall_cycles, storm.wall_cycles);
    row("promotions", clean.job().promotions, storm.job().promotions);
    row("demotions", clean.job().demotions, storm.job().demotions);
    row("walks", clean.job().walks, storm.job().walks);
    row("compactions", clean.compactions, storm.compactions);
    row("shootdowns", clean.shootdowns, storm.shootdowns);
    std::printf("PCC policy, clean vs injected fault storm "
                "(seed=%llu)\n\n%s\n",
                static_cast<unsigned long long>(seed),
                table.str().c_str());

    const auto &r = storm.resilience;
    Table anatomy({"fault / response", "count"});
    anatomy.row({"allocations denied", std::to_string(r.injected_alloc_fails)});
    anatomy.row({"compactions failed/aborted",
                 std::to_string(r.injected_compaction_fails)});
    anatomy.row({"shootdown storms", std::to_string(r.shootdown_storms)});
    anatomy.row({"fragmentation shocks", std::to_string(r.frag_shocks)});
    anatomy.row({"blocks pinned by shocks",
                 std::to_string(r.shock_blocks_pinned)});
    anatomy.row({"promotion retries", std::to_string(r.promote_retries)});
    anatomy.row({"retries that succeeded",
                 std::to_string(r.promote_retry_successes)});
    anatomy.row({"pressure-reclaim events",
                 std::to_string(r.reclaim_events)});
    anatomy.row({"huge pages demoted by reclaim",
                 std::to_string(r.reclaim_demotions)});
    anatomy.row({"bloat frames reclaimed",
                 std::to_string(r.reclaimed_frames)});
    anatomy.row({"invariant sweeps", std::to_string(r.invariant_checks)});
    anatomy.row({"invariant failures",
                 std::to_string(r.invariant_failures)});
    std::printf("What the storm run absorbed:\n\n%s\n",
                anatomy.str().c_str());

    if (r.invariant_failures != 0) {
        std::printf("INVARIANT VIOLATION: %s\n",
                    r.first_invariant_failure.c_str());
        return 1;
    }
    std::printf("Every injected fault was absorbed; %llu invariant "
                "sweeps found the OS/memory/TLB state consistent.\n",
                static_cast<unsigned long long>(r.invariant_checks));
    return 0;
}
