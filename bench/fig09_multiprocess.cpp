/**
 * @file
 * Reproduces Fig. 9: two single-threaded processes sharing the
 * system's huge-page resources. Case (a): PageRank (TLB-sensitive)
 * next to mcf (insensitive). Case (b): PageRank next to SSSP (both
 * sensitive). For each promotion cap (percent of the *combined*
 * footprint) and each arbitration policy, prints per-process speedup
 * and THP usage.
 *
 * Shape targets: with one insensitive neighbour, the frequency policy
 * funnels THPs to the sensitive process and performs slightly better;
 * with two sensitive processes the policies converge, with round
 * robin avoiding starvation.
 *
 * --oracle and --sample exit 1: the shared-core section (9c) runs in
 * tenant mode, which supports neither.
 */

#include "common.hpp"

using namespace pccsim;
using namespace pccsim::bench;

namespace {

struct PairResult
{
    double speedup_a;
    double speedup_b;
    u64 thps_a;
    u64 thps_b;
};

/** `a` on core 0 with `b` co-running on core 1, both at env's seed. */
sim::ExperimentSpec
pairSpec(const BenchEnv &env, const std::string &a, const std::string &b,
         sim::PolicyKind policy, double cap)
{
    sim::ExperimentSpec spec = env.spec(a, policy);
    spec.cap_percent = cap;
    spec.corunners = {spec.workload};
    spec.corunners[0].name = b;
    return spec;
}

PairResult
toPairResult(const sim::RunResult &base, const sim::RunResult &run)
{
    return {sim::speedup(base, run, 0), sim::speedup(base, run, 1),
            run.jobs[0].promotions, run.jobs[1].promotions};
}

void
caseStudy(const BenchEnv &env, const std::string &a,
          const std::string &b, const std::string &title)
{
    // Spec 0 is the shared 4KB baseline, the last the unconstrained
    // ideal; between them each cap runs both arbitration orders.
    std::vector<sim::ExperimentSpec> specs;
    specs.push_back(pairSpec(env, a, b, sim::PolicyKind::Base, 0.0));
    for (double cap : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, -1.0}) {
        for (os::PromotionOrder order :
             {os::PromotionOrder::HighestFrequency,
              os::PromotionOrder::RoundRobin}) {
            specs.push_back(pairSpec(env, a, b, sim::PolicyKind::Pcc, cap));
            specs.back().pcc_policy.order = order;
        }
    }
    specs.push_back(pairSpec(env, a, b, sim::PolicyKind::AllHuge, -1.0));
    const auto runs = runAll(specs);
    const sim::RunResult &base = *runs.front();

    Table table({"cap %", "policy", a + " speedup", b + " speedup",
                 a + " THPs", b + " THPs"});
    for (size_t i = 1; i + 1 < runs.size(); ++i) {
        const auto r = toPairResult(base, *runs[i]);
        table.row({capLabel(specs[i].cap_percent),
                   specs[i].pcc_policy.order ==
                           os::PromotionOrder::RoundRobin
                       ? "round-robin"
                       : "highest-freq",
                   Table::fmt(r.speedup_a, 3),
                   Table::fmt(r.speedup_b, 3),
                   std::to_string(r.thps_a),
                   std::to_string(r.thps_b)});
    }
    // Reference: unconstrained ideal.
    const auto ideal = toPairResult(base, *runs.back());
    env.emit(table, title);
    std::printf("  ideal: %s=%.3f %s=%.3f (THPs %llu / %llu)\n\n",
                a.c_str(), ideal.speedup_a, b.c_str(), ideal.speedup_b,
                static_cast<unsigned long long>(ideal.thps_a),
                static_cast<unsigned long long>(ideal.thps_b));
}

/**
 * Companion section: the same process pair, but *time-sharing one
 * core* in tenant mode, flush-on-switch vs ASID-tagged TLBs. The
 * two-core case studies above never context-switch; this is where the
 * switch-mode choice shows up. Expected shape: ASID rows strictly
 * below flush rows in walks and wall cycles, equal in accesses.
 */
void
switchModeStudy(const BenchEnv &env, const std::string &a,
                const std::string &b)
{
    std::vector<sim::ExperimentSpec> specs;
    for (tenant::SwitchMode mode :
         {tenant::SwitchMode::Flush, tenant::SwitchMode::Asid}) {
        sim::ExperimentSpec spec =
            pairSpec(env, a, b, sim::PolicyKind::Pcc, -1.0);
        spec.corunners[0].seed = env.seed + 1;
        spec.telemetry.enabled = true;
        shareOneCore(spec, mode, 1024);
        specs.push_back(std::move(spec));
    }
    const auto runs = runAll(specs);

    Table table({"switch", a + " walks", b + " walks", "miss %",
                 "wall Mcyc"});
    auto addRow = [&](const char *label, const sim::RunResult &r) {
        u64 walks = 0, tlb = 0;
        for (const auto &job : r.jobs) {
            walks += job.walks;
            tlb += job.tlb_accesses;
        }
        table.row({label, std::to_string(r.jobs[0].walks),
                   std::to_string(r.jobs[1].walks),
                   Table::fmt(percent(walks, tlb), 2),
                   Table::fmt(static_cast<double>(r.wall_cycles) / 1e6,
                              1)});
    };
    addRow("flush", *runs[0]);
    addRow("asid", *runs[1]);
    env.emit(table, "Fig. 9c: " + a + " + " + b +
                        " time-sharing one core (flush vs ASID)");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchEnv env = BenchEnv::parse(argc, argv, {});
    env.rejectOracleAndSampling("fig09c's time-shared core");
    caseStudy(env, "pr", "mcf",
              "Fig. 9a: TLB-sensitive (pr) + insensitive (mcf)");
    caseStudy(env, "pr", "sssp",
              "Fig. 9b: two TLB-sensitive applications (pr + sssp)");
    switchModeStudy(env, "pr", "mcf");
    emitTailSummary();
    return 0;
}
