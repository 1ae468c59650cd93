/**
 * @file
 * Multi-tenant node sweep (the tenant-subsystem companion to Fig. 9):
 * N single-threaded tenants time-share one core under the contention
 * scheduler, and the sweep crosses tenant count x fragmentation x
 * huge-page budget arbiter, with flush-on-switch vs ASID-tagged TLBs
 * side by side. Per point it reports wall cycles, total walks, TLB
 * miss rate, context switches, promotions, compaction runs (how the
 * node pays for fragmentation), arbiter budget rejections, and the
 * counterfactual regret those rejections cost.
 *
 * Shape targets: ASID tagging strictly reduces walks and wall time at
 * every point (the refill storm after each quantum disappears);
 * "static" keeps promotions near-equal across tenants while "greedy"
 * follows raw demand; budget rejections and regret appear only when an
 * arbiter other than greedy constrains a tenant below its demand.
 *
 * Extra flags beyond the common set (bench/common.hpp):
 *   --tenants=2,4        tenant counts to sweep
 *   --frag=0,0.9         fragmentation fractions to sweep (the
 *                        paper's stress level; mild fragmentation is
 *                        invisible while unpinned huge frames remain)
 *   --arbiter=greedy,static,propshare   arbiters to sweep
 *   --switch=flush,asid  context-switch modes to sweep
 *   --quantum=1024       scheduler quantum in ops
 *   --budget=1           promotions allowed per interval
 *                        (regions_to_promote; deliberately tight so
 *                        the arbiters have something to arbitrate —
 *                        0 restores the footprint-scaled auto budget)
 *   --selfcheck          run the subsystem's acceptance checks
 *                        (1-tenant bit-identity vs the legacy path,
 *                        multi-tenant determinism, ASID < flush) and
 *                        exit nonzero on the first violation
 *
 * --oracle and --sample exit 1: tenant-mode runs support neither.
 */

#include "common.hpp"

using namespace pccsim;
using namespace pccsim::bench;

namespace {

struct Point
{
    u32 tenants;
    double frag;
    std::string arbiter;
    tenant::SwitchMode mode;
};

struct SweepOptions
{
    std::vector<u32> tenants{2, 4};
    std::vector<double> frags{0.0, 0.9};
    std::vector<std::string> arbiters{"greedy", "static", "propshare"};
    std::vector<tenant::SwitchMode> modes{tenant::SwitchMode::Flush,
                                          tenant::SwitchMode::Asid};
    u32 quantum = 1024;
    u32 budget = 1;
};

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

/**
 * One sweep point: `tenants` single-lane tenants (apps round-robin,
 * per-tenant seeds) time-sharing one core, or, with `share` false,
 * the first tenant alone on the single-process path.
 */
sim::ExperimentSpec
tenantSpec(const BenchEnv &env, const SweepOptions &sweep, const Point &p,
           bool share = true)
{
    sim::ExperimentSpec spec = env.spec(env.apps.front(),
                                        sim::PolicyKind::Pcc);
    // Registry selectors (trident, ubpf:prog=topk, pcc:promote=8, ...)
    // flow straight into the tenant sweep: the regret scoreboard ranks
    // whatever contender --policy selects.
    if (const std::string sel = env.policySelector(); !sel.empty()) {
        if (const auto st = sim::applyPolicySelector(spec, sel); !st.ok())
            fatal(st.toString());
    }
    for (u32 t = 1; t < p.tenants; ++t) {
        workloads::WorkloadSpec next = spec.workload;
        next.name = env.apps[t % env.apps.size()];
        next.seed = env.seed + t;
        spec.corunners.push_back(std::move(next));
    }
    spec.pcc_policy.arbiter = p.arbiter;
    spec.pcc_policy.regions_to_promote = sweep.budget;
    spec.frag_fraction = p.frag;
    spec.telemetry.enabled = true;
    spec.telemetry.audit = true;
    if (share)
        shareOneCore(spec, p.mode, sweep.quantum);
    return spec;
}

u64
totalWalks(const sim::RunResult &r)
{
    u64 walks = 0;
    for (const auto &job : r.jobs)
        walks += job.walks;
    return walks;
}

double
missPercent(const sim::RunResult &r)
{
    u64 walks = 0, tlb = 0;
    for (const auto &job : r.jobs) {
        walks += job.walks;
        tlb += job.tlb_accesses;
    }
    return percent(walks, tlb);
}

u64
totalPromotions(const sim::RunResult &r)
{
    u64 promos = 0;
    for (const auto &job : r.jobs)
        promos += job.promotions;
    return promos;
}

u64
counterOf(const sim::RunResult &r, const std::string &name)
{
    if (!r.telemetry)
        return 0;
    for (const auto &[key, value] : r.telemetry->counters) {
        if (key == name)
            return value;
    }
    return 0;
}

u64
budgetSkips(const sim::RunResult &r)
{
    if (!r.telemetry)
        return 0;
    for (const auto &[key, count] : r.telemetry->audit.reason_counts) {
        if (key == "skip:tenant-budget")
            return count;
    }
    return 0;
}

void
sweepTable(const BenchEnv &env, const SweepOptions &sweep)
{
    std::vector<Point> points;
    for (u32 tenants : sweep.tenants) {
        for (double frag : sweep.frags) {
            for (const auto &arbiter : sweep.arbiters) {
                for (tenant::SwitchMode mode : sweep.modes)
                    points.push_back({tenants, frag, arbiter, mode});
            }
        }
    }

    std::vector<sim::ExperimentSpec> specs;
    for (const Point &p : points)
        specs.push_back(tenantSpec(env, sweep, p));
    const auto runs = runAll(specs);

    Table table({"tenants", "frag", "arbiter", "switch", "wall Mcyc",
                 "walks", "miss %", "switches", "THPs", "compactions",
                 "budget skips", "regret Mcyc"});
    for (size_t i = 0; i < runs.size(); ++i) {
        const auto &r = *runs[i];
        table.row({std::to_string(points[i].tenants),
                   Table::fmt(points[i].frag, 2), points[i].arbiter,
                   tenant::to_string(points[i].mode),
                   Table::fmt(static_cast<double>(r.wall_cycles) / 1e6,
                              1),
                   std::to_string(totalWalks(r)),
                   Table::fmt(missPercent(r), 2),
                   std::to_string(counterOf(r, "tenant_switches")),
                   std::to_string(totalPromotions(r)),
                   std::to_string(counterOf(r, "compactions")),
                   std::to_string(budgetSkips(r)),
                   Table::fmt(static_cast<double>(sim::regretCycles(r)) /
                                  1e6,
                              2)});
    }
    env.emit(table,
             "Fig. 10: multi-tenant node (tenants x fragmentation x "
             "arbiter, flush vs ASID)");
}

// ---------------------------------------------------------- selfcheck

// Each check runs fresh simulations (sim::runOne), never memo hits.

bool
checkOneTenantIdentity(const BenchEnv &env, const SweepOptions &sweep)
{
    // A 1-tenant tenant-mode run must be stat-for-stat identical
    // (telemetry content included) to the legacy single-process path.
    const Point p{1, 0.0, "", tenant::SwitchMode::Asid};
    const auto legacy = sim::runOne(tenantSpec(env, sweep, p, false));
    const auto tenanted = sim::runOne(tenantSpec(env, sweep, p));
    if (!(legacy == tenanted)) {
        std::printf("selfcheck FAILED: 1-tenant ASID run diverged from "
                    "the legacy path (wall %llu vs %llu, walks %llu vs "
                    "%llu)\n",
                    static_cast<unsigned long long>(legacy.wall_cycles),
                    static_cast<unsigned long long>(tenanted.wall_cycles),
                    static_cast<unsigned long long>(totalWalks(legacy)),
                    static_cast<unsigned long long>(totalWalks(tenanted)));
        return false;
    }
    std::printf("selfcheck: 1-tenant ASID run identical to legacy path\n");
    return true;
}

bool
checkDeterminism(const BenchEnv &env, const SweepOptions &sweep)
{
    const auto spec = tenantSpec(
        env, sweep, {2, 0.0, "static", tenant::SwitchMode::Asid});
    const auto r1 = sim::runOne(spec);
    const auto r2 = sim::runOne(spec);
    if (!(r1 == r2)) {
        std::printf("selfcheck FAILED: repeated 2-tenant run is not "
                    "deterministic\n");
        return false;
    }
    std::printf("selfcheck: multi-tenant runs deterministic\n");
    return true;
}

bool
checkAsidBeatsFlush(const BenchEnv &env, const SweepOptions &sweep)
{
    const auto flush = sim::runOne(tenantSpec(
        env, sweep, {2, 0.0, "greedy", tenant::SwitchMode::Flush}));
    const auto asid = sim::runOne(tenantSpec(
        env, sweep, {2, 0.0, "greedy", tenant::SwitchMode::Asid}));
    if (totalWalks(asid) >= totalWalks(flush)) {
        std::printf("selfcheck FAILED: ASID walks (%llu) not below "
                    "flush-on-switch walks (%llu)\n",
                    static_cast<unsigned long long>(totalWalks(asid)),
                    static_cast<unsigned long long>(totalWalks(flush)));
        return false;
    }
    std::printf("selfcheck: ASID tagging beats flush-on-switch "
                "(%llu vs %llu walks)\n",
                static_cast<unsigned long long>(totalWalks(asid)),
                static_cast<unsigned long long>(totalWalks(flush)));
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchEnv env = BenchEnv::parse(argc, argv, {"pr", "mcf"});
    env.rejectOracleAndSampling("fig10's tenant sweep");
    Options opts(argc, argv);

    SweepOptions sweep;
    sweep.quantum = static_cast<u32>(opts.getInt("quantum", 1024));
    sweep.budget = static_cast<u32>(opts.getInt("budget", 1));
    if (opts.has("tenants")) {
        sweep.tenants.clear();
        for (const auto &t : splitList(opts.get("tenants")))
            sweep.tenants.push_back(
                static_cast<u32>(parseIntFlag("tenants", t)));
    }
    if (opts.has("frag")) {
        sweep.frags.clear();
        for (const auto &f : splitList(opts.get("frag")))
            sweep.frags.push_back(parseDoubleFlag("frag", f));
    }
    if (opts.has("arbiter"))
        sweep.arbiters = splitList(opts.get("arbiter"));
    if (opts.has("switch")) {
        sweep.modes.clear();
        for (const auto &m : splitList(opts.get("switch"))) {
            const auto mode = tenant::parseSwitchMode(m);
            if (!mode)
                fatal("unknown --switch=", m, " (use flush or asid)");
            sweep.modes.push_back(*mode);
        }
    }
    for (const auto &arbiter : sweep.arbiters) {
        if (!tenant::makeArbiter(arbiter)) {
            fatal("unknown --arbiter=", arbiter,
                  " (use greedy, static, or propshare)");
        }
    }

    if (opts.getBool("selfcheck")) {
        bool ok = checkOneTenantIdentity(env, sweep);
        ok = checkDeterminism(env, sweep) && ok;
        ok = checkAsidBeatsFlush(env, sweep) && ok;
        return ok ? 0 : 1;
    }

    sweepTable(env, sweep);
    emitTailSummary();
    emitTelemetryFooter();
    return 0;
}
