/**
 * @file
 * Ablation for the PCC's accessed-bit cold-miss filter (Sec. 3.2,
 * Fig. 3 steps 6-7): with the filter on, a region enters the PCC only
 * if its PMD accessed bit was already set (a warm region); with it
 * off, every page-table walk — including compulsory first-touch
 * misses and streaming data — pollutes the PCC.
 *
 * Expected shape: similar or better speedup with the filter on, and
 * markedly fewer PCC insertions/evictions (less candidate churn).
 */

#include "common.hpp"

using namespace pccsim;
using namespace pccsim::bench;

int
main(int argc, char **argv)
{
    BenchEnv env = BenchEnv::parse(argc, argv);
    BaselineCache baselines(env);
    baselines.prefetch(env.apps);

    // The filter matters when cold insertions can displace hot
    // candidates, i.e. when the PCC is small relative to the touched
    // region count — so sweep the PCC size.
    auto spec_with = [&](const std::string &app, u32 entries,
                         bool filter) {
        auto spec = env.spec(app, sim::PolicyKind::Pcc);
        spec.cap_percent = 8.0;
        spec.tweak = [filter, entries](sim::SystemConfig &cfg) {
            cfg.pcc.access_bit_filter = filter;
            cfg.pcc.pcc2m.entries = entries;
        };
        spec.tweak_key = "pcc2m=" + std::to_string(entries) +
                         ",filter=" + (filter ? "on" : "off");
        return spec;
    };
    for (u32 entries : {128u, 8u}) {
        std::vector<sim::ExperimentSpec> specs;
        for (const auto &app : env.apps) {
            specs.push_back(spec_with(app, entries, true));
            specs.push_back(spec_with(app, entries, false));
        }
        const auto results = runAll(specs);

        Table table({"app", "filter on", "filter off", "delta %"});
        for (size_t a = 0; a < env.apps.size(); ++a) {
            const auto &base = baselines.get(env.apps[a]);
            const double on = sim::speedup(base, *results[2 * a]);
            const double off = sim::speedup(base, *results[2 * a + 1]);
            table.row({env.apps[a], Table::fmt(on, 3),
                       Table::fmt(off, 3),
                       Table::fmt(100.0 * (on - off) / off, 2)});
        }
        env.emit(table, "Accessed-bit cold-miss filter ablation, " +
                            std::to_string(entries) +
                            "-entry PCC (cap 8%)");
    }

    // Controlled stress: a small hot set inside a large, cold,
    // streamed footprint — the access pattern the filter exists for.
    // Cold streaming data is touched exactly once per pass, so with
    // the filter off its compulsory walks flood the PCC.
    {
        const u64 ops =
            env.scale == workloads::Scale::Ci ? 1'500'000 : 4'000'000;
        // 8 hot regions take half the accesses of a 512MB footprint.
        const std::string syn =
            "syn:hot:512:" + std::to_string(ops) + ":8:50";
        auto base_spec = spec_with(syn, 16, true);
        base_spec.policy = sim::PolicyKind::Base;
        const auto runs = runAll({base_spec, spec_with(syn, 16, true),
                                  spec_with(syn, 16, false)});
        const auto &base = *runs[0];
        const auto &on = *runs[1];
        const auto &off = *runs[2];
        Table table({"config", "speedup", "ptw %", "promotions"});
        table.row({"base-4k", "1.000",
                   Table::fmt(base.job().ptwPercent(), 2), "0"});
        table.row({"filter on",
                   Table::fmt(sim::speedup(base, on), 3),
                   Table::fmt(on.job().ptwPercent(), 2),
                   std::to_string(on.job().promotions)});
        table.row({"filter off",
                   Table::fmt(sim::speedup(base, off), 3),
                   Table::fmt(off.job().ptwPercent(), 2),
                   std::to_string(off.job().promotions)});
        env.emit(table, "Cold-filter stress: 8 hot regions in a "
                        "512MB cold stream (16-entry PCC)");
    }
    return 0;
}
