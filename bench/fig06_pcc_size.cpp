/**
 * @file
 * Reproduces Fig. 6: sensitivity of graph-application speedup to the
 * PCC size (4..1024 entries in powers of two) with the promotion
 * budget fixed at 32% of the footprint.
 *
 * Shape target: speedup rises steadily while the PCC is smaller than
 * the hot-region set and plateaus once it covers it (128 entries in
 * the paper). Scaled-down graphs have proportionally smaller hot
 * sets, so the harness also sweeps a controlled synthetic workload
 * with exactly 256 hot 2MB regions, which pins the plateau at the
 * paper's 128-256 region range.
 */

#include "common.hpp"

using namespace pccsim;
using namespace pccsim::bench;

namespace {

const std::vector<u32> kSizes = {4, 8, 16, 32, 64, 128, 256, 512, 1024};

} // namespace

int
main(int argc, char **argv)
{
    BenchEnv env = BenchEnv::parse(
        argc, argv, workloads::graphWorkloadNames());
    BaselineCache baselines(env);
    baselines.prefetch(env.apps);

    // One batch: every (app x PCC size) point plus each app's ideal,
    // then the controlled sweep. The tweak carries a key, so the points
    // are memoizable and the whole grid fans out across --jobs workers.
    const auto sized = [](sim::ExperimentSpec spec, u32 size) {
        spec.tweak = [size](sim::SystemConfig &cfg) {
            cfg.pcc.pcc2m.entries = size;
        };
        spec.tweak_key = "pcc2m=" + std::to_string(size);
        return spec;
    };
    std::vector<sim::ExperimentSpec> specs;
    for (const auto &app : env.apps) {
        for (u32 size : kSizes) {
            auto spec = env.spec(app, sim::PolicyKind::Pcc);
            spec.cap_percent = 32.0;
            specs.push_back(sized(std::move(spec), size));
        }
        specs.push_back(env.spec(app, sim::PolicyKind::AllHuge));
    }

    // Controlled synthetic: 256 hot regions out of 512, so the
    // plateau must land between 128 and 256 entries as in the paper.
    // Its 4KB baseline comes first, then the PCC sizes.
    const u64 syn_ops =
        env.scale == workloads::Scale::Ci ? 2'000'000 : 8'000'000;
    const std::string syn =
        "syn:hot:1024:" + std::to_string(syn_ops) + ":256";
    const size_t syn_first = specs.size();
    auto syn_base = env.spec(syn, sim::PolicyKind::Base);
    syn_base.cap_percent = 0.0;
    specs.push_back(std::move(syn_base));
    for (u32 size : kSizes) {
        auto spec = env.spec(syn, sim::PolicyKind::Pcc);
        spec.cap_percent = 64.0;
        // Match the paper's interval count (a handful of promotion
        // rounds per run) so the per-interval budget C — the PCC
        // size — is what limits small configurations.
        spec.interval_accesses = syn_ops / 5;
        specs.push_back(sized(std::move(spec), size));
    }
    const auto results = runAll(specs);

    const size_t per_app = kSizes.size() + 1;
    Table table({"app", "baseline", "4", "8", "16", "32", "64", "128",
                 "256", "512", "1024", "ideal"});
    for (size_t a = 0; a < env.apps.size(); ++a) {
        const auto &app = env.apps[a];
        const auto &base = baselines.get(app);
        std::vector<std::string> row = {app, "1.000"};
        for (size_t s = 0; s < kSizes.size(); ++s) {
            row.push_back(Table::fmt(
                sim::speedup(base, *results[a * per_app + s]), 3));
        }
        row.push_back(Table::fmt(
            sim::speedup(base, *results[a * per_app + kSizes.size()]),
            3));
        table.row(row);
    }
    env.emit(table, "Fig. 6: speedup vs PCC entries (cap 32%)");

    const sim::RunResult &syn_baseline = *results[syn_first];
    Table controlled({"PCC entries", "speedup", "promotions"});
    for (size_t s = 0; s < kSizes.size(); ++s) {
        const auto &run = *results[syn_first + 1 + s];
        controlled.row({std::to_string(kSizes[s]),
                        Table::fmt(sim::speedup(syn_baseline, run), 3),
                        std::to_string(run.job().promotions)});
    }
    env.emit(controlled, "Fig. 6 (controlled): 256 hot regions");
    emitTailSummary();
    emitTelemetryFooter();
    return 0;
}
