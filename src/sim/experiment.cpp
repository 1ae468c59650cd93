#include "sim/experiment.hpp"

#include <cstdio>

#include "sim/runner.hpp"
#include "util/stats.hpp"

namespace pccsim::sim {

SystemConfig
configFor(const ExperimentSpec &spec)
{
    SystemConfig cfg = SystemConfig::forScale(spec.workload.scale);
    cfg.num_cores = std::max<u32>(1, spec.lanes) +
                    static_cast<u32>(spec.corunners.size());
    cfg.policy = spec.policy;
    cfg.policy_str = spec.policy_str;
    cfg.hw = spec.hw;
    cfg.promotion_cap_percent = spec.cap_percent;
    cfg.frag_fraction = spec.frag_fraction;
    cfg.pcc_policy = spec.pcc_policy;
    cfg.telemetry = spec.telemetry;
    cfg.faults = spec.faults;
    cfg.check_invariants = spec.check_invariants;
    if (spec.interval_accesses > 0)
        cfg.interval_accesses = spec.interval_accesses;
    cfg.oracle = spec.oracle;
    cfg.mutation = spec.mutation;
    cfg.sampling = spec.sampling;
    cfg.seed = spec.workload.seed;
    if (spec.policy == PolicyKind::AllHuge) {
        // The "Max. Perf. with THPs" configuration: unfragmented,
        // ample memory, no budget.
        cfg.frag_fraction = 0.0;
        cfg.phys_headroom = 2.0;
        cfg.promotion_cap_percent = -1.0;
    }
    if (spec.tweak)
        spec.tweak(cfg);
    return cfg;
}

util::Status
applyPolicySelector(ExperimentSpec &spec, std::string_view selector)
{
    SystemConfig cfg;
    cfg.policy = spec.policy;
    cfg.policy_str = spec.policy_str;
    util::Status status = applyPolicySelector(cfg, selector);
    if (status.ok()) {
        spec.policy = cfg.policy;
        spec.policy_str = cfg.policy_str;
    }
    return status;
}

std::string
policyNameOf(const ExperimentSpec &spec)
{
    return spec.policy_str.empty() ? to_string(spec.policy)
                                   : spec.policy_str;
}

bool
handleListFlags(const std::string &policy_value,
                const std::string &hw_value)
{
    bool listed = false;
    if (policy_value == "list") {
        std::fputs(policyListText().c_str(), stdout);
        listed = true;
    }
    if (hw_value == "list") {
        std::fputs(hwListText().c_str(), stdout);
        listed = true;
    }
    return listed;
}

RunResult
runOne(const ExperimentSpec &spec)
{
    return runOne(spec, nullptr, nullptr);
}

RunResult
runOne(const ExperimentSpec &spec, std::atomic<u64> *progress,
       const std::atomic<bool> *cancel, CacheTapeStore *tapes)
{
    std::vector<workloads::WorkloadPtr> owned;
    std::vector<System::Job> jobs;
    owned.push_back(workloads::makeWorkload(spec.workload));
    jobs.push_back({owned.back().get(), spec.lanes});
    for (const workloads::WorkloadSpec &corunner : spec.corunners) {
        owned.push_back(workloads::makeWorkload(corunner));
        jobs.push_back({owned.back().get(), 1});
    }
    SystemConfig cfg = configFor(spec);
    cfg.progress = progress;
    cfg.cancel = cancel;
    System system(std::move(cfg));
    return system.run(std::move(jobs), tapes,
                      tapes ? workloadKey(spec) : std::string());
}

const std::vector<double> &
utilityCaps()
{
    static const std::vector<double> caps = {0,  1,  2,  4, 8,
                                             16, 32, 64, -1};
    return caps;
}

std::vector<CurvePoint>
utilityCurve(const ExperimentSpec &spec, const RunResult &baseline,
             Runner *runner)
{
    if (!runner)
        runner = &Runner::global();
    // Batch every non-trivial cap point so the runner can execute the
    // sweep in parallel and recall repeated points from its memo.
    std::vector<ExperimentSpec> points;
    for (double cap : utilityCaps()) {
        if (cap == 0.0)
            continue;
        ExperimentSpec point = spec;
        point.cap_percent = cap;
        points.push_back(std::move(point));
    }
    const auto results = runner->runMany(points);

    std::vector<CurvePoint> curve;
    size_t next = 0;
    for (double cap : utilityCaps()) {
        if (cap == 0.0) {
            // 0% promoted is by definition the 4KB baseline.
            curve.push_back({cap, 1.0, baseline.job().ptwPercent(), 0});
            continue;
        }
        const RunResult &result = *results[next++];
        curve.push_back({cap, speedup(baseline, result),
                         result.job().ptwPercent(),
                         result.job().promotions});
    }
    return curve;
}

double
geomeanSpeedup(const ExperimentSpec &spec, const DatasetSweep &sweep,
               Runner *runner)
{
    if (!runner)
        runner = &Runner::global();
    // Collect the (baseline, variant) pair of every dataset, then run
    // the whole sweep as one batch: baselines shared with other call
    // sites (BaselineCache, other figures) simulate only once.
    std::vector<ExperimentSpec> specs;
    for (graph::NetworkKind kind : sweep.networks) {
        for (int sorted = 0; sorted <= (sweep.include_sorted ? 1 : 0);
             ++sorted) {
            ExperimentSpec variant = spec;
            variant.workload.network = kind;
            variant.workload.dbg_sorted = sorted != 0;

            ExperimentSpec base = variant;
            base.policy = PolicyKind::Base;
            base.cap_percent = 0.0;

            specs.push_back(std::move(base));
            specs.push_back(std::move(variant));
        }
    }
    const auto results = runner->runMany(specs);

    std::vector<double> values;
    for (size_t i = 0; i + 1 < results.size(); i += 2)
        values.push_back(speedup(*results[i], *results[i + 1]));
    return geomean(values);
}

} // namespace pccsim::sim
