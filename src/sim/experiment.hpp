/**
 * @file
 * High-level experiment drivers shared by the benchmark harnesses:
 * single runs, baseline/ideal pairs, and the paper's utility-curve
 * sweep (huge pages limited to N% of the application footprint).
 */

#pragma once

#include <functional>
#include <vector>

#include "sim/system.hpp"
#include "workloads/registry.hpp"

namespace pccsim::sim {

class Runner;

/** Everything needed to reproduce one run. */
struct ExperimentSpec
{
    workloads::WorkloadSpec workload{};
    u32 lanes = 1;
    /**
     * Workloads co-running beside `workload`, in order: each runs one
     * lane as its own process, pids 1, 2, ... after `workload`'s 0.
     * Without tenant mode each gets its own core (configFor counts
     * them into num_cores); with it (a `tweak`) they time-share.
     */
    std::vector<workloads::WorkloadSpec> corunners;
    PolicyKind policy = PolicyKind::Base;
    /**
     * Registry policy selector; overrides `policy` when non-empty.
     * Prefer applyPolicySelector() over assigning directly — it
     * canonicalizes bare legacy keys onto the enum so those specs keep
     * their pre-registry memo keys.
     */
    std::string policy_str;
    /** Translation-hardware backend selector ("" = baseline). */
    std::string hw;
    double cap_percent = -1.0; //!< promotion budget; < 0 = unlimited
    double frag_fraction = 0.0;
    os::PccPolicy::Params pcc_policy{};
    /** Telemetry collection for this run (off by default). */
    telemetry::TelemetryConfig telemetry{};
    /** Deterministic fault injection for this run (off by default). */
    FaultConfig faults{};
    /** Sweep cross-layer invariants every interval (tests only). */
    bool check_invariants = false;
    /** Policy interval override; 0 keeps the scale default. */
    u64 interval_accesses = 0;
    /**
     * Differential oracle for this run. Result-neutral (the run either
     * produces the identical RunResult or throws OracleError), so it
     * is deliberately NOT part of specKey() — an oracle-checked run
     * may serve and be served by non-oracle memo entries.
     */
    OracleConfig oracle{};
    /** Test-only planted hot-path bug (part of the spec identity). */
    HotPathMutation mutation = HotPathMutation::None;
    /**
     * SMARTS-style sampling for this run. NOT result-neutral — a
     * sampled run fast-forwards most accesses and reports estimates —
     * so unlike `oracle` it IS part of specKey(): a sampled result
     * must never be served from (or into) an exact run's memo entry.
     */
    SystemConfig::SamplingConfig sampling{};
    /** Final hook to adjust the SystemConfig (PCC size sweeps etc.). */
    std::function<void(SystemConfig &)> tweak;
    /**
     * Canonical label for `tweak`, making the spec memoizable by the
     * runner: two specs with equal keys (and equal plain fields) must
     * describe identical runs. Leave empty while `tweak` is set to opt
     * the spec out of memoization/deduplication (it still runs, every
     * time).
     */
    std::string tweak_key;
};

/** Build the SystemConfig an ExperimentSpec implies. */
SystemConfig configFor(const ExperimentSpec &spec);

/**
 * Spec-level twin of applyPolicySelector(SystemConfig&, ...): bare
 * legacy keys land on spec.policy (keeping the legacy spec key),
 * everything else on spec.policy_str.
 */
util::Status applyPolicySelector(ExperimentSpec &spec,
                                 std::string_view selector);

/** Display name of the spec's policy (selector or enum name). */
std::string policyNameOf(const ExperimentSpec &spec);

/**
 * Shared CLI hook for `--policy=list` / `--hw=list`: when either value
 * is "list", print the corresponding registry listing (keys,
 * descriptions, param grammars) to stdout and return true — the caller
 * should then exit 0.
 */
bool handleListFlags(const std::string &policy_value,
                     const std::string &hw_value);

/** Run one experiment to completion. */
RunResult runOne(const ExperimentSpec &spec);

/**
 * Run one experiment under cooperative supervision: `progress` (may be
 * null) receives the simulated-access count as the run advances, and
 * setting `cancel` makes the run throw CancelledError at the next
 * batch boundary. Used by the resilient runner's watchdog. `tapes`
 * (may be null) is the Runner's data-cache tape store the run shares
 * work through (System::run).
 */
RunResult runOne(const ExperimentSpec &spec, std::atomic<u64> *progress,
                 const std::atomic<bool> *cancel,
                 CacheTapeStore *tapes = nullptr);

/** The paper's utility-curve x-axis: 0,1,2,4,...,64 and ~100 (%). */
const std::vector<double> &utilityCaps();

/** One point of a utility curve. */
struct CurvePoint
{
    double cap_percent; //!< -1 encodes the ~100% (unlimited) point
    double speedup;
    double ptw_percent;
    u64 promotions;
};

/**
 * Sweep the promotion cap for a policy and report speedups relative
 * to the supplied 4KB baseline run. The sweep's nine runs go through
 * `runner` (default: Runner::global()) — deduplicated, memoized, and
 * executed in parallel when the runner has jobs() > 1.
 */
std::vector<CurvePoint> utilityCurve(const ExperimentSpec &spec,
                                     const RunResult &baseline,
                                     Runner *runner = nullptr);

/**
 * Run a graph workload over the requested datasets (network kinds x
 * sorted/unsorted) and return the geomean speedup vs. per-dataset
 * baselines — the aggregation of Sec. 4.
 */
struct DatasetSweep
{
    std::vector<graph::NetworkKind> networks = {
        graph::NetworkKind::Kronecker};
    bool include_sorted = false;
};

double geomeanSpeedup(const ExperimentSpec &spec,
                      const DatasetSweep &sweep,
                      Runner *runner = nullptr);

} // namespace pccsim::sim
