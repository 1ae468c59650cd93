/**
 * @file
 * Deterministic fuzz-and-shrink harness for the simulator.
 *
 * A FuzzSpec is a small, fully-serializable point in configuration
 * space: a parameterized synthetic workload plus the SystemConfig
 * switches that have historically harboured bugs (policies, caps,
 * fragmentation, fault-injection schedules, telemetry, invariant
 * sweeps). checkSpec() runs four independent correctness gates over
 * one spec:
 *
 *  1. the differential oracle in full lockstep (sim/oracle.hpp);
 *  2. result-neutrality of the oracle itself (oracle-on == oracle-off);
 *  3. serial-vs-parallel determinism (Runner(1) vs Runner(jobs) over a
 *     small batch of seed variants, compared result-for-result);
 *  4. result-neutrality of shared data-cache work: the spec run in one
 *     Runner right after a sibling differing only in policy and cap
 *     (so it replays the sibling's cache tape) equals a standalone run.
 *
 * Everything is seeded: iteration i of a campaign is a pure function of
 * (campaign seed, i), and every failure is reported as a spec string
 * (FuzzSpec::toString) that `bench/fuzz_diff --spec=...` re-runs
 * verbatim. Failures are auto-shrunk (greedy, to a fixpoint) before
 * reporting: halve the access count, drop optional features toward
 * defaults, reduce the workload — keeping only changes that preserve
 * the failure kind.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace pccsim::sim {

/** One fuzzable configuration point; round-trips through toString(). */
struct FuzzSpec
{
    // ---- workload (maps to a "syn:..." registry name) ----
    std::string pattern = "uniform"; //!< uniform|zipf|seq|hot
    u64 footprint_mb = 8;
    u64 ops = 100'000;
    u64 hot_regions = 4;
    u64 seed = 1;

    // ---- system ----
    u32 lanes = 1;
    PolicyKind policy = PolicyKind::Pcc;
    double cap_percent = -1.0;
    double frag_fraction = 0.0;
    bool telemetry = false;
    bool check_invariants = false;
    u64 interval_accesses = 0;

    // ---- fault injection ----
    double alloc_fail_huge = 0.0;
    double compaction_fail = 0.0;
    double shootdown_storm = 0.0;
    u64 shock_period = 0; //!< intervals between frag shocks; 0 = none

    /** Planted bug under test (mutation self-tests only). */
    HotPathMutation mutation = HotPathMutation::None;

    /** One-line, space-separated, exactly round-trippable form. */
    std::string toString() const;
    static std::optional<FuzzSpec> parse(const std::string &text);

    /** The experiment this spec describes (oracle not yet enabled). */
    ExperimentSpec toExperiment() const;

    bool operator==(const FuzzSpec &other) const;
};

/** Iteration i of a campaign: pure function of (campaign_seed, i). */
FuzzSpec randomSpec(u64 campaign_seed, u64 iteration);

/** A reproducible failure found by checkSpec(). */
struct FuzzFailure
{
    FuzzSpec spec;
    /** Gate that tripped: oracle | neutrality | parallel | sharing |
        error. */
    std::string kind;
    std::string detail;
};

/**
 * Run all four gates over one spec. Returns the first failure, or
 * nullopt when the spec passes. `jobs` sizes the parallel runner of
 * gate 3 (>= 2 to actually exercise the pool).
 */
std::optional<FuzzFailure> checkSpec(const FuzzSpec &spec, u32 jobs);

/**
 * Greedily shrink a failing spec while checkSpec() keeps failing with
 * the same kind; returns the fixpoint (the input itself if it does not
 * actually fail). Each round tries: halving ops / footprint /
 * hot_regions, lanes -> 1, dropping telemetry / invariants / interval /
 * each fault field / cap / frag, and simplifying pattern and policy.
 */
FuzzSpec shrink(const FuzzSpec &failing, u32 jobs);

/** Outcome of a campaign of seeded iterations. */
struct FuzzCampaign
{
    u64 iterations = 0;
    std::vector<FuzzFailure> failures; //!< shrunk when requested
};

FuzzCampaign runCampaign(u64 campaign_seed, u64 iterations, u32 jobs,
                         bool shrink_failures);

} // namespace pccsim::sim
