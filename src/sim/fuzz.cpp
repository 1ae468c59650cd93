#include "sim/fuzz.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "sim/runner.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace pccsim::sim {

namespace {

constexpr const char *kVersion = "fz1";

/** Shortest decimal form that parses back to exactly `v`. */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    if (std::strtod(buf, nullptr) == v)
        return buf;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
parseU64(const std::string &text, u64 &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return end == text.c_str() + text.size();
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
}

} // namespace

std::string
FuzzSpec::toString() const
{
    std::ostringstream os;
    os << kVersion << " pat=" << pattern << " fp=" << footprint_mb
       << " ops=" << ops << " hot=" << hot_regions << " seed=" << seed
       << " lanes=" << lanes << " pol=" << static_cast<int>(policy)
       << " cap=" << fmtDouble(cap_percent)
       << " frag=" << fmtDouble(frag_fraction) << " tel=" << telemetry
       << " inv=" << check_invariants << " iv=" << interval_accesses
       << " afh=" << fmtDouble(alloc_fail_huge)
       << " cfail=" << fmtDouble(compaction_fail)
       << " storm=" << fmtDouble(shootdown_storm)
       << " shock=" << shock_period
       << " mut=" << static_cast<int>(mutation);
    return os.str();
}

std::optional<FuzzSpec>
FuzzSpec::parse(const std::string &text)
{
    std::istringstream is(text);
    std::string token;
    if (!(is >> token) || token != kVersion)
        return std::nullopt;
    FuzzSpec spec;
    while (is >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        u64 u = 0;
        bool ok = true;
        if (key == "pat") {
            spec.pattern = value;
        } else if (key == "fp") {
            ok = parseU64(value, spec.footprint_mb);
        } else if (key == "ops") {
            ok = parseU64(value, spec.ops);
        } else if (key == "hot") {
            ok = parseU64(value, spec.hot_regions);
        } else if (key == "seed") {
            ok = parseU64(value, spec.seed);
        } else if (key == "lanes") {
            ok = parseU64(value, u);
            spec.lanes = static_cast<u32>(u);
        } else if (key == "pol") {
            ok = parseU64(value, u) &&
                 u <= static_cast<u64>(PolicyKind::TraceReplay);
            spec.policy = static_cast<PolicyKind>(u);
        } else if (key == "cap") {
            ok = parseDouble(value, spec.cap_percent);
        } else if (key == "frag") {
            ok = parseDouble(value, spec.frag_fraction);
        } else if (key == "tel") {
            ok = parseU64(value, u) && u <= 1;
            spec.telemetry = u != 0;
        } else if (key == "inv") {
            ok = parseU64(value, u) && u <= 1;
            spec.check_invariants = u != 0;
        } else if (key == "iv") {
            ok = parseU64(value, spec.interval_accesses);
        } else if (key == "afh") {
            ok = parseDouble(value, spec.alloc_fail_huge);
        } else if (key == "cfail") {
            ok = parseDouble(value, spec.compaction_fail);
        } else if (key == "storm") {
            ok = parseDouble(value, spec.shootdown_storm);
        } else if (key == "shock") {
            ok = parseU64(value, spec.shock_period);
        } else if (key == "mut") {
            ok = parseU64(value, u) &&
                 u <= static_cast<u64>(HotPathMutation::TapeMiscount);
            spec.mutation = static_cast<HotPathMutation>(u);
        } else {
            return std::nullopt; // unknown key: wrong/newer format
        }
        if (!ok)
            return std::nullopt;
    }
    if (spec.pattern != "uniform" && spec.pattern != "zipf" &&
        spec.pattern != "seq" && spec.pattern != "hot" &&
        spec.pattern != "spin") {
        return std::nullopt;
    }
    if (spec.footprint_mb == 0 || spec.lanes == 0)
        return std::nullopt;
    return spec;
}

ExperimentSpec
FuzzSpec::toExperiment() const
{
    ExperimentSpec ex;
    // The hot-region pattern needs at least one whole 2MB region per
    // lane; clamp the footprint up so every representable FuzzSpec
    // maps to a runnable experiment (random and shrunk specs alike).
    u64 fp = footprint_mb;
    if (pattern == "hot")
        fp = std::max<u64>(fp, 2ull * lanes);
    std::ostringstream name;
    name << "syn:" << pattern << ':' << fp << ':' << ops << ':'
         << (hot_regions == 0 ? 1 : hot_regions);
    ex.workload.name = name.str();
    ex.workload.seed = seed;
    ex.lanes = lanes;
    ex.policy = policy;
    ex.cap_percent = cap_percent;
    ex.frag_fraction = frag_fraction;
    ex.telemetry.enabled = telemetry;
    ex.check_invariants = check_invariants;
    ex.interval_accesses = interval_accesses;
    ex.faults.alloc_fail_huge = alloc_fail_huge;
    ex.faults.compaction_fail = compaction_fail;
    ex.faults.shootdown_storm = shootdown_storm;
    if (shock_period > 0)
        ex.faults.shock_intervals = {shock_period, shock_period * 2};
    ex.mutation = mutation;
    return ex;
}

bool
FuzzSpec::operator==(const FuzzSpec &other) const
{
    return toString() == other.toString();
}

FuzzSpec
randomSpec(u64 campaign_seed, u64 iteration)
{
    u64 sm = campaign_seed ^ (iteration * 0x9e3779b97f4a7c15ull);
    Rng rng(splitmix64(sm));
    FuzzSpec spec;
    static const char *kPatterns[] = {"uniform", "zipf", "seq", "hot"};
    spec.pattern = kPatterns[rng.below(4)];
    spec.footprint_mb = 4ull << rng.below(3); // 4, 8, 16 MB
    spec.ops = 20'000 * rng.range(1, 5);
    spec.hot_regions = rng.range(1, 6);
    spec.seed = rng.next() | 1;
    spec.lanes = 1u << rng.below(3); // 1, 2, 4
    static const PolicyKind kPolicies[] = {
        PolicyKind::Base, PolicyKind::AllHuge, PolicyKind::LinuxThp,
        PolicyKind::HawkEye, PolicyKind::Pcc};
    spec.policy = kPolicies[rng.below(5)];
    spec.cap_percent = rng.chance(0.3) ? 25.0 : -1.0;
    spec.frag_fraction = rng.chance(0.3) ? 0.3 : 0.0;
    spec.telemetry = rng.chance(0.3);
    spec.check_invariants = rng.chance(0.25);
    spec.interval_accesses = rng.chance(0.3) ? 20'000 : 0;
    if (rng.chance(0.35))
        spec.alloc_fail_huge = 0.2;
    if (rng.chance(0.25))
        spec.compaction_fail = 0.2;
    if (rng.chance(0.25))
        spec.shootdown_storm = 0.05;
    if (rng.chance(0.25))
        spec.shock_period = 4;
    return spec;
}

std::optional<FuzzFailure>
checkSpec(const FuzzSpec &spec, u32 jobs)
{
    // Gate 1: run under the differential oracle in full lockstep (the
    // fuzzer always pays for per-access compares, release build or
    // not — sampling is for production oracle runs).
    RunResult checked;
    try {
        ExperimentSpec ex = spec.toExperiment();
        ex.oracle.enabled = true;
        ex.oracle.sample_every = 1;
        checked = runOne(ex);
    } catch (const OracleError &e) {
        return FuzzFailure{spec, "oracle", e.what()};
    } catch (const std::exception &e) {
        return FuzzFailure{spec, "error", e.what()};
    }

    // Gate 2: the oracle must be result-neutral.
    RunResult plain;
    try {
        plain = runOne(spec.toExperiment());
        if (!(plain == checked)) {
            return FuzzFailure{
                spec, "neutrality",
                "oracle-on and oracle-off results differ"};
        }
    } catch (const std::exception &e) {
        return FuzzFailure{spec, "error", e.what()};
    }

    // Gate 3: serial vs parallel determinism over seed variants (the
    // variants make the batch large enough to actually overlap).
    try {
        std::vector<ExperimentSpec> batch;
        for (u64 v = 0; v < 4; ++v) {
            FuzzSpec variant = spec;
            variant.seed = spec.seed + v;
            batch.push_back(variant.toExperiment());
        }
        Runner serial(1);
        Runner pooled(jobs < 2 ? 2 : jobs);
        const auto a = serial.runMany(batch);
        const auto b = pooled.runMany(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
            if (!(*a[i] == *b[i])) {
                return FuzzFailure{
                    spec, "parallel",
                    "serial and parallel results differ at batch index " +
                        std::to_string(i) + " (seed " +
                        std::to_string(spec.seed + i) + ")"};
            }
        }
    } catch (const std::exception &e) {
        return FuzzFailure{spec, "error", e.what()};
    }

    // Gate 4: shared data-cache work is result-neutral. A sibling that
    // differs only in policy and cap runs first in the same Runner, so
    // the spec replays the sibling's data-cache tape instead of
    // simulating the cache; it must still match the standalone run.
    try {
        FuzzSpec sibling = spec;
        sibling.policy = spec.policy == PolicyKind::Base ? PolicyKind::Pcc
                                                         : PolicyKind::Base;
        sibling.cap_percent = spec.cap_percent >= 0.0 ? -1.0 : 25.0;
        Runner shared(1);
        shared.run(sibling.toExperiment());
        if (!(*shared.run(spec.toExperiment()) == plain)) {
            return FuzzFailure{
                spec, "sharing",
                "a run replaying its sibling's data-cache tape differs "
                "from the standalone run"};
        }
    } catch (const std::exception &e) {
        return FuzzFailure{spec, "error", e.what()};
    }
    return std::nullopt;
}

namespace {

std::vector<FuzzSpec>
shrinkCandidates(const FuzzSpec &s)
{
    std::vector<FuzzSpec> out;
    const auto add = [&](FuzzSpec c) { out.push_back(std::move(c)); };
    if (s.ops > 1'000) {
        FuzzSpec c = s;
        c.ops /= 2;
        add(c);
    }
    if (s.footprint_mb > 1) {
        FuzzSpec c = s;
        c.footprint_mb /= 2;
        add(c);
    }
    if (s.hot_regions > 1) {
        FuzzSpec c = s;
        c.hot_regions /= 2;
        add(c);
    }
    if (s.lanes > 1) {
        FuzzSpec c = s;
        c.lanes = 1;
        add(c);
    }
    if (s.telemetry) {
        FuzzSpec c = s;
        c.telemetry = false;
        add(c);
    }
    if (s.check_invariants) {
        FuzzSpec c = s;
        c.check_invariants = false;
        add(c);
    }
    if (s.interval_accesses != 0) {
        FuzzSpec c = s;
        c.interval_accesses = 0;
        add(c);
    }
    if (s.alloc_fail_huge != 0.0) {
        FuzzSpec c = s;
        c.alloc_fail_huge = 0.0;
        add(c);
    }
    if (s.compaction_fail != 0.0) {
        FuzzSpec c = s;
        c.compaction_fail = 0.0;
        add(c);
    }
    if (s.shootdown_storm != 0.0) {
        FuzzSpec c = s;
        c.shootdown_storm = 0.0;
        add(c);
    }
    if (s.shock_period != 0) {
        FuzzSpec c = s;
        c.shock_period = 0;
        add(c);
    }
    if (s.cap_percent >= 0.0) {
        FuzzSpec c = s;
        c.cap_percent = -1.0;
        add(c);
    }
    if (s.frag_fraction != 0.0) {
        FuzzSpec c = s;
        c.frag_fraction = 0.0;
        add(c);
    }
    if (s.pattern != "seq") {
        FuzzSpec c = s;
        c.pattern = "seq";
        add(c);
    }
    if (s.policy != PolicyKind::Base) {
        FuzzSpec c = s;
        c.policy = PolicyKind::Base;
        add(c);
    }
    return out;
}

} // namespace

FuzzSpec
shrink(const FuzzSpec &failing, u32 jobs)
{
    const auto original = checkSpec(failing, jobs);
    if (!original)
        return failing; // does not actually fail; nothing to shrink
    const std::string kind = original->kind;

    FuzzSpec current = failing;
    // Greedy descent to a fixpoint: accept the first candidate that
    // still fails with the same kind, then restart the candidate list
    // from the smaller spec. Bounded for safety; every acceptance
    // strictly simplifies, so real campaigns converge long before it.
    for (int round = 0; round < 256; ++round) {
        bool changed = false;
        for (const FuzzSpec &candidate : shrinkCandidates(current)) {
            const auto failure = checkSpec(candidate, jobs);
            if (failure && failure->kind == kind) {
                current = candidate;
                changed = true;
                break;
            }
        }
        if (!changed)
            break;
    }
    return current;
}

FuzzCampaign
runCampaign(u64 campaign_seed, u64 iterations, u32 jobs,
            bool shrink_failures)
{
    FuzzCampaign out;
    for (u64 i = 0; i < iterations; ++i) {
        const FuzzSpec spec = randomSpec(campaign_seed, i);
        ++out.iterations;
        auto failure = checkSpec(spec, jobs);
        if (!failure)
            continue;
        warn("fuzz: iteration ", i, " failed (", failure->kind, "): ",
             failure->detail);
        if (shrink_failures) {
            const FuzzSpec small = shrink(spec, jobs);
            if (auto shrunk = checkSpec(small, jobs)) {
                failure = shrunk; // report the minimal repro instead
            }
        }
        out.failures.push_back(std::move(*failure));
    }
    return out;
}

} // namespace pccsim::sim
