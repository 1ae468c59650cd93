/**
 * @file
 * Differential fuzzing driver (sim/fuzz.hpp): seeded random
 * configuration points, each checked against the reference oracle, for
 * oracle result-neutrality, for serial-vs-parallel determinism, and
 * for result-neutral sharing of data-cache work inside a Runner.
 * Failures are shrunk to a minimal repro and printed as a spec string
 * that `--spec="..."` re-runs verbatim.
 *
 *   fuzz_diff [--iters=N] [--seed=S] [--jobs=N]   run a campaign
 *   fuzz_diff --spec="fz1 pat=seq ..."            re-run one repro
 *   fuzz_diff --mutation=skip-l2-fill             self-test: plant the
 *   fuzz_diff --mutation=stale-ltc                named hot-path bug,
 *   fuzz_diff --mutation=tape-miscount            require a gate to
 *                                                 catch it, and shrink
 *
 * Exit status: 0 when every iteration passes (or the planted bug is
 * caught), 1 on any real divergence (or a planted bug going unnoticed).
 */

#include <cstdio>

#include "sim/fuzz.hpp"
#include "util/log.hpp"
#include "util/options.hpp"

using namespace pccsim;

namespace {

/** A spec that reliably trips the named planted hot-path mutation. */
sim::FuzzSpec
mutationSpec(sim::HotPathMutation mutation)
{
    sim::FuzzSpec spec;
    spec.ops = 200'000;
    spec.seed = 7;
    switch (mutation) {
      case sim::HotPathMutation::SkipL2Fill:
        // Uniform random over many 4K pages keeps both TLB levels
        // churning, so a miss-path fill that skips the L2 desyncs the
        // reference model within a few thousand accesses.
        spec.pattern = "uniform";
        spec.footprint_mb = 8;
        spec.policy = sim::PolicyKind::Base;
        break;
      case sim::HotPathMutation::StaleLtc:
        // A streaming scan under the PCC policy with a short interval:
        // the policy promotes the very region the lane is streaming
        // through (its walks are the most recent), and the promotion
        // shootdown lands while the last-translation cache still holds
        // a page of that region. A shootdown that forgets to clear the
        // cache then serves a dead 4K translation.
        spec.pattern = "seq";
        spec.footprint_mb = 1;
        spec.policy = sim::PolicyKind::Pcc;
        spec.interval_accesses = 1'000;
        break;
      case sim::HotPathMutation::TapeMiscount:
        // Any spec that records a data-cache tape: the sharing gate's
        // replay inherits the miscounted cycle, the standalone run
        // does not.
        spec.pattern = "uniform";
        spec.footprint_mb = 8;
        spec.policy = sim::PolicyKind::Pcc;
        break;
      case sim::HotPathMutation::None:
        break;
    }
    spec.mutation = mutation;
    return spec;
}

int
runMutationSelfTest(const std::string &name, u32 jobs)
{
    sim::HotPathMutation mutation;
    if (name == "skip-l2-fill")
        mutation = sim::HotPathMutation::SkipL2Fill;
    else if (name == "stale-ltc")
        mutation = sim::HotPathMutation::StaleLtc;
    else if (name == "tape-miscount")
        mutation = sim::HotPathMutation::TapeMiscount;
    else
        fatal("unknown --mutation=", name,
              " (skip-l2-fill|stale-ltc|tape-miscount)");

    const sim::FuzzSpec planted = mutationSpec(mutation);
    std::printf("planted:  %s\n", planted.toString().c_str());
    const auto failure = sim::checkSpec(planted, jobs);
    if (!failure) {
        std::printf("FAIL: no gate caught the planted bug\n");
        return 1;
    }
    std::printf("caught:   [%s] %s\n", failure->kind.c_str(),
                failure->detail.c_str());

    const sim::FuzzSpec small = sim::shrink(planted, jobs);
    std::printf("shrunk:   %s\n", small.toString().c_str());
    if (small.ops > planted.ops / 8) {
        std::printf("FAIL: shrink stopped at ops=%llu (wanted <= %llu)\n",
                    static_cast<unsigned long long>(small.ops),
                    static_cast<unsigned long long>(planted.ops / 8));
        return 1;
    }
    const auto still = sim::checkSpec(small, jobs);
    if (!still || still->kind != failure->kind) {
        std::printf("FAIL: shrunk spec no longer reproduces\n");
        return 1;
    }
    std::printf("repro:    fuzz_diff --spec=\"%s\"\n",
                small.toString().c_str());
    std::printf("OK: planted bug caught and shrunk\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    const u32 jobs = static_cast<u32>(opts.getInt("jobs", 4));

    if (opts.has("mutation"))
        return runMutationSelfTest(opts.get("mutation"), jobs);

    if (opts.has("spec")) {
        const auto spec = sim::FuzzSpec::parse(opts.get("spec"));
        if (!spec)
            fatal("unparseable --spec string");
        std::printf("spec:     %s\n", spec->toString().c_str());
        const auto failure = sim::checkSpec(*spec, jobs);
        if (!failure) {
            std::printf("OK: spec passes all gates\n");
            return 0;
        }
        std::printf("FAIL [%s]: %s\n", failure->kind.c_str(),
                    failure->detail.c_str());
        return 1;
    }

    const u64 iters = static_cast<u64>(opts.getInt("iters", 25));
    const u64 seed = static_cast<u64>(opts.getInt("seed", 1));
    std::printf("campaign: seed=%llu iters=%llu jobs=%u\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(iters), jobs);
    const auto campaign = sim::runCampaign(seed, iters, jobs, true);
    if (campaign.failures.empty()) {
        std::printf("OK: %llu iterations, zero divergences\n",
                    static_cast<unsigned long long>(campaign.iterations));
        return 0;
    }
    for (const auto &failure : campaign.failures) {
        std::printf("FAIL [%s]: %s\n  repro: fuzz_diff --spec=\"%s\"\n",
                    failure.kind.c_str(), failure.detail.c_str(),
                    failure.spec.toString().c_str());
    }
    return 1;
}
