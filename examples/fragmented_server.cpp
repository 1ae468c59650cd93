/**
 * @file
 * Example: a "long-lived server" scenario. Two processes — a
 * TLB-sensitive graph analytics job and a streaming batch job — share
 * one machine whose memory is heavily fragmented. Shows how the OS
 * arbitrates the scarce huge frames across per-core PCCs, and how
 * process bias (Sec. 3.3.2's promotion_bias_process) changes the
 * outcome.
 *
 * Usage: fragmented_server [--scale=ci] [--frag=0.9] [--bias=pr]
 *                          [--format=text|csv|json]
 */

#include <cstdio>

#include "sim/experiment.hpp"
#include "telemetry/emitter.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace pccsim;

namespace {

sim::RunResult
runPair(workloads::Scale scale, double frag, sim::PolicyKind policy,
        const std::vector<Pid> &bias, u64 seed)
{
    sim::ExperimentSpec spec;
    spec.workload = {"pr", scale, graph::NetworkKind::Kronecker, false,
                     seed};
    spec.corunners = {spec.workload};
    spec.corunners[0].name = "dedup";
    spec.policy = policy;
    spec.frag_fraction = policy == sim::PolicyKind::Base ? 0.0 : frag;
    spec.pcc_policy.bias_pids = bias;
    return sim::runOne(spec);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (sim::handleListFlags(opts.get("policy"), opts.get("hw")))
        return 0;
    const auto scale = workloads::scaleFromString(opts.get("scale", "ci"));
    const double frag = opts.getDouble("frag", 0.9);
    const u64 seed = static_cast<u64>(opts.getInt("seed", 42));

    const auto base =
        runPair(scale, frag, sim::PolicyKind::Base, {}, seed);

    Table table({"configuration", "pr speedup", "dedup speedup",
                 "pr THPs", "dedup THPs"});
    auto report = [&](const char *label, const sim::RunResult &run) {
        table.row({label, Table::fmt(sim::speedup(base, run, 0), 3),
                   Table::fmt(sim::speedup(base, run, 1), 3),
                   std::to_string(run.jobs[0].promotions),
                   std::to_string(run.jobs[1].promotions)});
    };

    report("linux-thp",
           runPair(scale, frag, sim::PolicyKind::LinuxThp, {}, seed));
    report("pcc",
           runPair(scale, frag, sim::PolicyKind::Pcc, {}, seed));
    report("pcc, bias=pr",
           runPair(scale, frag, sim::PolicyKind::Pcc, {0}, seed));
    report("pcc, bias=dedup",
           runPair(scale, frag, sim::PolicyKind::Pcc, {1}, seed));

    const auto format =
        telemetry::formatFromString(opts.get("format", "text"));
    telemetry::Emitter emitter(format);
    char title[128];
    std::snprintf(title, sizeof title,
                  "fragmented server: %.0f%% of memory fragmented, "
                  "scale=%s",
                  frag * 100, workloads::to_string(scale).c_str());
    emitter.table(title, table);
    emitter.close();
    if (format == telemetry::Format::Text) {
        std::printf(
            "Reading the table: the PCC finds the analytics job's\n"
            "HUB regions despite fragmentation; biasing dedup\n"
            "wastes huge frames on streaming data.\n");
    }
    return 0;
}
