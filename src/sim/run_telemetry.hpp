/**
 * @file
 * One run's telemetry: everything SystemConfig::telemetry switches on,
 * in one object the System holds only when telemetry is enabled — the
 * source registry and its interval sampler, the event tracer, the
 * region profiler, the audit log, the PCC top-K churn tracker and the
 * tail recorder. The System calls in on each detailed access and walk
 * (inline here, so the engine's flattened loop keeps them), on region
 * shootdowns and at policy intervals.
 */

#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "os/os.hpp"
#include "pcc/pcc_unit.hpp"
#include "pt/walker.hpp"
#include "sim/core_counters.hpp"
#include "sim/fault_injector.hpp"
#include "telemetry/attribution.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/report.hpp"
#include "telemetry/series.hpp"
#include "telemetry/tail.hpp"
#include "telemetry/trace.hpp"
#include "tenant/scheduler.hpp"

namespace pccsim::sim {

class RunTelemetry
{
  public:
    /** The run state the probes read; all of it outlives the object. */
    struct Sources
    {
        os::Os *os = nullptr;
        FaultInjector *injector = nullptr;         //!< null: no faults
        const tenant::Scheduler *tsched = nullptr; //!< null: no tenants
        std::vector<pcc::PccUnit *> pccs;          //!< per core
        const std::vector<os::Process *> *core_process = nullptr;
        const u64 *clock = nullptr;      //!< accesses simulated so far
        const u64 *shootdowns = nullptr; //!< shootdowns so far
        const std::vector<CoreCounters> *jobs = nullptr; //!< per job
        std::function<CoreCounters()> machine; //!< all cores, summed
        std::function<Cycles(u32 job)> job_cycles; //!< its wall so far
    };

    RunTelemetry(const telemetry::TelemetryConfig &config, u32 num_jobs,
                 Sources sources);
    ~RunTelemetry();

    telemetry::PromotionAuditLog *audit() { return audit_.get(); }

    /**
     * One detailed access, for the tail recorder (if histograms are
     * on). Fast-forwarded accesses carry a mean charge, not a latency,
     * and are never recorded.
     */
    void
    recordAccess(u32 core, u32 job, Pid pid, Addr vaddr,
                 telemetry::TailOutcome outcome, Cycles cost,
                 Cycles walk_cost, Cycles stall_cost, u64 core_faults)
    {
        if (!tail_)
            return;
        tail_->record(core, job, pid, *src_.clock,
                      mem::pageBase(vaddr, mem::PageSize::Huge2M),
                      outcome, cost, walk_cost, stall_cost,
                      *src_.shootdowns, core_faults);
    }

    /** One page walk, before `pcc` observes it: pcc_hit must say
        whether the region was tracked when the walk retired. */
    void
    recordWalk(const pcc::PccUnit &pcc, Pid pid, Addr vaddr,
               const pt::WalkOutcome &walk, Cycles cost)
    {
        if (!profiler_ && !audit_)
            return;
        const Vpn v2m = mem::vpnOf(vaddr, mem::PageSize::Huge2M);
        if (profiler_) {
            const u32 depth = walk.size == mem::PageSize::Base4K ? 4
                              : walk.size == mem::PageSize::Huge2M ? 3
                                                                   : 2;
            const u32 pwc_hits = depth - std::min(depth, walk.memory_refs);
            const bool pcc_hit = pcc.pcc2m().frequencyOf(v2m).has_value();
            profiler_->recordWalk(pid, v2m, cost, pwc_hits, pcc_hit);
        }
        if (audit_)
            audit_->chargeWalk(pid, v2m, cost);
    }

    /** A region-sized shootdown broadcast and its IPI cost. */
    void
    recordShootdown(Pid pid, Addr base, u64 bytes, Cycles cost)
    {
        if (tracer_) {
            tracer_->record(telemetry::EventKind::Shootdown, pid, base,
                            bytes, cost);
        }
    }

    /**
     * End of policy interval `interval`, after the policy acted: top-K
     * churn, windowed tail quantiles, one sample of every series.
     */
    void sampleInterval(u64 interval);

    std::shared_ptr<const telemetry::TelemetryReport>
    report(u64 intervals);

  private:
    /** Register a source; with a kind it also feeds a series. */
    void source(const std::string &name,
                std::optional<telemetry::SampleKind> kind,
                std::function<u64()> read);

    telemetry::TelemetryConfig config_;
    Sources src_;
    telemetry::Registry registry_;
    telemetry::IntervalSampler sampler_{registry_};
    std::unique_ptr<telemetry::EventTracer> tracer_;
    std::unique_ptr<telemetry::RegionProfiler> profiler_;
    std::unique_ptr<telemetry::PromotionAuditLog> audit_;
    telemetry::TopKChurnTracker churn_;
    u64 churn_total_ = 0;
    std::unique_ptr<telemetry::TailRecorder> tail_;
    /** Windowed tail quantiles: p50, p90, p99, p99.9 and max. */
    u64 tail_gauges_[5] = {};
};

} // namespace pccsim::sim
