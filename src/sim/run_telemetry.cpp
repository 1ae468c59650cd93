#include "sim/run_telemetry.hpp"

namespace pccsim::sim {

RunTelemetry::RunTelemetry(const telemetry::TelemetryConfig &config,
                           u32 num_jobs, Sources sources)
    : config_(config), src_(std::move(sources))
{
    using telemetry::SampleKind;
    constexpr auto Cumulative = SampleKind::Cumulative;
    constexpr auto Gauge = SampleKind::Gauge;
    constexpr std::optional<SampleKind> Final;
    os::Os *os = src_.os;
    const auto count = [this](u64 CoreCounters::*field) {
        return [this, field] { return src_.machine().*field; };
    };
    const auto osStat = [os](const char *name) {
        return [os, name] { return os->stats().get(name); };
    };

    // Series appear in registration order; final counters are sorted
    // by name, so the sources that feed no series may go anywhere.
    source("tlb_accesses", Final, count(&CoreCounters::tlb_accesses));
    source("walks", Cumulative, count(&CoreCounters::walks));
    source("l1_hits", Cumulative, count(&CoreCounters::l1_hits));
    source("l2_hits", Cumulative, count(&CoreCounters::l2_hits));
    source("faults", Cumulative, count(&CoreCounters::faults));
    source("promotions", Cumulative, osStat("promotions"));
    source("promotions_1g", Final, osStat("promotions_1g"));
    source("demotions", Cumulative, osStat("demotions"));
    source("compactions", Cumulative,
           [os] { return os->phys().stats().get("compactions"); });
    source("reclaim_events", Cumulative, osStat("reclaim_events"));
    source("reclaimed_frames", Final, osStat("reclaimed_frames"));
    source("shootdowns", Cumulative, [this] { return *src_.shootdowns; });
    source("os_background_cycles", Final,
           [os] { return os->backgroundCycles(); });
    source("pcc_topk_churn", Cumulative, [this] { return churn_total_; });
    source("pcc_occupancy", Gauge, [this] {
        u64 sum = 0;
        for (const pcc::PccUnit *pcc : src_.pccs)
            sum += pcc->occupancy();
        return sum;
    });
    for (u32 j = 0; j < num_jobs; ++j) {
        source("job" + std::to_string(j) + "_cycles", Gauge,
               [this, j] { return src_.job_cycles(j); });
    }
    // Per-tenant fairness and starvation: only for genuinely
    // multi-tenant runs, so a 1-tenant tenant-mode run reports exactly
    // what the single-process path does.
    if (const tenant::Scheduler *ts = src_.tsched; ts && num_jobs > 1) {
        source("tenant_switches", Cumulative,
               [ts] { return ts->switches(); });
        for (u32 j = 0; j < num_jobs; ++j) {
            const std::string prefix = "tenant" + std::to_string(j);
            source(prefix + "_switches", Final,
                   [ts, j] { return ts->switchesOf(j); });
            source(prefix + "_ops", Cumulative,
                   [ts, j] { return ts->opsOf(j); });
            source(prefix + "_walks", Cumulative,
                   [this, j] { return (*src_.jobs)[j].walks; });
            source(prefix + "_faults", Final,
                   [this, j] { return (*src_.jobs)[j].faults; });
        }
    }
    if (config_.histograms) {
        tail_ = std::make_unique<telemetry::TailRecorder>(
            static_cast<u32>(src_.pccs.size()), num_jobs,
            config_.exemplar_k);
        // Windowed translation-latency quantiles: computed over the
        // just-closed interval window and published as gauges, so the
        // series read "p99 this interval", not "p99 so far".
        const char *names[] = {"tail_p50_cycles", "tail_p90_cycles",
                               "tail_p99_cycles", "tail_p999_cycles",
                               "tail_max_cycles"};
        for (u32 i = 0; i < 5; ++i)
            source(names[i], Gauge, [this, i] { return tail_gauges_[i]; });
    }

    const auto clock = [now = src_.clock] { return *now; };
    if (config_.trace_events) {
        tracer_ = std::make_unique<telemetry::EventTracer>(
            config_.max_events);
        tracer_->setClock(clock);
        os->setTracer(tracer_.get());
        if (src_.injector)
            src_.injector->setTracer(tracer_.get());
    }
    if (config_.attribution) {
        profiler_ = std::make_unique<telemetry::RegionProfiler>(
            config_.attribution_regions);
        // PCC evictions flow through a per-cache hook so attribution
        // sees the victim region with the core's owning process.
        for (size_t c = 0; c < src_.pccs.size(); ++c) {
            src_.pccs[c]->pcc2m().setEvictionHook([this, c](Vpn region) {
                if (const os::Process *proc = (*src_.core_process)[c])
                    profiler_->recordPccEviction(proc->pid(), region);
            });
        }
    }
    if (config_.audit) {
        audit_ = std::make_unique<telemetry::PromotionAuditLog>(
            config_.max_audit_records);
        audit_->setClock(clock);
        os->setAuditLog(audit_.get());
    }
}

RunTelemetry::~RunTelemetry()
{
    if (profiler_) {
        for (pcc::PccUnit *pcc : src_.pccs)
            pcc->pcc2m().setEvictionHook({});
    }
}

void
RunTelemetry::source(const std::string &name,
                     std::optional<telemetry::SampleKind> kind,
                     std::function<u64()> read)
{
    registry_.probe(name, std::move(read));
    if (kind)
        sampler_.track(name, *kind);
}

void
RunTelemetry::sampleInterval(u64 interval)
{
    // Merge the ranked heads of every core's PCC: the churn of that
    // union is how much of the system-wide candidate set turned over
    // this interval.
    std::vector<Vpn> merged;
    for (const pcc::PccUnit *pcc : src_.pccs) {
        auto top = pcc->topRegions(config_.top_k);
        merged.insert(merged.end(), top.begin(), top.end());
    }
    churn_total_ += churn_.update(std::move(merged));
    if (tail_) {
        // Quantiles of the interval window just ending; the window
        // then resets so each sample is an independent slice of time.
        const telemetry::LatencyHistogram &window = tail_->window();
        tail_gauges_[0] = window.quantile(0.50);
        tail_gauges_[1] = window.quantile(0.90);
        tail_gauges_[2] = window.quantile(0.99);
        tail_gauges_[3] = window.quantile(0.999);
        tail_gauges_[4] = window.maxValue();
        tail_->resetWindow();
    }
    sampler_.sample();
    if (tracer_) {
        tracer_->record(telemetry::EventKind::Interval, 0, 0, 0,
                        interval);
    }
}

std::shared_ptr<const telemetry::TelemetryReport>
RunTelemetry::report(u64 intervals)
{
    auto report = std::make_shared<telemetry::TelemetryReport>();
    report->intervals = intervals;
    report->counters = registry_.readAll();
    report->series = sampler_.takeSeries();
    if (tracer_) {
        report->events_dropped = tracer_->dropped();
        report->events = tracer_->takeEvents();
    }
    if (profiler_)
        report->attribution = profiler_->report();
    if (audit_)
        report->audit = audit_->report();
    if (tail_) {
        report->tail = tail_->report();
        // Link every worst-K exemplar to the latest promotion decision
        // about its region (no-op without --audit).
        telemetry::annotateExemplars(report->tail, report->audit);
    }
    return report;
}

} // namespace pccsim::sim
