/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: CLI options,
 * cached baseline runs, and uniform table output.
 *
 * Every harness accepts:
 *   --scale=ci|small|medium|paper   input/hardware profile
 *   --apps=bfs,sssp,...             workload subset
 *   --seed=N                        generator seed
 *   --csv                           emit CSV instead of aligned text
 *   --format=text|csv|json          output format (--csv still works)
 *   --jobs=N                        parallel simulations (0 = host
 *                                   concurrency, the default)
 *   --perf=FILE                     write runner accounting as JSON
 *   --policy=SELECTOR               policy override where the harness
 *                                   honors one. Any policy-registry
 *                                   selector works: bare keys (pcc,
 *                                   trident), parameterized forms
 *                                   (pcc:promote=8,order=rr), and
 *                                   aliases. --policy=list prints the
 *                                   registry and exits.
 *   --hw=SELECTOR                   translation-hardware backend
 *                                   applied to every spec (e.g.
 *                                   victima-reach:mult=8). --hw=list
 *                                   prints the registry and exits.
 *   --telemetry=FILE                collect per-interval series and
 *                                   write them (with final counters)
 *                                   as JSON at exit
 *   --trace=FILE                    write a Chrome about://tracing
 *                                   JSON of the run's OS/mm events
 *   --attribution=FILE              write region-level walk-cost
 *                                   attribution (heatmap rows, CDF,
 *                                   HUB concentration) as JSON
 *   --audit=FILE                    write the promotion audit trail
 *                                   (decision log, reason histogram,
 *                                   counterfactual regret) as JSON
 *   --histograms[=FILE]             collect tail-latency histograms
 *                                   (per-access translation / walk /
 *                                   fault-stall cycles, per core and
 *                                   per tenant) plus worst-K
 *                                   exemplars; prints quantile and
 *                                   exemplar sections after the
 *                                   figures and, with =FILE, writes
 *                                   the full tail report as JSON
 *   --oracle[=N]                    run every spec under the
 *                                   differential oracle (sim/oracle.hpp):
 *                                   compare against the reference model
 *                                   every N accesses (default: 1 in
 *                                   debug builds, 64 in release) and
 *                                   abort with a replayable divergence
 *                                   report on mismatch
 *   --sample=W:F                    SMARTS-style sampled simulation on
 *                                   every spec: alternate detailed
 *                                   windows of W accesses with F
 *                                   fast-forwarded accesses (page
 *                                   tables/access bits/PCC counters
 *                                   only). RunResult::sampling then
 *                                   carries per-window miss-rate and
 *                                   walk-cycle estimates with 95% CIs.
 *                                   Incompatible with --oracle.
 *   --resume=FILE                   persist finished results to (and
 *                                   preload the memo from) an on-disk
 *                                   journal, so a killed sweep rerun
 *                                   with the same --resume file skips
 *                                   completed jobs
 *
 * --telemetry/--trace/--attribution/--audit enable telemetry on every
 * spec built through BenchEnv::spec(); the exported files carry the
 * report of the first telemetry-bearing run of the process
 * (deterministic: batch order is spec order). Load the trace file in
 * chrome://tracing or Perfetto. Export failures (unwritable paths) are
 * warned about and make the process exit nonzero.
 *
 * All section output flows through one telemetry::Emitter (env.emit),
 * so --format=json renders the whole harness run as a single JSON
 * document instead of "## title" text/CSV blocks.
 *
 * The default scale is `ci` so the whole suite regenerates in
 * minutes; pass --scale=small or --scale=medium for records closer
 * to the paper's ratios (see DESIGN.md on scale profiles).
 *
 * All simulations flow through sim::Runner::global(): identical specs
 * simulate once per process, and --jobs=N fans independent runs out
 * across N workers with bit-identical output to --jobs=1.
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/runner.hpp"
#include "telemetry/emitter.hpp"
#include "util/host_profile.hpp"
#include "util/log.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pccsim::bench {

namespace detail {

/** --perf destination; static storage so the atexit hook can see it. */
inline std::string &
perfPath()
{
    static std::string path;
    return path;
}

/** --telemetry destination (interval series + counters JSON). */
inline std::string &
telemetryPath()
{
    static std::string path;
    return path;
}

/** --trace destination (Chrome about://tracing JSON). */
inline std::string &
tracePath()
{
    static std::string path;
    return path;
}

/** --attribution destination (region walk-cost attribution JSON). */
inline std::string &
attributionPath()
{
    static std::string path;
    return path;
}

/** --audit destination (promotion decision log + regret JSON). */
inline std::string &
auditPath()
{
    static std::string path;
    return path;
}

/** --histograms destination ("" = summary sections only). */
inline std::string &
histogramsPath()
{
    static std::string path;
    return path;
}

/** Sticky failure flag: export errors flip the process exit code. */
inline bool &
exportFailed()
{
    static bool failed = false;
    return failed;
}

/** Write one export file; warn and mark failure instead of losing it. */
inline void
writeExport(const std::string &path, const std::string &contents)
{
    const util::Status status =
        telemetry::Emitter::writeFileStatus(path, contents);
    if (!status.ok()) {
        warn("export failed: ", status.toString());
        exportFailed() = true;
    }
}

/** atexit hook: turn any failed export into a nonzero exit. */
inline void
exitNonzeroOnExportFailure()
{
    if (exportFailed())
        std::_Exit(1);
}

/** Section output format, set once by BenchEnv::parse. */
inline telemetry::Format &
outputFormat()
{
    static telemetry::Format format = telemetry::Format::Text;
    return format;
}

/**
 * The report backing the --telemetry/--trace exports: the first
 * telemetry-bearing result the process ran (batch order is spec order,
 * so "first" is deterministic).
 */
inline std::shared_ptr<const telemetry::TelemetryReport> &
exportReport()
{
    // Leaked on purpose. This static is first touched mid-run (by
    // noteResult), which would schedule its destructor *before* the
    // atexit export hooks registered back at parse() time — the hooks
    // would then read a freed report whenever nothing else (e.g. the
    // global runner's memo) still holds a reference, as with fig10's
    // raw-System sweeps. An immortal pointer keeps exit-time reads
    // valid; the OS reclaims it anyway.
    static auto *report =
        new std::shared_ptr<const telemetry::TelemetryReport>();
    return *report;
}

inline void
writePerfReport()
{
    const std::string &path = perfPath();
    if (path.empty())
        return;
    const sim::Runner &runner = sim::Runner::global();
    const auto stats = runner.stats();
    const auto per_access = [&stats](u64 nanos) {
        return stats.total_accesses == 0
                   ? 0.0
                   : static_cast<double>(nanos) /
                         static_cast<double>(stats.total_accesses);
    };
    telemetry::Json doc = telemetry::Json::object();
    doc.set("jobs", static_cast<u64>(runner.jobs()));
    doc.set("requested", stats.requested);
    doc.set("simulated", stats.simulated);
    doc.set("memo_hits", stats.memo_hits);
    doc.set("total_accesses", stats.total_accesses);
    // Two deliberately distinct time bases: busy ns summed over
    // workers (the throughput numerator; inflated by timeslicing when
    // oversubscribed) and the wall time the harness spent blocked in
    // batches (what --jobs actually buys). The old single
    // "sim_ns"/"ns_per_access" pair conflated them, which made
    // parallel runs look slower per access than serial ones.
    doc.set("sim_busy_ns", stats.sim_nanos);
    doc.set("busy_ns_per_access", per_access(stats.sim_nanos));
    doc.set("batch_wall_ns", stats.wall_nanos);
    doc.set("wall_ns_per_access", per_access(stats.wall_nanos));
    // Per-run tail of the same busy cost: the mean above hides the
    // one pathological simulation of a sweep. The _ns_per_access
    // suffix opts these into bench_compare's regression gate.
    const telemetry::LatencyHistogram &tail =
        stats.run_busy_ns_per_access;
    doc.set("p50_busy_ns_per_access",
            static_cast<double>(tail.quantile(0.50)));
    doc.set("p99_busy_ns_per_access",
            static_cast<double>(tail.quantile(0.99)));
    doc.set("max_busy_ns_per_access",
            static_cast<double>(tail.maxValue()));
    doc.set("tail_runs", tail.count());

    telemetry::Json resilience = telemetry::Json::object();
    resilience.set("journal_loaded", stats.journal_loaded);
    resilience.set("journal_malformed", stats.journal_malformed);
    resilience.set("journal_appends", stats.journal_appends);
    resilience.set("journal_skipped", stats.journal_skipped);
    resilience.set("quarantined", stats.quarantined);
    resilience.set("retries", stats.retries);
    resilience.set("memo_discards", sim::Runner::globalMemoDiscards());
    // Shared data-cache work (sim/cache_tape.hpp); informational, like
    // the rest of this object.
    resilience.set("cache_tape_records", stats.cache_tape_records);
    resilience.set("cache_tape_replays", stats.cache_tape_replays);
    resilience.set("cache_tape_waits", stats.cache_tape_waits);
    resilience.set("cache_tape_bytes", stats.cache_tape_bytes);
    doc.set("runner", std::move(resilience));

    telemetry::Json host = telemetry::Json::object();
    host.set("hardware_jobs",
             static_cast<u64>(util::ThreadPool::hardwareJobs()));
    host.set("peak_rss_bytes", util::HostProfile::peakRssBytes());
    telemetry::Json phases = telemetry::Json::object();
    for (const auto &[phase, nanos] : util::HostProfile::global().phases())
        phases.set(phase, nanos);
    host.set("phases", std::move(phases));
    telemetry::Json busy = telemetry::Json::array();
    for (u64 nanos : stats.worker_busy_nanos)
        busy.push(nanos);
    host.set("worker_busy_ns", std::move(busy));
    doc.set("host", std::move(host));
    writeExport(path, doc.dump(2) + "\n");
}

inline void
writeTelemetryExports()
{
    const auto &report = exportReport();
    if (!report)
        return;
    if (!telemetryPath().empty()) {
        writeExport(telemetryPath(),
                    report->seriesJson().dump(2) + "\n");
    }
    if (!tracePath().empty())
        writeExport(tracePath(), report->traceJson().dump(2) + "\n");
    if (!attributionPath().empty()) {
        writeExport(attributionPath(),
                    report->attribution.toJson().dump(2) + "\n");
    }
    if (!auditPath().empty())
        writeExport(auditPath(), report->audit.toJson().dump(2) + "\n");
    if (!histogramsPath().empty()) {
        writeExport(histogramsPath(),
                    report->tail.toJson().dump(2) + "\n");
    }
}

/** Remember the first telemetry report seen for the exit exports. */
inline void
noteResult(const sim::RunResult &result)
{
    if (!exportReport() && result.telemetry)
        exportReport() = result.telemetry;
}

} // namespace detail

/**
 * The process-wide section emitter every harness prints through.
 * Constructed on first use with the format BenchEnv::parse resolved;
 * its destructor flushes the buffered document for --format=json.
 */
inline telemetry::Emitter &
emitter()
{
    static telemetry::Emitter emitter(detail::outputFormat());
    return emitter;
}

/**
 * Tail-latency sections of the exporting run (--histograms): the
 * quantile summary and the worst-K translation exemplars. Harness
 * mains call this after their figure tables (explicitly, not via
 * atexit: the shared emitter's JSON sink must still be open). No-op
 * unless a run collected histograms.
 */
inline void
emitTailSummary()
{
    const auto &report = detail::exportReport();
    if (!report || !report->tail.enabled)
        return;
    const telemetry::TailReport &tail = report->tail;
    emitter().table("tail latency (cycles per access)",
                    telemetry::tailQuantileTable(tail));
    emitter().table("worst-" + std::to_string(tail.exemplar_k) +
                        " translation exemplars",
                    telemetry::tailExemplarTable(tail.worst_translation));
}

/**
 * Truncation/coverage footer: every bounded telemetry buffer's drop
 * counters and the attribution table's untracked share, so a truncated
 * report is never silently mistaken for a complete one. Harness mains
 * call this last; no-op unless the run collected telemetry.
 */
inline void
emitTelemetryFooter()
{
    const auto &report = detail::exportReport();
    if (!report)
        return;
    telemetry::Json footer = telemetry::Json::object();
    footer.set("trace_events", static_cast<u64>(report->events.size()));
    footer.set("trace_events_dropped", report->events_dropped);
    footer.set("audit_records",
               static_cast<u64>(report->audit.records.size()));
    footer.set("audit_records_dropped", report->audit.records_dropped);
    footer.set("audit_regret_marks_dropped",
               report->audit.regret_marks_dropped);
    const telemetry::AttributionReport &attr = report->attribution;
    footer.set("attribution_tracked_regions",
               static_cast<u64>(attr.regions.size()));
    footer.set("attribution_untracked_walk_cycles",
               attr.untracked_walk_cycles);
    footer.set("attribution_untracked_share_pct",
               percent(attr.untracked_walk_cycles,
                       attr.total_walk_cycles));
    emitter().object("telemetry: coverage & truncation", footer);
}

struct BenchEnv
{
    workloads::Scale scale = workloads::Scale::Ci;
    std::vector<std::string> apps;
    u64 seed = 42;
    bool csv = false;
    telemetry::Format format = telemetry::Format::Text;
    u32 jobs = 1; //!< resolved worker count of the global runner
    /** --policy override for harnesses that honor one (bare legacy
     *  keys land here; parameterized/contender selectors land in
     *  policy_str — see policySelector()). */
    std::optional<sim::PolicyKind> policy;
    /** --policy registry selector when it is not a bare legacy key. */
    std::string policy_str;
    /** --hw translation-hardware backend selector ("" = baseline). */
    std::string hw;
    /** Applied to every spec(); enabled by --telemetry/--trace. */
    telemetry::TelemetryConfig telemetry;
    /** Applied to every spec(); enabled by --oracle[=N]. */
    sim::OracleConfig oracle;
    /** Applied to every spec(); enabled by --sample=W:F. */
    sim::SystemConfig::SamplingConfig sampling;

    static BenchEnv
    parse(int argc, char **argv,
          std::vector<std::string> default_apps =
              workloads::allWorkloadNames())
    {
        Options opts(argc, argv);
        BenchEnv env;
        env.scale = workloads::scaleFromString(
            opts.get("scale", "ci"));
        env.seed = static_cast<u64>(opts.getInt("seed", 42));
        env.csv = opts.getBool("csv");
        env.format = telemetry::formatFromString(
            opts.get("format", env.csv ? "csv" : "text"));
        env.csv = env.format == telemetry::Format::Csv;
        detail::outputFormat() = env.format;
        if (opts.has("apps")) {
            std::stringstream ss(opts.get("apps"));
            std::string app;
            while (std::getline(ss, app, ','))
                env.apps.push_back(app);
        } else {
            env.apps = std::move(default_apps);
        }
        // --policy=list / --hw=list enumerate the registries and exit.
        if (sim::handleListFlags(opts.get("policy"), opts.get("hw")))
            std::exit(0);
        if (opts.has("policy")) {
            const std::string name = opts.get("policy");
            sim::ExperimentSpec probe;
            const util::Status status =
                sim::applyPolicySelector(probe, name);
            if (!status.ok())
                fatal(status.toString());
            if (probe.policy_str.empty())
                env.policy = probe.policy;
            else
                env.policy_str = probe.policy_str;
        }
        if (opts.has("hw")) {
            env.hw = opts.get("hw");
            sim::SystemConfig probe = sim::SystemConfig::forScale(
                workloads::Scale::Ci);
            probe.hw = env.hw;
            const util::Status status = probe.validate();
            if (!status.ok())
                fatal(status.toString());
        }
        // 0 (the default) selects host concurrency inside the runner.
        // An explicit larger count is honored (the determinism gates
        // intentionally oversubscribe), but worth a warning: extra
        // workers on a smaller host add scheduling noise, not speed.
        const u32 jobs_requested =
            static_cast<u32>(opts.getInt("jobs", 0));
        const u32 hardware = util::ThreadPool::hardwareJobs();
        if (jobs_requested > hardware) {
            warn("--jobs=", jobs_requested, " oversubscribes this host (",
                 hardware, " hardware thread",
                 hardware == 1 ? "" : "s", ")");
        }
        sim::RunnerOptions runner_options;
        runner_options.jobs = jobs_requested;
        if (opts.has("resume"))
            runner_options.journal_path = opts.get("resume");
        sim::Runner::setGlobalOptions(runner_options);
        env.jobs = sim::Runner::global().jobs();
        if (opts.has("oracle")) {
            env.oracle.enabled = true;
            const i64 every = opts.getInt("oracle", 0);
            env.oracle.sample_every =
                every > 0 ? static_cast<u64>(every)
                          : sim::OracleConfig::defaultSampleEvery();
        }
        if (opts.has("sample")) {
            const std::string wf = opts.get("sample");
            const auto colon = wf.find(':');
            i64 window = 0, fastforward = 0;
            if (colon != std::string::npos) {
                window = parseIntFlag("sample", wf.substr(0, colon));
                fastforward = parseIntFlag("sample", wf.substr(colon + 1));
            }
            if (window < 1 || fastforward < 1) {
                fatal("bad --sample=", wf,
                      " (expected --sample=W:F with W,F >= 1, e.g. "
                      "--sample=100000:900000)");
            }
            if (env.oracle.enabled) {
                fatal("--sample cannot be combined with --oracle "
                      "(the reference model cannot skip fast-forward "
                      "phases)");
            }
            env.sampling.window = static_cast<u64>(window);
            env.sampling.fastforward = static_cast<u64>(fastforward);
        }
        // Register the failure latch first: atexit runs in reverse
        // order, so it fires after every export writer below.
        std::atexit(detail::exitNonzeroOnExportFailure);
        if (opts.has("perf")) {
            detail::perfPath() = opts.get("perf");
            std::atexit(detail::writePerfReport);
        }
        if (opts.has("telemetry") || opts.has("trace") ||
            opts.has("attribution") || opts.has("audit") ||
            opts.has("histograms")) {
            detail::telemetryPath() = opts.get("telemetry", "");
            detail::tracePath() = opts.get("trace", "");
            detail::attributionPath() = opts.get("attribution", "");
            detail::auditPath() = opts.get("audit", "");
            detail::histogramsPath() = opts.get("histograms", "");
            env.telemetry.enabled = true;
            env.telemetry.attribution = opts.has("attribution");
            env.telemetry.audit = opts.has("audit");
            env.telemetry.histograms = opts.has("histograms");
            std::atexit(detail::writeTelemetryExports);
        }
        return env;
    }

    /**
     * The --policy override as a registry selector; empty when the
     * user passed none. Harnesses that honor the override apply it
     * with sim::applyPolicySelector so contender selectors (trident,
     * ubpf:..., pcc:promote=8) work everywhere a bare kind does.
     */
    std::string
    policySelector() const
    {
        if (!policy_str.empty())
            return policy_str;
        if (policy)
            return sim::to_string(*policy);
        return {};
    }

    sim::ExperimentSpec
    spec(const std::string &app, sim::PolicyKind policy_kind) const
    {
        sim::ExperimentSpec s;
        s.workload.name = app;
        s.workload.scale = scale;
        s.workload.seed = seed;
        s.policy = policy_kind;
        s.hw = hw;
        s.telemetry = telemetry;
        s.oracle = oracle;
        s.sampling = sampling;
        return s;
    }

    void
    emit(const Table &table, const std::string &title) const
    {
        emitter().table(
            title + " (scale=" + workloads::to_string(scale) + ")",
            table);
    }
};

/** Batch a spec list through the global runner (parallel + memoized). */
inline std::vector<std::shared_ptr<const sim::RunResult>>
runAll(const std::vector<sim::ExperimentSpec> &specs)
{
    auto results = sim::Runner::global().runMany(specs);
    for (const auto &result : results)
        detail::noteResult(*result);
    return results;
}

/** Run one spec through the global runner. */
inline std::shared_ptr<const sim::RunResult>
runShared(const sim::ExperimentSpec &spec)
{
    auto result = sim::Runner::global().run(spec);
    detail::noteResult(*result);
    return result;
}

/**
 * Baseline (4KB-only) runs, one per workload. Runs go through the
 * global runner's spec-keyed memo, so a baseline requested here and a
 * PolicyKind::Base spec inside geomeanSpeedup() or a figure sweep
 * simulate exactly once per process.
 */
class BaselineCache
{
  public:
    explicit BaselineCache(const BenchEnv &env) : env_(env) {}

    /** The baseline spec for one app (shared key with all users). */
    sim::ExperimentSpec
    spec(const std::string &app) const
    {
        sim::ExperimentSpec s = env_.spec(app, sim::PolicyKind::Base);
        s.cap_percent = 0.0;
        return s;
    }

    /** Simulate every app's baseline as one parallel batch. */
    void
    prefetch(const std::vector<std::string> &apps)
    {
        std::vector<sim::ExperimentSpec> specs;
        specs.reserve(apps.size());
        for (const auto &app : apps)
            specs.push_back(spec(app));
        runAll(specs);
    }

    const sim::RunResult &
    get(const std::string &app)
    {
        auto it = cache_.find(app);
        if (it != cache_.end())
            return *it->second;
        return *cache_.emplace(app, runShared(spec(app))).first->second;
    }

  private:
    const BenchEnv &env_;
    std::map<std::string, std::shared_ptr<const sim::RunResult>> cache_;
};

/** Render the utility-cap x-axis value the way the paper labels it. */
inline std::string
capLabel(double cap)
{
    if (cap < 0)
        return "~100";
    return Table::fmt(cap, 0);
}

} // namespace pccsim::bench
