/**
 * @file
 * Parallel, memoizing, crash-resilient experiment runner.
 *
 * The bench harnesses reproduce paper figures from many *independent*
 * simulations; the runner executes them across a fixed-size thread
 * pool while keeping the output bit-identical to a serial loop:
 *
 *  - determinism: every simulation is self-contained (its own System,
 *    Rng, FaultInjector seeded from the spec), results are returned in
 *    request order, and nothing about scheduling leaks into a result;
 *  - deduplication: identical specs inside one runMany() batch
 *    simulate once (baselines used to be re-run per variant);
 *  - memoization: results are cached across calls under a canonical
 *    spec key, so BaselineCache, geomeanSpeedup and the figure
 *    harnesses all share one simulation per distinct spec;
 *  - shared data-cache work: runs that differ only in policy feed
 *    their data caches the same access stream, so one run per
 *    (stream, cache config) records a cycle tape and the rest replay
 *    it instead of simulating the cache (sim/cache_tape.hpp), at any
 *    worker count; workers start runs of different streams first, so
 *    a sibling rarely sleeps on the recorder;
 *  - persistence: with RunnerOptions::journal_path set, completed
 *    results are appended to a crash-consistent on-disk journal
 *    (sim/journal.hpp) and preloaded into the memo at construction, so
 *    a sweep killed mid-run resumes from its last completed job;
 *  - supervision: runManyGuarded() runs each job under a watchdog
 *    (wall-clock deadline and/or progress-stall detection via the
 *    simulated-access heartbeat) and bounded retry-with-backoff,
 *    quarantining a hung/diverged/failed spec as a JobOutcome instead
 *    of wedging or aborting the whole batch.
 *
 * Specs whose `tweak` has no `tweak_key` cannot be keyed; they run on
 * every request (still in parallel) and are never cached or journaled.
 *
 * Memo lifetime: the memo (and journal handle) live exactly as long as
 * the Runner. Replacing the global runner via setGlobalJobs() or
 * setGlobalOptions() necessarily discards the old instance's memo —
 * every cached simulation is re-run on next request. This used to
 * happen silently; it is now counted in the process-wide
 * `runner.memo_discards` counter (globalMemoDiscards()) and logged
 * with the number of entries thrown away, so a harness reconfiguring
 * mid-run can see the cost. Configure parallelism *before* the first
 * simulation (BenchEnv does) to keep the counter at zero.
 */

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/cache_tape.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "telemetry/tail.hpp"
#include "util/thread_pool.hpp"

namespace pccsim::sim {

/**
 * Canonical memoization key of a spec: a serialization of every field
 * that reaches configFor()/makeWorkload() and can change the result.
 * OracleConfig is deliberately excluded (result-neutral: an oracle run
 * either produces the identical result or throws). Returns "" for
 * specs with an unkeyed tweak (not memoizable).
 */
std::string specKey(const ExperimentSpec &spec);

/**
 * The access-stream part of specKey(): the workload spec and lanes.
 * Runs with equal workload keys feed their cores identical access
 * streams whatever their policy, which is what lets a Runner share
 * data-cache tapes (sim/cache_tape.hpp) between them.
 */
std::string workloadKey(const ExperimentSpec &spec);

/** Construction-time configuration of a Runner. */
struct RunnerOptions
{
    /** Worker count; 0 selects the host concurrency. */
    u32 jobs = 0;

    /** On-disk result journal; empty = in-memory memo only. */
    std::string journal_path{};

    /**
     * Watchdog limits for runManyGuarded() jobs; 0 disables the
     * respective check. `deadline_ms` bounds one attempt's total wall
     * time; `stall_ms` bounds the time the simulated-access heartbeat
     * may stay flat. Note the heartbeat starts only once the workload
     * is set up — generous stall budgets avoid false positives on
     * setup-heavy specs (prefer the deadline for hang protection).
     */
    u64 deadline_ms = 0;
    u64 stall_ms = 0;

    /** Watchdog scan period. */
    u64 watchdog_poll_ms = 20;

    /**
     * Bounded retry for jobs failing with an ordinary error (e.g. an
     * injected host fault): attempt 1 + max_retries times, sleeping
     * retry_backoff_ms << (attempt-1) between tries. Divergences,
     * timeouts and stalls never retry.
     */
    u32 max_retries = 0;
    u64 retry_backoff_ms = 10;
};

/** Why a guarded job did not produce a result. */
enum class JobFail : u8
{
    None = 0,  //!< success
    Timeout,   //!< wall-clock deadline exceeded; run cancelled
    Stalled,   //!< progress heartbeat flat for stall_ms; cancelled
    Diverged,  //!< the differential oracle found a divergence
    Error,     //!< ordinary exception (after exhausting retries)
};

std::string to_string(JobFail fail);

/** Result-or-quarantine of one guarded job. */
struct JobOutcome
{
    /** The result; null unless fail == None. */
    std::shared_ptr<const RunResult> result;
    JobFail fail = JobFail::None;
    /** Diagnostic (exception text) when quarantined. */
    std::string message;
    /** Attempts consumed (0 when served from the memo). */
    u32 attempts = 0;

    bool ok() const { return fail == JobFail::None && result; }
};

class Runner
{
  public:
    /** @param jobs Worker count; 0 selects the host concurrency. */
    explicit Runner(u32 jobs = 0);
    explicit Runner(RunnerOptions options);
    ~Runner();

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    u32 jobs() const { return jobs_; }
    const RunnerOptions &options() const { return options_; }

    /** Aggregate accounting across every run() / runMany() so far. */
    struct Stats
    {
        u64 requested = 0;       //!< specs handed to the runner
        u64 simulated = 0;       //!< simulations actually executed
        u64 memo_hits = 0;       //!< requests served by cache/dedup
        u64 total_accesses = 0;  //!< simulated accesses executed
        /**
         * Host ns spent inside System::run, summed over workers
         * (busy time). With jobs() > 1 this exceeds wall time — it is
         * the parallel speedup's *numerator*, never a latency — and on
         * an oversubscribed host timeslicing inflates it further.
         */
        u64 sim_nanos = 0;
        u64 wall_nanos = 0; //!< host ns spent blocked in runMany()
        /** Per-worker busy ns (sim_nanos split by thread), busiest first. */
        std::vector<u64> worker_busy_nanos;
        /**
         * Distribution of per-simulation busy ns/access across the
         * runs this process executed (memo hits excluded — they cost
         * nothing). The mean hides the one pathological run of a
         * sweep; --perf publishes this histogram's p50/p99/max and
         * bench_compare gates them like the mean.
         */
        telemetry::LatencyHistogram run_busy_ns_per_access;

        // ---- persistence and supervision ----
        u64 journal_loaded = 0;    //!< memo entries preloaded from disk
        u64 journal_malformed = 0; //!< journal lines skipped at load
        u64 journal_appends = 0;   //!< results persisted this process
        u64 journal_skipped = 0;   //!< unserializable results not persisted
        u64 quarantined = 0;       //!< guarded jobs that failed for good
        u64 retries = 0;           //!< guarded re-attempts taken

        // ---- shared data-cache work (sim/cache_tape.hpp) ----
        u64 cache_tape_records = 0; //!< tapes recorded and kept
        u64 cache_tape_replays = 0; //!< runs completed on a tape
        u64 cache_tape_waits = 0;   //!< runs that slept on a sibling's tape
        u64 cache_tape_bytes = 0;   //!< tape bytes held now
    };

    Stats stats() const;

    /** Memoized results currently held (journal preload included). */
    size_t memoSize() const;

    /** Run (or recall) one spec. */
    std::shared_ptr<const RunResult> run(const ExperimentSpec &spec);

    /**
     * Run a batch. Results arrive in spec order; duplicate keys within
     * the batch simulate once; previously-seen keys are recalled from
     * the memo. With jobs() == 1 the batch runs serially inline, in
     * spec order — jobs() > 1 produces bit-identical results. Every
     * run completes and successes are memoized even when another run
     * fails; failures then propagate as parallelMap reports them (one
     * rethrown as is, several as a util::ParallelError indexed by spec
     * position). Use runManyGuarded() to contain them per job instead.
     */
    std::vector<std::shared_ptr<const RunResult>>
    runMany(const std::vector<ExperimentSpec> &specs);

    /**
     * Run a batch under supervision: every job is watched by the
     * deadline/stall watchdog (when configured), retried per
     * RunnerOptions on ordinary errors, and quarantined — never
     * thrown — on terminal failure. The batch always completes; a
     * hung or diverged spec costs its own slot only.
     */
    std::vector<JobOutcome>
    runManyGuarded(const std::vector<ExperimentSpec> &specs);

    /**
     * The process-wide runner used by the bench harnesses. Configure
     * it with setGlobalJobs()/setGlobalOptions() before first use
     * (BenchEnv does); reconfiguring later replaces the instance and
     * discards its memo (counted — see globalMemoDiscards()).
     */
    static Runner &global();
    static void setGlobalJobs(u32 jobs);
    static void setGlobalOptions(const RunnerOptions &options);

    /**
     * Process-wide `runner.memo_discards` counter: how many times a
     * global-runner reconfiguration threw away a non-empty memo.
     */
    static u64 globalMemoDiscards();

  private:
    struct Supervision;

    /** Run one spec (no memo): timing, stats, journal append. */
    std::shared_ptr<const RunResult>
    simulate(const ExperimentSpec &spec, const std::string &key,
             Supervision *supervision);

    /** simulate() wrapped in retry/quarantine; never throws. */
    JobOutcome runGuarded(const ExperimentSpec &spec,
                          const std::string &key,
                          Supervision *supervision);

    /**
     * The one batch path of runMany() and runManyGuarded(): serve
     * memo hits and in-batch duplicates, run the rest on the pool,
     * memoize successes, and return outcomes in spec order. Without
     * `failures` every run is guarded (watched when RunnerOptions
     * asks, retried, quarantined); with it a run is tried once and its
     * exception lands there, under its spec index. Workers pull runs
     * stream-aware (StreamQueue in sim/runner.cpp), so they start
     * different streams first.
     */
    std::vector<JobOutcome>
    runBatch(const std::vector<ExperimentSpec> &specs,
             std::vector<util::ParallelError::Failure> *failures);

    u32 jobs_;
    RunnerOptions options_;
    std::unique_ptr<util::ThreadPool> pool_; //!< created when jobs_ > 1
    std::unique_ptr<ResultJournal> journal_;

    /**
     * Data-cache tapes shared by this runner's simulations: the first
     * run on a (stream, cache config) records one, later runs replay
     * it. Lives exactly as long as the memo.
     */
    CacheTapeStore tapes_;

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const RunResult>> memo_;
    Stats stats_;
    std::map<std::thread::id, u64> worker_busy_;
};

} // namespace pccsim::sim
