#include "sim/runner.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "util/log.hpp"

namespace pccsim::sim {

namespace {

u64
nowNanos()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * The runs of one batch, handed to workers stream-aware. A worker
 * takes the first pending run, in request order, whose stream has no
 * first run in flight; only when every pending run's stream has one
 * does it take the first pending run. Parallel workers so start
 * different streams, and a stream's later runs find its data-cache
 * tape recorded instead of sleeping on the recorder's claim. With one
 * worker nothing is in flight at a pick, so the batch runs in request
 * order.
 */
class StreamQueue
{
  public:
    explicit StreamQueue(const std::vector<std::string> &streams)
        : streams_(streams), pending_(streams.size())
    {
        std::iota(pending_.begin(), pending_.end(), size_t{0});
    }

    /** The next run to start, or nothing when every run has started. */
    std::optional<size_t>
    next()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (pending_.empty())
            return std::nullopt;
        auto pick = std::find_if(
            pending_.begin(), pending_.end(), [&](size_t n) {
                return !first_in_flight_.count(streams_[n]);
            });
        if (pick == pending_.end())
            pick = pending_.begin();
        const size_t n = *pick;
        pending_.erase(pick);
        if (started_.insert(streams_[n]).second)
            first_in_flight_.emplace(streams_[n], n);
        return n;
    }

    /** Run `n` has finished, successfully or not. */
    void
    finish(size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = first_in_flight_.find(streams_[n]);
        if (it != first_in_flight_.end() && it->second == n)
            first_in_flight_.erase(it);
    }

  private:
    std::mutex mutex_;
    const std::vector<std::string> &streams_;
    std::vector<size_t> pending_;
    std::set<std::string> started_;
    std::map<std::string, size_t> first_in_flight_; //!< stream -> run
};

/**
 * Run task(n) for every n < streams.size() on `pool`'s workers (inline
 * on the caller without a pool), in StreamQueue order. task must not
 * throw.
 */
template <typename Task>
void
dispatch(util::ThreadPool *pool, const std::vector<std::string> &streams,
         const Task &task)
{
    StreamQueue queue(streams);
    const auto work = [&] {
        while (const std::optional<size_t> n = queue.next()) {
            task(*n);
            queue.finish(*n);
        }
    };
    const size_t workers =
        pool ? std::min<size_t>(pool->size(), streams.size()) : 1;
    if (workers <= 1) {
        work();
        return;
    }
    const std::vector<size_t> slots(workers);
    pool->parallelMap(slots, [&](const size_t &) {
        work();
        return 0;
    });
}

} // namespace

std::string
to_string(JobFail fail)
{
    switch (fail) {
      case JobFail::None: return "none";
      case JobFail::Timeout: return "timeout";
      case JobFail::Stalled: return "stalled";
      case JobFail::Diverged: return "diverged";
      case JobFail::Error: return "error";
    }
    return "?";
}

std::string
workloadKey(const ExperimentSpec &spec)
{
    std::ostringstream os;
    const auto &w = spec.workload;
    os << w.name << '|' << static_cast<int>(w.scale) << '|'
       << static_cast<int>(w.network) << '|' << w.dbg_sorted << '|'
       << w.seed << '|' << spec.lanes;
    // Appended only when present, so every one-workload spec keeps the
    // exact key (journals, memos) it had before co-runners existed.
    for (const workloads::WorkloadSpec &c : spec.corunners) {
        os << "|co=" << c.name << ',' << static_cast<int>(c.scale) << ','
           << static_cast<int>(c.network) << ',' << c.dbg_sorted << ','
           << c.seed;
    }
    return os.str();
}

std::string
specKey(const ExperimentSpec &spec)
{
    if (spec.tweak && spec.tweak_key.empty())
        return {};
    std::ostringstream os;
    os.precision(17);
    os << workloadKey(spec) << '|'
       << static_cast<int>(spec.policy) << '|' << spec.cap_percent
       << '|' << spec.frag_fraction;
    const auto &p = spec.pcc_policy;
    os << '|' << p.regions_to_promote << '|' << static_cast<int>(p.order);
    for (Pid pid : p.bias_pids)
        os << ',' << pid;
    os << '|' << p.allow_compaction << p.demote_on_pressure << '|'
       << p.min_frequency << '|' << p.promote_1g << '|' << p.ratio_1g;
    // Appended only when set, like the selectors below.
    if (!p.arbiter.empty())
        os << "|arbiter=" << p.arbiter;
    // Telemetry settings change the attached report (part of RunResult
    // equality), so they must be part of the memo identity too.
    const auto &t = spec.telemetry;
    os << '|' << t.enabled << t.trace_events << t.attribution << t.audit
       << '|' << t.top_k << '|' << t.max_events << '|'
       << t.attribution_regions << '|' << t.max_audit_records;
    // Appended ONLY when enabled so every pre-histogram spec keeps the
    // exact key it had (journals and memos stay valid).
    if (t.histograms)
        os << "|hist=" << t.exemplar_k;
    // Fault schedules, invariant sweeps, interval overrides and planted
    // mutations all change results; the oracle (result-neutral) does
    // not and is deliberately absent.
    const auto &f = spec.faults;
    os << '|' << f.alloc_fail_base << ',' << f.alloc_fail_huge << ','
       << f.alloc_fail_1g << ',' << f.compaction_fail << ','
       << f.compaction_partial << ',' << f.partial_move_limit << ','
       << f.shootdown_storm << ',' << f.shootdown_storm_cycles << ','
       << f.shock_fraction << ',' << f.seed_salt;
    for (u64 shock : f.shock_intervals)
        os << ',' << shock;
    os << '|' << spec.check_invariants << '|' << spec.interval_accesses
       << '|' << static_cast<int>(spec.mutation);
    // Sampling is NOT result-neutral (estimates vs exact): a sampled
    // run and an exact run of the same workload must never share a
    // memo entry, so W:F is part of the identity.
    os << "|sample=" << spec.sampling.window << ':'
       << spec.sampling.fastforward;
    os << '|' << spec.tweak_key;
    // Registry selectors: appended ONLY when set, so every legacy spec
    // keeps the exact key it had before the registry existed (bare
    // legacy names canonicalize onto the enum and leave these empty).
    // The distinct `policy=`/`hw=` markers keep `pcc:promote=8` from
    // ever colliding with a tweak_key or another selector variant.
    if (!spec.policy_str.empty())
        os << "|policy=" << spec.policy_str;
    if (!spec.hw.empty())
        os << "|hw=" << spec.hw;
    return os.str();
}

/** Per-guarded-job heartbeat shared between worker and watchdog. */
struct Runner::Supervision
{
    std::atomic<u64> progress{0};    //!< simulated accesses so far
    std::atomic<bool> cancel{false}; //!< watchdog -> worker
    std::atomic<u64> started_ns{0};  //!< attempt start; 0 = not running
    std::atomic<u8> verdict{0};      //!< 0 none, 1 deadline, 2 stall
    std::atomic<bool> done{false};

    // Watchdog-private scan state (single watchdog thread).
    u64 last_progress = ~0ull;
    u64 last_change_ns = 0;
};

Runner::Runner(u32 jobs) : Runner(RunnerOptions{.jobs = jobs}) {}

Runner::Runner(RunnerOptions options)
    : jobs_(options.jobs == 0 ? util::ThreadPool::hardwareJobs()
                              : options.jobs),
      options_(std::move(options))
{
    if (jobs_ > 1)
        pool_ = std::make_unique<util::ThreadPool>(jobs_);
    if (!options_.journal_path.empty()) {
        journal_ = std::make_unique<ResultJournal>(options_.journal_path);
        const auto loaded = journal_->load(memo_);
        stats_.journal_loaded = loaded.loaded;
        stats_.journal_malformed = loaded.malformed;
    }
}

Runner::~Runner() = default;

Runner::Stats
Runner::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats snapshot = stats_;
    const CacheTapeStore::Stats tapes = tapes_.stats();
    snapshot.cache_tape_records = tapes.records;
    snapshot.cache_tape_replays = tapes.replays;
    snapshot.cache_tape_waits = tapes.waits;
    snapshot.cache_tape_bytes = tapes.bytes;
    snapshot.worker_busy_nanos.clear();
    snapshot.worker_busy_nanos.reserve(worker_busy_.size());
    for (const auto &[tid, busy] : worker_busy_)
        snapshot.worker_busy_nanos.push_back(busy);
    std::sort(snapshot.worker_busy_nanos.begin(),
              snapshot.worker_busy_nanos.end(), std::greater<u64>());
    return snapshot;
}

size_t
Runner::memoSize() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return memo_.size();
}

std::shared_ptr<const RunResult>
Runner::simulate(const ExperimentSpec &spec, const std::string &key,
                 Supervision *supervision)
{
    const u64 t0 = nowNanos();
    auto result = std::make_shared<const RunResult>(
        runOne(spec, supervision ? &supervision->progress : nullptr,
               supervision ? &supervision->cancel : nullptr, &tapes_));
    const u64 elapsed = nowNanos() - t0;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.simulated;
    stats_.total_accesses += result->total_accesses;
    stats_.sim_nanos += elapsed;
    if (result->total_accesses > 0) {
        stats_.run_busy_ns_per_access.record(elapsed /
                                             result->total_accesses);
    }
    worker_busy_[std::this_thread::get_id()] += elapsed;
    if (journal_ && !key.empty()) {
        if (journal_->append(key, *result)) {
            ++stats_.journal_appends;
        } else if (stats_.journal_skipped++ == 0 &&
                   !ResultJournal::serializable(*result)) {
            warn("journal '", options_.journal_path,
                 "': results that carry telemetry are not journaled and "
                 "will be simulated again on resume");
        }
    }
    return result;
}

JobOutcome
Runner::runGuarded(const ExperimentSpec &spec, const std::string &key,
                   Supervision *supervision)
{
    JobOutcome outcome;
    for (u32 attempt = 1;; ++attempt) {
        outcome.attempts = attempt;
        if (supervision) {
            supervision->progress.store(0, std::memory_order_relaxed);
            supervision->verdict.store(0, std::memory_order_relaxed);
            supervision->cancel.store(false, std::memory_order_relaxed);
            // The watchdog anchors its stall window at the later of
            // started_ns and the last progress change, so bumping the
            // start resets the window for this attempt.
            supervision->started_ns.store(nowNanos());
        }
        try {
            outcome.result = simulate(spec, key, supervision);
            outcome.fail = JobFail::None;
            outcome.message.clear();
            break;
        } catch (const OracleError &e) {
            outcome.fail = JobFail::Diverged;
            outcome.message = e.what();
            break;
        } catch (const CancelledError &e) {
            const u8 verdict =
                supervision ? supervision->verdict.load() : u8{0};
            outcome.fail =
                verdict == 2 ? JobFail::Stalled : JobFail::Timeout;
            outcome.message = e.what();
            break;
        } catch (const std::exception &e) {
            if (attempt > options_.max_retries) {
                outcome.fail = JobFail::Error;
                outcome.message = e.what();
                break;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.retries;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(
                options_.retry_backoff_ms << (attempt - 1)));
        } catch (...) {
            outcome.fail = JobFail::Error;
            outcome.message = "unknown exception";
            break;
        }
    }
    if (supervision)
        supervision->done.store(true);
    return outcome;
}

std::shared_ptr<const RunResult>
Runner::run(const ExperimentSpec &spec)
{
    return runMany({spec}).front();
}

std::vector<std::shared_ptr<const RunResult>>
Runner::runMany(const std::vector<ExperimentSpec> &specs)
{
    std::vector<util::ParallelError::Failure> failures;
    std::vector<JobOutcome> outcomes = runBatch(specs, &failures);
    util::ThreadPool::rethrowFailures(std::move(failures), specs.size());
    std::vector<std::shared_ptr<const RunResult>> out;
    out.reserve(outcomes.size());
    for (JobOutcome &outcome : outcomes)
        out.push_back(std::move(outcome.result));
    return out;
}

std::vector<JobOutcome>
Runner::runManyGuarded(const std::vector<ExperimentSpec> &specs)
{
    return runBatch(specs, nullptr);
}

std::vector<JobOutcome>
Runner::runBatch(const std::vector<ExperimentSpec> &specs,
                 std::vector<util::ParallelError::Failure> *failures)
{
    const u64 wall_t0 = nowNanos();
    std::vector<JobOutcome> out(specs.size());
    std::vector<std::string> keys(specs.size());
    // Indices that need a simulation; for duplicate keys inside the
    // batch only the first occurrence simulates (the batch owner).
    std::vector<size_t> to_run;
    std::map<std::string, size_t> batch_owner;
    std::vector<std::pair<size_t, size_t>> followers;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.requested += specs.size();
        for (size_t i = 0; i < specs.size(); ++i) {
            keys[i] = specKey(specs[i]);
            if (keys[i].empty()) {
                to_run.push_back(i); // unkeyed: always simulate
                continue;
            }
            if (auto it = memo_.find(keys[i]); it != memo_.end()) {
                out[i].result = it->second;
                ++stats_.memo_hits;
                continue;
            }
            if (auto it = batch_owner.find(keys[i]);
                it != batch_owner.end()) {
                followers.emplace_back(i, it->second);
                ++stats_.memo_hits;
                continue;
            }
            batch_owner.emplace(keys[i], i);
            to_run.push_back(i);
        }
    }

    const bool watched = !failures && (options_.deadline_ms > 0 ||
                                       options_.stall_ms > 0);
    std::vector<std::unique_ptr<Supervision>> supervisions;
    if (watched) {
        supervisions.reserve(to_run.size());
        for (size_t n = 0; n < to_run.size(); ++n)
            supervisions.push_back(std::make_unique<Supervision>());
    }

    std::atomic<bool> watchdog_stop{false};
    std::thread watchdog;
    if (watched && !to_run.empty()) {
        const u64 poll_ms = std::max<u64>(1, options_.watchdog_poll_ms);
        watchdog = std::thread([this, &supervisions, &watchdog_stop,
                                poll_ms] {
            while (!watchdog_stop.load(std::memory_order_relaxed)) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(poll_ms));
                const u64 now = nowNanos();
                for (auto &sup_ptr : supervisions) {
                    Supervision &sup = *sup_ptr;
                    if (sup.done.load(std::memory_order_relaxed))
                        continue;
                    const u64 started = sup.started_ns.load();
                    if (started == 0)
                        continue; // attempt not running yet
                    if (options_.deadline_ms > 0 &&
                        now - started >
                            options_.deadline_ms * 1'000'000ull) {
                        sup.verdict.store(1);
                        sup.cancel.store(true);
                        continue;
                    }
                    const u64 progress =
                        sup.progress.load(std::memory_order_relaxed);
                    if (progress != sup.last_progress) {
                        sup.last_progress = progress;
                        sup.last_change_ns = now;
                        continue;
                    }
                    const u64 anchor =
                        std::max(sup.last_change_ns, started);
                    if (options_.stall_ms > 0 &&
                        now - anchor >
                            options_.stall_ms * 1'000'000ull) {
                        sup.verdict.store(2);
                        sup.cancel.store(true);
                    }
                }
            }
        });
    }

    if (!to_run.empty()) {
        std::mutex failures_mutex;
        std::vector<std::string> streams;
        streams.reserve(to_run.size());
        for (size_t i : to_run)
            streams.push_back(workloadKey(specs[i]));
        // Each run writes only its own slot of `out`.
        dispatch(pool_.get(), streams, [&](size_t n) {
            const size_t i = to_run[n];
            if (!failures) {
                out[i] = runGuarded(specs[i], keys[i],
                                    watched ? supervisions[n].get()
                                            : nullptr);
                return;
            }
            try {
                out[i].result = simulate(specs[i], keys[i], nullptr);
                out[i].attempts = 1;
            } catch (...) {
                out[i].fail = JobFail::Error;
                std::lock_guard<std::mutex> lock(failures_mutex);
                failures->push_back({i, std::current_exception()});
            }
        });
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i : to_run) {
            if (out[i].ok()) {
                if (!keys[i].empty())
                    memo_.emplace(keys[i], out[i].result);
            } else if (!failures) {
                ++stats_.quarantined;
            }
        }
    }

    if (watchdog.joinable()) {
        watchdog_stop.store(true);
        watchdog.join();
    }

    // Followers inherit their owner's outcome, quarantine included.
    for (const auto &[follower, owner] : followers)
        out[follower] = out[owner];
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stats_.wall_nanos += nowNanos() - wall_t0;
    }
    return out;
}

namespace {

std::mutex g_runner_mutex;
std::unique_ptr<Runner> g_runner;
std::atomic<u64> g_memo_discards{0};

/** Replace the global runner, accounting a discarded non-empty memo. */
void
replaceGlobalLocked(std::unique_ptr<Runner> next)
{
    if (g_runner) {
        const size_t entries = g_runner->memoSize();
        if (entries > 0) {
            g_memo_discards.fetch_add(1);
            warn("runner.memo_discards: reconfiguring the global "
                 "runner discarded ",
                 entries, " memoized result(s)");
        }
    }
    g_runner = std::move(next);
}

} // namespace

Runner &
Runner::global()
{
    std::lock_guard<std::mutex> lock(g_runner_mutex);
    if (!g_runner)
        g_runner = std::make_unique<Runner>(0);
    return *g_runner;
}

void
Runner::setGlobalJobs(u32 jobs)
{
    std::lock_guard<std::mutex> lock(g_runner_mutex);
    replaceGlobalLocked(std::make_unique<Runner>(jobs));
}

void
Runner::setGlobalOptions(const RunnerOptions &options)
{
    std::lock_guard<std::mutex> lock(g_runner_mutex);
    replaceGlobalLocked(std::make_unique<Runner>(options));
}

u64
Runner::globalMemoDiscards()
{
    return g_memo_discards.load();
}

} // namespace pccsim::sim
