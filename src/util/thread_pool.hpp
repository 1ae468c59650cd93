/**
 * @file
 * Fixed-size worker-thread pool for the experiment runner.
 *
 * The pool exists to run *independent* simulations concurrently: tasks
 * must not share mutable state. parallelMap() preserves input order in
 * its result vector, so callers see exactly the output a serial loop
 * would produce regardless of completion order.
 */

#pragma once

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace pccsim::util {

/**
 * Thrown by parallelMap() when two or more tasks failed: carries the
 * exception_ptr and item index of every failure so a batch caller (a
 * fuzz campaign, a sweep) can name each failing item instead of
 * learning about one arbitrary winner of the failure race. A single
 * failure is rethrown as its original type — callers catching domain
 * errors (e.g. an oracle divergence) keep working unchanged.
 */
class ParallelError : public std::runtime_error
{
  public:
    struct Failure
    {
        size_t index;              //!< input index of the failed item
        std::exception_ptr error;  //!< the task's original exception
    };

    ParallelError(const std::string &what, std::vector<Failure> failures)
        : std::runtime_error(what), failures_(std::move(failures))
    {
    }

    const std::vector<Failure> &failures() const { return failures_; }

  private:
    std::vector<Failure> failures_;
};

class ThreadPool
{
  public:
    /** @param threads Worker count; 0 selects hardwareJobs(). */
    explicit ThreadPool(u32 threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    u32 size() const { return static_cast<u32>(workers_.size()); }

    /** Host hardware concurrency, never less than 1. */
    static u32 hardwareJobs();

    /** Enqueue one task; runs on some worker in FIFO dispatch order. */
    void post(std::function<void()> task);

    /**
     * Apply fn to every item and return the results in input order.
     *
     * Results land at the index of their item, so the output is
     * identical to a serial `for` loop over `items` (fn must be pure
     * with respect to shared state); the result type must be
     * default-constructible. With one worker (or one item) the map
     * runs inline on the calling thread.
     *
     * Failure semantics (identical inline and pooled): every task runs
     * to completion regardless of other tasks failing. Exactly one
     * failure is rethrown as its original exception; two or more are
     * aggregated into a ParallelError naming every failed index.
     */
    template <typename T, typename Fn>
    auto
    parallelMap(const std::vector<T> &items, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, const T &>>
    {
        using R = std::invoke_result_t<Fn &, const T &>;
        std::vector<R> results(items.size());
        std::vector<ParallelError::Failure> failures;
        if (items.size() <= 1 || size() <= 1) {
            for (size_t i = 0; i < items.size(); ++i) {
                try {
                    results[i] = fn(items[i]);
                } catch (...) {
                    failures.push_back({i, std::current_exception()});
                }
            }
            rethrowFailures(std::move(failures), items.size());
            return results;
        }

        std::mutex batch_mutex;
        std::condition_variable batch_done;
        size_t remaining = items.size();

        for (size_t i = 0; i < items.size(); ++i) {
            post([&, i] {
                try {
                    results[i] = fn(items[i]);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(batch_mutex);
                    failures.push_back({i, std::current_exception()});
                }
                std::lock_guard<std::mutex> lock(batch_mutex);
                if (--remaining == 0)
                    batch_done.notify_all();
            });
        }

        std::unique_lock<std::mutex> lock(batch_mutex);
        batch_done.wait(lock, [&] { return remaining == 0; });
        lock.unlock();
        rethrowFailures(std::move(failures), items.size());
        return results;
    }

    /**
     * parallelMap()'s failure report, for batch callers that collect
     * their own: no-op for zero failures, original rethrow for one,
     * aggregate ParallelError for several (ordered by item index).
     */
    static void rethrowFailures(std::vector<ParallelError::Failure> failures,
                                size_t total);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

/**
 * How many parts to cut `n` units of work into: as many as `threads`
 * (0 selects ThreadPool::hardwareJobs()), but no part smaller than
 * `min_part` units, and never fewer than one part.
 */
u32 partCount(u64 n, u64 min_part, u32 threads);

/** First unit of part `part` of `parts` near-equal parts of [0, n). */
inline u64
partBegin(u64 n, u32 part, u32 parts)
{
    return static_cast<u64>(static_cast<unsigned __int128>(n) * part /
                            parts);
}

/**
 * Call fn(part) for every part in [0, parts), each on its own thread
 * of a pool made for this call; a single part runs inline. Failures
 * are reported as parallelMap() reports them.
 */
void forEachPart(u32 parts, const std::function<void(u32)> &fn);

} // namespace pccsim::util
