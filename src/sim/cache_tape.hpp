/**
 * @file
 * Data-cache cycle tapes: the data cache's cost of a run, recorded once
 * and replayed by every later run on the same access stream.
 *
 * The per-core data cache is virtually indexed, never flushed, and —
 * with page-table fetches charged as constants — probed exactly once
 * per simulated access. Its input is therefore the core's access
 * stream alone, which the workload fixes before any policy acts: every
 * policy run of one workload on one cache geometry computes the same
 * cache cycles. The System folds those cycles into the core clock at
 * segment ends (the end of each chunk, and before each policy
 * interval); a tape holds one entry per segment, so a later run can
 * add the taped cycles instead of simulating the cache.
 *
 * Replays are checked, not trusted: each segment carries its length
 * and an address fingerprint (the sum of its line numbers), and a
 * replaying run that sees a different segment throws
 * CacheTapeMismatch and drops the tape from its store.
 */

#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace pccsim::sim {

/** One segment of one core's data-cache work. */
struct CacheTapeSegment
{
    u64 fingerprint = 0; //!< sum of the segment's line numbers
    Cycles cycles = 0;   //!< data-cache latency summed over the segment
    u32 length = 0;      //!< data-cache accesses in the segment
};

/** A run's data-cache work: one segment list per core. */
struct CacheTape
{
    std::vector<std::vector<CacheTapeSegment>> cores;

    /** Heap bytes the segment lists hold (the store's budget unit). */
    size_t bytes() const;
};

/** Thrown when a replayed segment does not match the run's stream. */
class CacheTapeMismatch : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Tapes shared by the runs of one sim::Runner, keyed by (access
 * stream, final cache config). Thread-safe; a replaying run holds its
 * tape by shared_ptr, so eviction never pulls one out from under it.
 * The store keeps at most kBudgetBytes of tapes and evicts the oldest
 * first.
 *
 * Recording is single-flight: acquire() hands each key's recording
 * claim to one run at a time, and a sibling that asks for the same key
 * while the claim is held sleeps until the recorder publishes (it then
 * replays) or gives up (it then takes the claim and records itself).
 * A run holds at most one claim and waits only before it holds one,
 * so waits never form a cycle.
 */
class CacheTapeStore
{
  public:
    static constexpr size_t kBudgetBytes = 32u << 20;

    struct Stats
    {
        u64 records = 0; //!< tapes published
        u64 replays = 0; //!< runs that completed on a tape
        u64 waits = 0;   //!< runs that slept on a sibling's claim
        u64 bytes = 0;   //!< tape bytes held now
    };

    /**
     * The right to record one key's tape. Released when destroyed, so
     * a recorder that throws or is cancelled frees it for a waiter.
     */
    class Claim
    {
      public:
        Claim() = default;
        Claim(Claim &&other) noexcept { *this = std::move(other); }
        Claim &operator=(Claim &&other) noexcept;
        ~Claim() { release(); }

        explicit operator bool() const { return store_ != nullptr; }

        /** Give the claim up now (no-op when not held). */
        void release();

      private:
        friend class CacheTapeStore;
        Claim(CacheTapeStore *store, std::string key)
            : store_(store), key_(std::move(key))
        {
        }

        CacheTapeStore *store_ = nullptr;
        std::string key_;
    };

    /** What acquire() gives a run: a tape to replay, or none. */
    struct Lease
    {
        std::shared_ptr<const CacheTape> tape; //!< set: replay it
        Claim claim; //!< held: this run records the key's tape
    };

    /**
     * The tape under `key` if there is one; else the key's recording
     * claim if no run holds it; else, with `wait`, sleep until one of
     * those holds. Without `wait` a held claim yields an empty lease:
     * the run records unclaimed and its publish() keeps the first tape.
     */
    Lease acquire(const std::string &key, bool wait);

    /** The tape under `key`, or null (tests and diagnostics). */
    std::shared_ptr<const CacheTape> find(const std::string &key) const;

    /**
     * Keep `tape` under `key` unless one is already there (a sibling
     * recorded the same stream unclaimed) or it alone exceeds the
     * budget, then release `claim`. Either way the key's waiters wake.
     */
    void publish(const std::string &key,
                 std::shared_ptr<const CacheTape> tape, Claim claim);

    /** publish() by a run that holds no claim. */
    void publish(const std::string &key,
                 std::shared_ptr<const CacheTape> tape)
    {
        publish(key, std::move(tape), Claim());
    }

    /** Drop the tape under `key` if it is still `tape`. */
    void drop(const std::string &key, const CacheTape *tape);

    /** Count a run that completed on a replayed tape. */
    void noteReplay();

    /** Keys held, oldest first (tests and diagnostics). */
    std::vector<std::string> keys() const;

    Stats stats() const;

  private:
    void eraseLocked(const std::string &key);

    mutable std::mutex mutex_;
    std::condition_variable released_; //!< a claim was given up
    std::map<std::string, std::shared_ptr<const CacheTape>> tapes_;
    std::set<std::string> claimed_;
    std::deque<std::string> order_; //!< publication order, oldest first
    Stats stats_;
};

} // namespace pccsim::sim
