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
 *
 * CacheTapeStore holds the tapes of one Runner; CacheTapeSession is one
 * run's side of it and the only code that knows the tape format.
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

#include "sim/config.hpp"
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

/**
 * One run's share in a CacheTapeStore. Runs whose cache input depends
 * on more than the stream never share: walks through the data cache,
 * tail histograms (they need each access's own latency), and the
 * scalar and tenant engines.
 */
class CacheTapeSession
{
  public:
    /**
     * Take the tape of the run's key (stream + final cache config) to
     * replay, or its recording claim; sleep while a sibling holds it,
     * unless the run is watched (has a cancel flag). The time spent
     * here is the `tape_wait` host phase.
     */
    void open(CacheTapeStore &store, const std::string &stream_key,
              const SystemConfig &config);

    /** Replaying: the run skips the data cache and takes taped cycles. */
    bool replaying() const { return replaying_ != nullptr; }

    /**
     * Close `core`'s segment of `length` accesses at `addrs` whose cache
     * probes cost `data`: record it, or check it against its entry.
     * Returns the cycles the core clock takes; `accesses` dates errors.
     */
    Cycles
    endSegment(u32 core, Cycles data, const Addr *addrs, u32 length,
               u64 accesses)
    {
        if ((!recording_ && !replaying_) || length == 0)
            return data;
        // Every detailed access probes the data cache once, so the
        // segment's cache input is exactly these addresses.
        u64 fingerprint = 0;
        for (u32 i = 0; i < length; ++i)
            fingerprint += addrs[i] >> line_shift_;
        Cursor &cursor = cursors_[core];
        if (recording_) {
            CacheTapeSegment segment{fingerprint, data, length};
            if (miscount_ && core == 0 && cursor.out->empty())
                ++segment.cycles;
            cursor.out->push_back(segment);
            return data;
        }
        if (cursor.next == cursor.end)
            mismatch(core, accesses, "the run outlasts its tape");
        if (cursor.next->length != length ||
            cursor.next->fingerprint != fingerprint) {
            mismatch(core, accesses,
                     "a segment differs from its tape entry");
        }
        return (cursor.next++)->cycles;
    }

    /** After the last access: count the replay or publish the tape. */
    void finish(u64 accesses);

    /** Close without publishing (the run failed); frees the claim. */
    void abandon() { *this = CacheTapeSession(); }

  private:
    struct Cursor
    {
        std::vector<CacheTapeSegment> *out = nullptr; //!< recording
        const CacheTapeSegment *next = nullptr;       //!< replaying
        const CacheTapeSegment *end = nullptr;
    };

    /** Drop the replayed tape from its store and throw. */
    [[noreturn]] void mismatch(u32 core, u64 accesses, const char *what);

    CacheTapeStore *store_ = nullptr;
    std::string key_;
    CacheTapeStore::Claim claim_;
    std::shared_ptr<CacheTape> recording_;
    std::shared_ptr<const CacheTape> replaying_;
    std::vector<Cursor> cursors_; //!< one per core
    /** log2 of the smallest cache line: the fingerprint's granule. */
    u32 line_shift_ = 0;
    /** HotPathMutation::TapeMiscount: core 0's first segment is off. */
    bool miscount_ = false;
};

} // namespace pccsim::sim
