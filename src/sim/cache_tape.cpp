#include "sim/cache_tape.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "util/host_profile.hpp"
#include "util/log.hpp"

namespace pccsim::sim {

size_t
CacheTape::bytes() const
{
    size_t total = cores.capacity() * sizeof(cores[0]);
    for (const auto &segments : cores)
        total += segments.capacity() * sizeof(CacheTapeSegment);
    return total;
}

CacheTapeStore::Claim &
CacheTapeStore::Claim::operator=(Claim &&other) noexcept
{
    if (this != &other) {
        release();
        store_ = std::exchange(other.store_, nullptr);
        key_ = std::move(other.key_);
    }
    return *this;
}

void
CacheTapeStore::Claim::release()
{
    if (!store_)
        return;
    {
        std::lock_guard<std::mutex> lock(store_->mutex_);
        store_->claimed_.erase(key_);
    }
    store_->released_.notify_all();
    store_ = nullptr;
}

CacheTapeStore::Lease
CacheTapeStore::acquire(const std::string &key, bool wait)
{
    std::unique_lock<std::mutex> lock(mutex_);
    bool waited = false;
    for (;;) {
        if (const auto it = tapes_.find(key); it != tapes_.end())
            return {it->second, {}};
        if (claimed_.insert(key).second)
            return {nullptr, Claim(this, key)};
        if (!wait)
            return {};
        if (!waited) {
            waited = true;
            ++stats_.waits;
        }
        released_.wait(lock);
    }
}

std::shared_ptr<const CacheTape>
CacheTapeStore::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tapes_.find(key);
    return it == tapes_.end() ? nullptr : it->second;
}

void
CacheTapeStore::publish(const std::string &key,
                        std::shared_ptr<const CacheTape> tape, Claim claim)
{
    const size_t bytes = tape->bytes();
    if (bytes <= kBudgetBytes) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!tapes_.count(key)) {
            while (stats_.bytes + bytes > kBudgetBytes)
                eraseLocked(order_.front());
            tapes_.emplace(key, std::move(tape));
            order_.push_back(key);
            stats_.bytes += bytes;
            ++stats_.records;
        }
    }
    if (claim)
        claim.release(); // wakes the key's waiters
    else
        released_.notify_all();
}

void
CacheTapeStore::drop(const std::string &key, const CacheTape *tape)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tapes_.find(key);
    if (it != tapes_.end() && it->second.get() == tape)
        eraseLocked(key);
}

void
CacheTapeStore::noteReplay()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.replays;
}

std::vector<std::string>
CacheTapeStore::keys() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return {order_.begin(), order_.end()};
}

CacheTapeStore::Stats
CacheTapeStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
CacheTapeStore::eraseLocked(const std::string &key)
{
    const auto it = tapes_.find(key);
    stats_.bytes -= it->second->bytes();
    tapes_.erase(it);
    order_.erase(std::find(order_.begin(), order_.end(), key));
}

namespace {

/**
 * Store key of a run's tape: the stream plus everything else that
 * shapes the cache's input or the segment boundaries, read from the
 * final config (hw backends and policy prepare hooks applied).
 */
std::string
tapeKey(const std::string &stream_key, const SystemConfig &config)
{
    std::ostringstream os;
    os << stream_key << "|cores=" << config.num_cores;
    const cache::CacheHierarchy::Config &c = config.cache;
    for (const cache::CacheParams *level : {&c.l1, &c.l2, &c.llc}) {
        os << '|' << level->size_bytes << ',' << level->ways << ','
           << level->line_bytes;
    }
    os << "|lat=" << c.latencies.l1 << ',' << c.latencies.l2 << ','
       << c.latencies.llc << ',' << c.latencies.dram << '|' << c.enabled
       << "|batch=" << config.batch_capacity
       << "|iv=" << config.interval_accesses
       << "|sample=" << config.sampling.window << ':'
       << config.sampling.fastforward
       << "|mut=" << static_cast<int>(config.mutation);
    return os.str();
}

} // namespace

void
CacheTapeSession::open(CacheTapeStore &store, const std::string &stream_key,
                       const SystemConfig &config)
{
    abandon();
    if (!config.batch_engine || config.tenant.enabled() ||
        config.timing.pt_through_dcache ||
        (config.telemetry.enabled && config.telemetry.histograms))
        return;
    store_ = &store;
    key_ = tapeKey(stream_key, config);
    // A watched run must not spend its deadline and stall window
    // asleep on a sibling's claim.
    const u64 t0 = util::HostProfile::nowNanos();
    CacheTapeStore::Lease lease = store.acquire(key_, !config.cancel);
    util::HostProfile::global().add("tape_wait",
                                    util::HostProfile::nowNanos() - t0);

    // Fingerprints sum line numbers at the finest line any level
    // indexes by: two streams with equal sums then agree on every
    // level's input as far as a cheap check can tell.
    const u32 min_line = std::min({config.cache.l1.line_bytes,
                                   config.cache.l2.line_bytes,
                                   config.cache.llc.line_bytes});
    line_shift_ = min_line == 0 ? 0 : std::countr_zero(min_line);
    miscount_ = config.mutation == HotPathMutation::TapeMiscount;
    cursors_.resize(config.num_cores);
    if (lease.tape) {
        replaying_ = std::move(lease.tape);
        // The key names the core count.
        PCCSIM_ASSERT(replaying_->cores.size() == cursors_.size());
        for (size_t c = 0; c < cursors_.size(); ++c) {
            const auto &segments = replaying_->cores[c];
            cursors_[c].next = segments.data();
            cursors_[c].end = segments.data() + segments.size();
        }
    } else {
        claim_ = std::move(lease.claim);
        recording_ = std::make_shared<CacheTape>();
        recording_->cores.resize(cursors_.size());
        for (size_t c = 0; c < cursors_.size(); ++c)
            cursors_[c].out = &recording_->cores[c];
    }
}

void
CacheTapeSession::finish(u64 accesses)
{
    if (replaying_) {
        for (u32 c = 0; c < cursors_.size(); ++c) {
            if (cursors_[c].next != cursors_[c].end)
                mismatch(c, accesses, "the run ends before its tape");
        }
        store_->noteReplay();
    } else if (recording_) {
        for (auto &segments : recording_->cores)
            segments.shrink_to_fit();
        store_->publish(key_, std::move(recording_), std::move(claim_));
    }
    abandon();
}

void
CacheTapeSession::mismatch(u32 core, u64 accesses, const char *what)
{
    store_->drop(key_, replaying_.get());
    const std::string message =
        "data-cache tape mismatch on core " + std::to_string(core) +
        " after " + std::to_string(accesses) + " accesses: " + what;
    abandon();
    throw CacheTapeMismatch(message);
}

} // namespace pccsim::sim
