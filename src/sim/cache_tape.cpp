#include "sim/cache_tape.hpp"

#include <algorithm>
#include <utility>

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

} // namespace pccsim::sim
