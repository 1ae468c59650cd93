#include "sim/cache_tape.hpp"

#include <algorithm>

namespace pccsim::sim {

size_t
CacheTape::bytes() const
{
    size_t total = cores.capacity() * sizeof(cores[0]);
    for (const auto &segments : cores)
        total += segments.capacity() * sizeof(CacheTapeSegment);
    return total;
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
                        std::shared_ptr<const CacheTape> tape)
{
    const size_t bytes = tape->bytes();
    if (bytes > kBudgetBytes)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (tapes_.count(key))
        return;
    while (stats_.bytes + bytes > kBudgetBytes)
        eraseLocked(order_.front());
    tapes_.emplace(key, std::move(tape));
    order_.push_back(key);
    stats_.bytes += bytes;
    ++stats_.records;
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
