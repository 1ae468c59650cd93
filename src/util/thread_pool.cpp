#include "util/thread_pool.hpp"

#include <numeric>

namespace pccsim::util {

ThreadPool::ThreadPool(u32 threads)
{
    u32 n = threads == 0 ? hardwareJobs() : threads;
    if (n < 1)
        n = 1;
    workers_.reserve(n);
    for (u32 w = 0; w < n; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

u32
ThreadPool::hardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<u32>(n);
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::rethrowFailures(std::vector<ParallelError::Failure> failures,
                            size_t total)
{
    if (failures.empty())
        return;
    std::sort(failures.begin(), failures.end(),
              [](const ParallelError::Failure &a,
                 const ParallelError::Failure &b) {
                  return a.index < b.index;
              });
    if (failures.size() == 1)
        std::rethrow_exception(failures.front().error);

    const auto describe = [](const std::exception_ptr &error) {
        try {
            std::rethrow_exception(error);
        } catch (const std::exception &e) {
            return std::string(e.what());
        } catch (...) {
            return std::string("unknown exception");
        }
    };
    std::ostringstream msg;
    msg << "parallelMap: " << failures.size() << " of " << total
        << " tasks failed (indices";
    constexpr size_t kMaxListed = 16;
    for (size_t i = 0; i < failures.size() && i < kMaxListed; ++i)
        msg << ' ' << failures[i].index;
    if (failures.size() > kMaxListed)
        msg << " ...";
    msg << "); first: " << describe(failures.front().error);
    throw ParallelError(msg.str(), std::move(failures));
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stop_ set and queue drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

u32
partCount(u64 n, u64 min_part, u32 threads)
{
    const u64 limit = threads == 0 ? ThreadPool::hardwareJobs() : threads;
    return static_cast<u32>(std::clamp<u64>(n / min_part, 1, limit));
}

void
forEachPart(u32 parts, const std::function<void(u32)> &fn)
{
    if (parts <= 1) {
        fn(0);
        return;
    }
    std::vector<u32> ids(parts);
    std::iota(ids.begin(), ids.end(), 0u);
    ThreadPool pool(parts);
    pool.parallelMap(ids, [&fn](u32 part) {
        fn(part);
        return u8{0};
    });
}

} // namespace pccsim::util
