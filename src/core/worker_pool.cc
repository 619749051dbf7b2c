#include "core/worker_pool.hh"

#include <algorithm>
#include <exception>
#include <utility>

namespace cachemind::core {

WorkerPool::WorkerPool(std::size_t threads)
    : cap_(threads == 0
               ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
               : threads)
{
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.push_back(std::move(job));
        // Grow when queued jobs outnumber parked workers: an engine
        // that never runs two jobs at once keeps exactly one thread.
        // (Counting `idle_ == 0` instead under-provisions a burst: a
        // parked worker already claimed by an earlier queued job still
        // counts as idle until it wakes.)
        if (jobs_.size() > idle_ && workers_.size() < cap_)
            workers_.emplace_back([this] { workerLoop(); });
    }
    work_ready_.notify_one();
}

void
WorkerPool::forEach(std::size_t n,
                    const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    // Completion latch on this stack frame. The last job notifies
    // while holding `mu`, so the frame cannot unwind (destroying the
    // condvar) before notify_one returns.
    std::mutex mu;
    std::condition_variable all_done;
    std::size_t pending = n - 1;
    std::exception_ptr error;
    const auto run = [&](std::size_t i) {
        std::exception_ptr thrown;
        try {
            fn(i);
        } catch (...) {
            thrown = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu);
        if (thrown && !error)
            error = thrown;
        if (i != 0 && --pending == 0)
            all_done.notify_one();
    };
    // Queued jobs use this frame, so it must not unwind before they
    // finish: a submit that cannot start a thread terminates, as a
    // failed std::thread spawn in a per-call fan-out would.
    [&]() noexcept {
        for (std::size_t i = 1; i < n; ++i)
            submit([&run, i] { run(i); });
    }();
    run(0);
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] { return pending == 0; });
    if (error)
        std::rethrow_exception(error);
}

std::size_t
WorkerPool::threadsStarted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
}

void
WorkerPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        while (jobs_.empty() && !stopping_) {
            ++idle_;
            work_ready_.wait(lock);
            --idle_;
        }
        if (jobs_.empty())
            return; // stopping, queue drained
        std::function<void()> job = std::move(jobs_.front());
        jobs_.pop_front();
        lock.unlock();
        job();
        lock.lock();
    }
}

} // namespace cachemind::core
