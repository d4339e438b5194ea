#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>

#include "common/check.h"
#include "obs/telemetry.h"

namespace pade {

namespace {

// Pool-wide telemetry (docs/OBSERVABILITY.md). Registry references
// are process-lifetime stable, so each is resolved once and cached;
// steady-state recording is one relaxed atomic per event.
obs::Counter &
poolTasks()
{
    static obs::Counter &c =
        obs::Registry::instance().counter("pool.tasks");
    return c;
}

obs::Counter &
poolSteals()
{
    static obs::Counter &c =
        obs::Registry::instance().counter("pool.steals");
    return c;
}

obs::Counter &
poolIdleUs()
{
    static obs::Counter &c =
        obs::Registry::instance().counter("pool.idle_us");
    return c;
}

obs::Gauge &
poolQueueDepth()
{
    static obs::Gauge &g =
        obs::Registry::instance().gauge("pool.queue_depth");
    return g;
}

} // namespace

int
ThreadPool::hardwareThreads()
{
    // Detected once: hardware_concurrency() reads sysfs on every call
    // (about 5 us on Linux), and every wave asks.
    static const int n = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    return n;
}

ThreadPool::ThreadPool(int threads)
{
    const int n = threads > 0 ? threads : hardwareThreads();
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    cv_task_.notifyAll();
    // Workers drain every task still queued before exiting (see
    // workerLoop), so destroying a pool with queued work completes
    // that work rather than dropping it — the contract
    // tests/test_runtime.cc pins down.
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        MutexLock lock(mu_);
        queue_.push_back(std::move(task));
        poolQueueDepth().set(static_cast<double>(queue_.size()));
    }
    cv_task_.notifyOne();
}

void
ThreadPool::waitIdle()
{
    MutexLock lock(mu_);
    while (!isIdle())
        cv_idle_.wait(lock);
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        MutexLock lock(mu_);
        if (queue_.empty())
            return false;
        task = std::move(queue_.front());
        queue_.pop_front();
        active_++;
    }
    // A successful tryRunOne is a "steal": a caller thread (typically
    // a parallelFor waiter) executing work a pool worker would
    // otherwise run — the numerator of help-drain effectiveness.
    poolSteals().add(1);
    try {
        task();
    } catch (...) {
        // Same contract as workerLoop: failures surface through the
        // submitter's own channel.
    }
    {
        MutexLock lock(mu_);
        active_--;
        PADE_DCHECK_GE(active_, 0);
        if (isIdle())
            cv_idle_.notifyAll();
    }
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mu_);
            if (!hasWorkOrStopped())
            {
                // Only stamp the clock when the worker actually
                // parks: the streaming case (work already queued)
                // must stay free of timer syscalls.
                const auto idle_from =
                    std::chrono::steady_clock::now();
                do
                    cv_task_.wait(lock);
                while (!hasWorkOrStopped());
                poolIdleUs().add(static_cast<uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - idle_from)
                        .count()));
            }
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop_front();
            active_++;
        }
        poolTasks().add(1);
        try {
            task();
        } catch (...) {
            // Task-level failures are reported through the caller's
            // own channel (e.g. parallelFor / BatchDriver error
            // slots); a worker thread must survive regardless.
        }
        {
            MutexLock lock(mu_);
            active_--;
            PADE_DCHECK_GE(active_, 0);
            if (isIdle())
                cv_idle_.notifyAll();
        }
    }
}

void
parallelFor(ThreadPool &pool, int n, const std::function<void(int)> &fn)
{
    if (n <= 0)
        return;

    struct State
    {
        Mutex mu;
        CondVar done;
        int remaining PADE_GUARDED_BY(mu);
        std::exception_ptr error PADE_GUARDED_BY(mu);
    };
    State st;
    {
        MutexLock lock(st.mu);
        st.remaining = n;
    }

    for (int i = 0; i < n; i++) {
        pool.submit([&st, &fn, i] {
            std::exception_ptr err;
            try {
                fn(i);
            } catch (...) {
                err = std::current_exception();
            }
            MutexLock lock(st.mu);
            if (err && !st.error)
                st.error = err;
            if (--st.remaining == 0)
                st.done.notifyAll();
        });
    }

    // Help drain the queue instead of parking outright: if every
    // worker is itself blocked in a nested parallelFor, the waiters
    // collectively keep executing queued tasks, so nested fan-outs
    // on one pool make progress instead of deadlocking. The short
    // timed wait re-checks the queue for work enqueued after we
    // found it empty.
    for (;;) {
        {
            MutexLock lock(st.mu);
            if (st.remaining == 0)
                break;
        }
        if (pool.tryRunOne())
            continue;
        MutexLock lock(st.mu);
        if (st.remaining != 0)
            st.done.waitFor(lock, std::chrono::milliseconds(2));
    }

    std::exception_ptr error;
    {
        // Uncontended by now (remaining hit 0, every task released
        // st.mu), but the analysis — and TSan — want the read of
        // error under the same lock that guards the writes.
        MutexLock lock(st.mu);
        error = st.error;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace pade
