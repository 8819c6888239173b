#include "runtime/thread_pool.hh"

#include "util/logging.hh"

namespace mnnfast::runtime {

ThreadPool::ThreadPool(size_t threads)
{
    workers.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers.emplace_back([this] { runTasks(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex);
        stopping = true;
    }
    cv_task.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    mnn_assert(task != nullptr, "null task submitted");
    if (workers.empty()) {
        // Inline mode: run on the caller. Keeps 1-thread measurements
        // free of queueing noise.
        task();
        return;
    }
    bool wake;
    {
        std::unique_lock<std::mutex> lock(mutex);
        queue.push_back(std::move(task));
        // Only signal when someone is actually parked in cv_task.
        // Busy workers re-check the queue under the lock after each
        // task, so skipping the notify cannot strand work, and the
        // common fork-join burst (every worker busy) submits without
        // any futex syscall.
        wake = idleWaiters > 0;
    }
    if (wake)
        cv_task.notify_one();
}

void
ThreadPool::waitIdle()
{
    if (workers.empty())
        return;
    std::unique_lock<std::mutex> lock(mutex);
    cv_idle.wait(lock, [this] { return queue.empty() && active == 0; });
}

void
ThreadPool::runTasks()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            ++idleWaiters;
            cv_task.wait(lock,
                         [this] { return stopping || !queue.empty(); });
            --idleWaiters;
            if (queue.empty()) {
                // stopping && empty: exit.
                return;
            }
            task = std::move(queue.front());
            queue.pop_front();
            ++active;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex);
            --active;
            if (queue.empty() && active == 0)
                cv_idle.notify_all();
        }
    }
}

} // namespace mnnfast::runtime
