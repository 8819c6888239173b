/**
 * @file
 * A fixed-size worker thread pool.
 *
 * The paper parallelizes each MemNN operation "in a lock-step manner"
 * with PThreads; ThreadPool plus runtime::parallelFor reproduce that
 * execution model: a pool of workers, a fork-join region per operator.
 */

#ifndef MNNFAST_RUNTIME_THREAD_POOL_HH
#define MNNFAST_RUNTIME_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mnnfast::runtime {

/**
 * Fixed set of worker threads consuming a FIFO task queue.
 *
 * Tasks are arbitrary callables. waitIdle() provides the join half of
 * fork-join parallel regions.
 */
class ThreadPool
{
  public:
    /**
     * Start `threads` workers. Zero is allowed and means "inline
     * execution" — submit() runs the task on the calling thread, which
     * keeps single-thread benchmarks free of pool overhead.
     */
    explicit ThreadPool(size_t threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Stops and joins all workers (after draining queued tasks). */
    ~ThreadPool();

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and all workers are idle. */
    void waitIdle();

    /** Number of worker threads (0 = inline mode). */
    size_t threadCount() const { return workers.size(); }

  private:
    void runTasks(); ///< a worker thread: pop and run until stopped

    std::vector<std::thread> workers;
    std::deque<std::function<void()>> queue;
    std::mutex mutex;
    std::condition_variable cv_task;
    std::condition_variable cv_idle;
    size_t active = 0;
    size_t idleWaiters = 0; ///< workers parked in cv_task (under mutex)
    bool stopping = false;
};

} // namespace mnnfast::runtime

#endif // MNNFAST_RUNTIME_THREAD_POOL_HH
