/**
 * @file
 * Bounded MPMC queue with backpressure and a batch-aware consumer,
 * the admission stage of the live serving runtime.
 *
 * Producers (client threads calling LiveServer::submit) offer items
 * with tryPush(), which stamps the enqueue time and *fails* — rather
 * than blocks — when the queue is at capacity or closed. Rejecting at
 * admission is the backpressure policy a latency-bound service wants:
 * a request that would have queued past its deadline is cheaper to
 * refuse immediately than to serve late.
 *
 * Consumers (engine workers) call popBatch(), which implements the
 * *same* dynamic-batching policy as the discrete-event simulator in
 * qa_server.cc: a batch is released only when `maxBatch` items are
 * pending or the oldest pending item has waited `timeout` — so the
 * live runtime and the simulator dispatch under identical rules and
 * their behaviour can be compared point for point. A zero timeout
 * releases whatever is pending (up to `maxBatch`) at once: dispatch on
 * arrival, which LiveServer uses for a backend whose batches join the
 * work in flight (batch_backend.hh). close() wakes all
 * waiters; remaining items drain as immediate partial batches (no
 * timeout wait), after which popBatch returns false forever — the
 * shutdown handshake that guarantees no accepted item is lost.
 */

#ifndef MNNFAST_SERVE_REQUEST_QUEUE_HH
#define MNNFAST_SERVE_REQUEST_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace mnnfast::serve {

/** Bounded MPMC queue with enqueue timestamps. See file header. */
template <typename T>
class RequestQueue
{
  public:
    using Clock = std::chrono::steady_clock;

    /** An item together with the moment tryPush accepted it. */
    struct Entry
    {
        T item;
        Clock::time_point enqueued;
    };

    /** @param capacity Maximum pending items; must be >= 1. */
    explicit RequestQueue(size_t capacity) : capacity(capacity)
    {
        if (capacity == 0)
            fatal("request queue needs a nonzero capacity");
    }

    RequestQueue(const RequestQueue &) = delete;
    RequestQueue &operator=(const RequestQueue &) = delete;

    /**
     * Offer one item. Returns false — without blocking — when the
     * queue is full or closed; the item is untouched in that case.
     */
    bool
    tryPush(T &&item)
    {
        bool wake;
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (closed || entries.size() >= capacity)
                return false;
            entries.push_back(Entry{std::move(item), Clock::now()});
            // Notify only when a consumer is actually parked: under
            // overload every consumer is busy computing, and an
            // unconditional notify_one per push is a syscall on the
            // producer's (latency-sensitive) admission path. The
            // waiter count is mutated under this mutex, and a
            // consumer re-checks the queue under the same mutex
            // before parking, so a push can never be missed.
            wake = waiters > 0;
        }
        // A single new item can complete a full batch or be a new
        // head; either way at most one waiting consumer can make
        // progress from it.
        if (wake)
            cv_consumer.notify_one();
        return true;
    }

    /**
     * Wait for a batch and move it into `out` (cleared first).
     *
     * Dispatch condition (identical to the simulator's): at least
     * `maxBatch` items are pending, or the oldest pending item has
     * waited `timeout` — with a zero timeout, one pending item suffices
     * (see the file header). After close(), pending items are released
     * immediately as (partial) batches; once the queue is both closed
     * and empty this returns false and `out` stays empty.
     */
    bool
    popBatch(size_t maxBatch, std::chrono::nanoseconds timeout,
             std::vector<Entry> &out)
    {
        mnn_assert(maxBatch >= 1, "popBatch needs a nonzero batch cap");
        out.clear();
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            if (entries.empty()) {
                if (closed)
                    return false;
                ++waiters;
                cv_consumer.wait(lock);
                --waiters;
                continue;
            }
            const auto deadline = entries.front().enqueued + timeout;
            if (closed || entries.size() >= maxBatch
                || Clock::now() >= deadline)
                break;
            ++waiters;
            cv_consumer.wait_until(lock, deadline);
            --waiters;
        }
        const size_t n = std::min(entries.size(), maxBatch);
        out.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            out.push_back(std::move(entries.front()));
            entries.pop_front();
        }
        // If items remain (queue was over the cap, or a close is
        // draining), another consumer may be able to run right away.
        const bool wake = !entries.empty() && waiters > 0;
        lock.unlock();
        if (wake)
            cv_consumer.notify_one();
        return true;
    }

    /**
     * Stop admissions and wake every consumer. Pending items remain
     * poppable (as immediate batches); new tryPush calls fail.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            closed = true;
        }
        cv_consumer.notify_all();
    }

    /** Pending item count (racy outside the producer/consumer). */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return entries.size();
    }

    /** True once close() has been called. */
    bool
    isClosed() const
    {
        std::lock_guard<std::mutex> lock(mutex);
        return closed;
    }

  private:
    const size_t capacity;
    mutable std::mutex mutex;
    std::condition_variable cv_consumer;
    std::deque<Entry> entries;
    size_t waiters = 0; ///< consumers parked on cv (guarded by mutex)
    bool closed = false;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_REQUEST_QUEUE_HH
