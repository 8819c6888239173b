#include "serve/qa_server.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <vector>

#include "sim/event_queue.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace mnnfast::serve {

namespace {

/** Simulation time unit: nanoseconds. */
constexpr double kTicksPerSecond = 1e9;

sim::Tick
toTicks(double seconds)
{
    return static_cast<sim::Tick>(seconds * kTicksPerSecond);
}

double
toSeconds(sim::Tick ticks)
{
    return static_cast<double>(ticks) / kTicksPerSecond;
}

/** Event-driven server state. */
class Server
{
  public:
    explicit Server(const ServerConfig &cfg)
        : cfg(cfg), rng(cfg.seed), free_workers(cfg.workers)
    {
        if (cfg.maxBatch == 0 || cfg.workers == 0)
            fatal("server needs a nonzero batch cap and worker count");
        if (cfg.arrivalRate <= 0.0)
            fatal("arrival rate must be positive");
    }

    ServerStats
    run()
    {
        scheduleArrival();
        queue_events.run();

        ServerStats stats;
        stats.arrived = arrived;
        stats.completed = latencies.size();
        stats.makespan = toSeconds(last_completion);
        if (stats.makespan > 0.0) {
            stats.throughputQps =
                static_cast<double>(stats.completed) / stats.makespan;
            const double executors =
                cfg.dispatch == DispatchPolicy::JoinAtNextChunk
                    ? 1.0
                    : static_cast<double>(cfg.workers);
            stats.utilization =
                busy_ticks
                / (static_cast<double>(last_completion) * executors);
        }
        if (!latencies.empty()) {
            std::sort(latencies.begin(), latencies.end());
            double sum = 0.0;
            for (double l : latencies)
                sum += l;
            stats.meanLatency = sum / double(latencies.size());
            stats.p50Latency = percentile(0.50);
            stats.p95Latency = percentile(0.95);
            stats.p99Latency = percentile(0.99);
        }
        if (batches > 0) {
            stats.meanBatchSize =
                static_cast<double>(stats.completed)
                / static_cast<double>(batches);
        }
        return stats;
    }

  private:
    double
    percentile(double q) const
    {
        const size_t idx = std::min(
            latencies.size() - 1,
            static_cast<size_t>(q * double(latencies.size())));
        return latencies[idx];
    }

    void
    scheduleArrival()
    {
        // Exponential inter-arrival times; arrivals stop at the end
        // of the configured window (the queue then drains).
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        const double gap = -std::log(u) / cfg.arrivalRate;
        const sim::Tick when = queue_events.now() + toTicks(gap);
        if (when > toTicks(cfg.simSeconds))
            return;
        queue_events.schedule(when, [this] {
            ++arrived;
            pending.push_back(queue_events.now());
            if (pending.size() == 1)
                scheduleTimeoutCheck(queue_events.now());
            dispatchIfReady();
            scheduleArrival();
        });
    }

    void
    scheduleTimeoutCheck(sim::Tick head_arrival)
    {
        queue_events.schedule(
            head_arrival + toTicks(cfg.batchTimeout), [this] {
                dispatchIfReady();
            });
    }

    /** True if the queue head has waited past the batch timeout. */
    bool
    headTimedOut() const
    {
        return !pending.empty()
            && queue_events.now()
                   >= pending.front() + toTicks(cfg.batchTimeout);
    }

    void
    dispatchIfReady()
    {
        while (free_workers > 0
               && (pending.size() >= cfg.maxBatch || headTimedOut())) {
            const size_t n = std::min(pending.size(), cfg.maxBatch);
            mnn_assert(n > 0, "dispatch of an empty batch");

            // A joining batch's revolution is shared with every
            // question riding already.
            const bool join =
                cfg.dispatch == DispatchPolicy::JoinAtNextChunk;
            const size_t riders = join ? riding + n : n;
            const sim::Tick service = toTicks(
                cfg.batchBaseSeconds
                + double(riders) * cfg.perQuestionSeconds);
            const sim::Tick done = queue_events.now() + service;

            std::vector<sim::Tick> batch_arrivals(
                pending.begin(),
                pending.begin() + static_cast<long>(n));
            pending.erase(pending.begin(),
                          pending.begin() + static_cast<long>(n));

            --free_workers;
            ++batches;
            if (!join) {
                busy_ticks += static_cast<double>(service);
            } else {
                if (riding == 0)
                    busy_since = queue_events.now();
                riding += n;
            }

            queue_events.schedule(done, [this, batch_arrivals] {
                const sim::Tick now = queue_events.now();
                for (sim::Tick a : batch_arrivals)
                    latencies.push_back(toSeconds(now - a));
                last_completion = std::max(last_completion, now);
                if (cfg.dispatch == DispatchPolicy::JoinAtNextChunk) {
                    riding -= batch_arrivals.size();
                    if (riding == 0)
                        busy_ticks += static_cast<double>(now - busy_since);
                }
                ++free_workers;
                dispatchIfReady();
            });

            // The remaining head (if any) gets its own timeout check;
            // an already-expired head is handled by this loop or by
            // the next completion, so only future checks are queued.
            if (!pending.empty() && !headTimedOut())
                scheduleTimeoutCheck(pending.front());
        }
    }

    ServerConfig cfg;
    XorShiftRng rng;
    sim::EventQueue queue_events;

    std::deque<sim::Tick> pending; ///< arrival times, FIFO
    size_t free_workers;
    size_t riding = 0;       ///< JoinAtNextChunk: questions riding
    sim::Tick busy_since = 0; ///< JoinAtNextChunk: riding since
    uint64_t arrived = 0;
    uint64_t batches = 0;
    double busy_ticks = 0.0;
    sim::Tick last_completion = 0;
    std::vector<double> latencies;
};

} // namespace

ServerStats
simulateServer(const ServerConfig &cfg)
{
    Server server(cfg);
    return server.run();
}

} // namespace mnnfast::serve
