#include "serve/live_server.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "core/sharded_knowledge_base.hh"
#include "serve/scan_backend.hh"
#include "stats/counter.hh"
#include "util/logging.hh"

namespace mnnfast::serve {

namespace {

/**
 * Latency histogram resolution: ~7.6 us bins over the default 0.5 s
 * range resolve microsecond-scale engine latencies while still
 * covering deep-overload queueing; the recorder's 3 histograms x 8 B
 * bins take ~1.5 MiB.
 */
constexpr size_t kHistogramBins = 65536;

double
secondsBetween(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * The replicated in-process backend: W = cfg.workers ColumnEngines
 * over the whole KB, each run by one thread of a W-thread pool; ticket
 * t runs on engine t % W. That engine is free: LiveServer's credit
 * rule keeps at most W tickets outstanding, and they are waited in
 * order, so ticket t - W was waited before t is submitted.
 * submitBatch therefore never blocks. Each engine streams the whole KB
 * per batch, so a batch does not join the work in flight and the
 * server waits out batchTimeout for riders.
 */
class EngineBackend final : public BatchBackend
{
  public:
    EngineBackend(const core::KnowledgeBase &kb,
                  const LiveServerConfig &cfg)
        : done(cfg.workers), pool(cfg.workers)
    {
        for (size_t i = 0; i < cfg.workers; ++i)
            engines.push_back(
                std::make_unique<core::ColumnEngine>(kb, cfg.engine));
    }

    uint64_t
    submitBatch(const float *u, size_t nq, size_t, float *o) override
    {
        const uint64_t t = next++;
        const size_t e = t % engines.size();
        auto task = std::make_shared<std::packaged_task<void()>>(
            [this, e, u, nq, o] { engines[e]->inferBatch(u, nq, o); });
        done[e] = task->get_future();
        pool.submit([task] { (*task)(); });
        return t;
    }

    BatchResult
    waitBatch(uint64_t ticket) override
    {
        const size_t e = ticket % engines.size();
        done[e].get();
        // The credit rule leaves engine e idle until ticket + W is
        // submitted, after this returns: fold its pass's counters into
        // the backend's and start them over.
        stats::CounterGroup &c = engines[e]->counters();
        const auto take = [&c](const char *name) {
            const uint64_t v = c.value(name);
            c[name].reset();
            return v;
        };
        ScanCounters pass;
        pass.rowsKept = take("rows_kept");
        pass.rowsSkipped = take("rows_skipped");
        pass.rowsRouted = take("rows_routed");
        pass.chunksBypassed = take("chunks_bypassed");
        {
            std::lock_guard<std::mutex> lock(countersMutex);
            totals.addFrom(pass);
        }
        BatchResult r;
        r.complete = true;
        r.shardsAnswered = 1;
        r.shardMask = 0b1;
        return r;
    }

    size_t pipelineDepth() const override { return engines.size(); }

    void
    countersInto(LatencyRecorder &acc) const override
    {
        std::lock_guard<std::mutex> lock(countersMutex);
        acc.recordScan(totals);
    }

  private:
    std::vector<std::unique_ptr<core::ColumnEngine>> engines;
    uint64_t next = 0; ///< next ticket (submitting thread only)
    std::vector<std::future<void>> done; ///< per engine: its batch
    mutable std::mutex countersMutex; ///< guards totals
    ScanCounters totals; ///< every waited batch's engine counters
    // Declared last: its threads touch every member above.
    runtime::ThreadPool pool;
};

/** Batches riding the scan rings at once (the sharded window). */
constexpr size_t kScanDepth = 4;

/**
 * The sharded in-process backend: a ScanBackend with one ring per
 * shard view skb.shard(s), advanced by cfg.workers threads. A
 * submitted batch rides every ring from its next chunk boundary (it
 * joins the work in flight, so the server dispatches it on arrival);
 * waitBatch merges its S partials in shard order with
 * core::mergeStreamPartials. A ring's partial is its shard's single-
 * group pass (scan_ring.hh), so the answer is bit for bit the one a
 * ColumnEngine with the shards as its chunk groups gives — and a
 * cluster of shard nodes over the same partition.
 */
class ShardedScan final : public BatchBackend
{
  public:
    ShardedScan(const core::KnowledgeBase &kb, const LiveServerConfig &cfg)
        : ed(kb.dim()), skb(kb, cfg.engine.chunkSize, cfg.shards),
          scan(skb, cfg.engine, cfg.workers)
    {
        const size_t shards = skb.shardCount();
        if (shards > 32)
            fatal("live server supports at most 32 shards (got %zu)",
                  shards);
        for (size_t b = 0; b < kScanDepth; ++b)
            batches.push_back(std::make_unique<Batch>(*this, shards));
        result.complete = true;
        result.shardsAnswered = static_cast<uint32_t>(shards);
        result.shardMask =
            static_cast<uint32_t>((uint64_t{1} << shards) - 1);
    }

    uint64_t
    submitBatch(const float *u, size_t nq, size_t, float *o) override
    {
        // The credit rule makes the batch's slot free: the ticket
        // kScanDepth before it was waited.
        const uint64_t t = next++;
        Batch &b = *batches[t % kScanDepth];
        b.nq = nq;
        b.o = o;
        {
            std::lock_guard<std::mutex> lock(mutex);
            b.done = false;
        }
        for (size_t s = 0; s < skb.shardCount(); ++s) {
            b.ride(s).u = u;
            b.ride(s).nq = nq;
        }
        scan.submit(b);
        return t;
    }

    BatchResult
    waitBatch(uint64_t ticket) override
    {
        Batch &b = *batches[ticket % kScanDepth];
        {
            std::unique_lock<std::mutex> lock(mutex);
            doneCv.wait(lock, [&] { return b.done; });
        }
        for (size_t s = 0; s < b.views.size(); ++s)
            b.views[s] = b.ride(s).partial.view();
        core::mergeStreamPartials(b.views.data(), b.views.size(), b.nq,
                                  ed, b.o);
        return result;
    }

    size_t pipelineDepth() const override { return kScanDepth; }

    bool joinsInFlight() const override { return true; }

    void
    countersInto(LatencyRecorder &acc) const override
    {
        const core::ScanTotals t = scan.totals();
        acc.recordScan({t.kept, t.skipped, t.routedRows, t.bypassed,
                        t.steps, t.questionsStreamed, t.keptChunks});
    }

  private:
    /** A ticket's slot: ticket t lives in batches[t % kScanDepth]. */
    struct Batch final : ScanJob
    {
        Batch(ShardedScan &owner, size_t shards)
            : ScanJob(shards), owner(owner), views(shards)
        {}

        void
        settled() override
        {
            {
                std::lock_guard<std::mutex> lock(owner.mutex);
                done = true;
            }
            owner.doneCv.notify_one();
        }

        ShardedScan &owner;
        std::vector<core::PartialView> views;
        size_t nq = 0;
        float *o = nullptr;
        bool done = false; ///< every ride done (guarded by owner.mutex)
    };

    size_t ed;
    core::ShardedKnowledgeBase skb;
    std::vector<std::unique_ptr<Batch>> batches;
    BatchResult result; ///< every batch: all shards answered
    uint64_t next = 0;  ///< next ticket (submitting thread only)
    std::mutex mutex;   ///< guards Batch::done
    std::condition_variable doneCv; ///< waitBatch: a batch settled
    // Declared last: its workers touch the batches.
    ScanBackend scan;
};

/** The in-process backend cfg.shards selects. */
std::unique_ptr<BatchBackend>
inProcessBackend(const core::KnowledgeBase &kb, const LiveServerConfig &cfg)
{
    if (cfg.workers == 0)
        fatal("live server needs a nonzero worker count");
    if (kb.size() == 0)
        fatal("live server needs a non-empty knowledge base");
    if (cfg.shards >= 2)
        return std::make_unique<ShardedScan>(kb, cfg);
    return std::make_unique<EngineBackend>(kb, cfg);
}

} // namespace

LiveServer::LiveServer(const core::KnowledgeBase &kb,
                       const LiveServerConfig &cfg)
    : LiveServer(inProcessBackend(kb, cfg), nullptr, kb.dim(), cfg)
{}

LiveServer::LiveServer(BatchBackend &backend, size_t embedding_dim,
                       const LiveServerConfig &cfg)
    : LiveServer(nullptr, &backend, embedding_dim, cfg)
{}

LiveServer::LiveServer(std::unique_ptr<BatchBackend> owned,
                       BatchBackend *external, size_t embedding_dim,
                       const LiveServerConfig &cfg)
    : ownedBackend(std::move(owned)),
      backend(external ? *external : *ownedBackend), ed(embedding_dim),
      cfg(cfg),
      timeoutNs(backend.joinsInFlight()
                    ? std::chrono::nanoseconds::zero()
                    : std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::duration<double>(cfg.batchTimeout))),
      queue(cfg.queueCapacity), window(backend.pipelineDepth()),
      recorder(cfg.histogramMaxSeconds, kHistogramBins),
      pool(2) // the dispatch and the retire loop
{
    if (cfg.maxBatch == 0)
        fatal("live server needs a nonzero batch cap");
    if (cfg.batchTimeout < 0.0)
        fatal("batch timeout must be non-negative");
    if (ed == 0)
        fatal("live server needs a nonzero embedding dim");
    if (window.empty())
        fatal("live server backend has an empty window");

    pool.submit([this] { dispatchLoop(); });
    pool.submit([this] { retireLoop(); });
}

LiveServer::~LiveServer()
{
    shutdown();
}

Ticket
LiveServer::submit(const float *u)
{
    // The arrival is counted only once its outcome is: after the
    // rejection is, or after the request is in the queue. A request
    // refused mid-call then never shows as backlog (see snapshot()).
    Ticket ticket;
    // A NaN or infinite component can only come back as a NaN answer;
    // refuse it with its own status before the queue.
    if (!std::all_of(u, u + ed,
                     [](float x) { return std::isfinite(x); })) {
        rejectedNonFinite.fetch_add(1, std::memory_order_relaxed);
        arrived.fetch_add(1, std::memory_order_release);
        ticket.status = SubmitStatus::NonFinite;
        return ticket;
    }
    if (stopping.load(std::memory_order_acquire)) {
        rejectedShutdown.fetch_add(1, std::memory_order_relaxed);
        arrived.fetch_add(1, std::memory_order_release);
        ticket.status = SubmitStatus::ShuttingDown;
        return ticket;
    }

    Request req;
    req.u.assign(u, u + ed);
    std::future<Answer> answer = req.promise.get_future();
    if (!queue.tryPush(std::move(req))) {
        // Full queue or a close that raced with the stopping check;
        // either way the request was not admitted and the (unused)
        // promise dies with `req`. Attribute the refusal to its cause
        // so backpressure metrics stay clean of shutdown noise.
        if (queue.isClosed()) {
            rejectedShutdown.fetch_add(1, std::memory_order_relaxed);
            ticket.status = SubmitStatus::ShuttingDown;
        } else {
            rejectedFull.fetch_add(1, std::memory_order_relaxed);
            ticket.status = SubmitStatus::Rejected;
        }
        arrived.fetch_add(1, std::memory_order_release);
        return ticket;
    }
    arrived.fetch_add(1, std::memory_order_release);
    ticket.status = SubmitStatus::Accepted;
    ticket.answer = std::move(answer);
    return ticket;
}

void
LiveServer::dispatchLoop()
{
    const size_t depth = window.size();
    for (uint64_t k = 0;; ++k) {
        // Take batch k's credit before popping it: a batch forms only
        // when the backend has room, and while the window is full
        // arrivals wait in (and are refused by) the bounded queue. A
        // joining backend's zero timeoutNs then pops whatever is
        // queued at once.
        {
            std::unique_lock<std::mutex> lock(windowMutex);
            creditCv.wait(lock, [&] { return k - retired < depth; });
        }
        Slot &s = window[k % depth];
        if (!queue.popBatch(cfg.maxBatch, timeoutNs, s.entries))
            break;
        s.dispatched = std::chrono::steady_clock::now();
        const size_t n = s.entries.size();
        s.uflat.resize(n * ed);
        s.oflat.resize(n * ed);
        for (size_t i = 0; i < n; ++i)
            std::memcpy(s.uflat.data() + i * ed,
                        s.entries[i].item.u.data(), ed * sizeof(float));
        s.ticket =
            backend.submitBatch(s.uflat.data(), n, ed, s.oflat.data());
        {
            std::lock_guard<std::mutex> lock(windowMutex);
            submitted = k + 1;
        }
        retireCv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(windowMutex);
        dispatchDone = true;
    }
    retireCv.notify_one();
}

void
LiveServer::retireLoop()
{
    std::vector<double> waits;
    for (uint64_t k = 0;; ++k) {
        {
            std::unique_lock<std::mutex> lock(windowMutex);
            retireCv.wait(lock,
                          [&] { return dispatchDone || k < submitted; });
            if (k == submitted)
                break; // dispatch is done and nothing is left
        }
        Slot &s = window[k % window.size()];

        // Slots retire in k order, which is the submission order the
        // backend requires of waitBatch.
        const BatchResult r = backend.waitBatch(s.ticket);
        const double service =
            secondsBetween(s.dispatched, std::chrono::steady_clock::now());
        const size_t n = s.entries.size();
        waits.resize(n);
        for (size_t i = 0; i < n; ++i)
            waits[i] = secondsBetween(s.entries[i].enqueued, s.dispatched);

        const bool failed = r.shardsAnswered == 0;
        for (size_t i = 0; i < n; ++i) {
            Answer a;
            if (!failed)
                a.o.assign(s.oflat.data() + i * ed,
                           s.oflat.data() + (i + 1) * ed);
            a.batchSize = n;
            a.queueWaitSeconds = waits[i];
            a.serviceSeconds = service;
            a.failed = failed;
            a.shardMask = r.shardMask;
            s.entries[i].item.promise.set_value(std::move(a));
        }

        // Every fulfilled future is a completion — failed batches
        // included, so `completed + rejected == arrived` holds exactly
        // after shutdown (Answer::failed carries the quality signal).
        // The recorder is touched only after every client is released.
        {
            std::lock_guard<std::mutex> lock(recorderMutex);
            recorder.recordBatch(n);
            for (size_t i = 0; i < n; ++i)
                recorder.recordRequest(waits[i], service,
                                       waits[i] + service);
        }

        // Only now is the batch out of the backlog: return its credit.
        {
            std::lock_guard<std::mutex> lock(windowMutex);
            retired = k + 1;
        }
        creditCv.notify_one();
    }
}

void
LiveServer::shutdown()
{
    std::call_once(shutdownOnce, [this] {
        // Order matters: refuse new admissions, then wake the dispatch
        // loop so it drains the queue as immediate partial batches,
        // then wait for the last batch to retire. popBatch returns
        // false only once the queue is closed *and* empty, so no
        // accepted request can be left behind.
        stopping.store(true, std::memory_order_release);
        queue.close();
        pool.waitIdle();
    });
}

LatencySnapshot
LiveServer::snapshot() const
{
    // Latch the admission counters *before* merging the completion
    // histograms — arrived first, then the rejection split. submit()
    // counts an arrival only after its rejection or its admission, so
    // every arrival latched here is already rejected or in the queue
    // or a popped batch. See the header for the backlog guarantee
    // this ordering buys.
    const uint64_t a = arrived.load(std::memory_order_acquire);
    const uint64_t rf = rejectedFull.load(std::memory_order_relaxed);
    const uint64_t rs =
        rejectedShutdown.load(std::memory_order_relaxed);
    const uint64_t rn =
        rejectedNonFinite.load(std::memory_order_relaxed);

    LatencyRecorder merged(cfg.histogramMaxSeconds, kHistogramBins);
    {
        std::lock_guard<std::mutex> lock(recorderMutex);
        recorder.mergeInto(merged);
    }
    backend.countersInto(merged);
    LatencySnapshot s = merged.snapshot();
    s.arrived = a;
    s.rejectedFull = rf;
    s.rejectedShutdown = rs;
    s.rejectedNonFinite = rn;
    s.rejected = rf + rs + rn;
    return s;
}

} // namespace mnnfast::serve
