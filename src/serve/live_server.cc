#include "serve/live_server.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "core/sharded_knowledge_base.hh"
#include "serve/scan_backend.hh"
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

/** Batches riding the scan rings at once (the in-process window). */
constexpr size_t kScanDepth = 4;

/**
 * The parts of the in-process partition: cfg.shards when sharded, else
 * the chunk groups ColumnEngine(kb, cfg.engine) runs. Checks cfg.
 */
size_t
partsOf(const core::KnowledgeBase &kb, const LiveServerConfig &cfg)
{
    if (cfg.workers == 0)
        fatal("live server needs a nonzero worker count");
    if (kb.size() == 0)
        fatal("live server needs a non-empty knowledge base");
    return cfg.shards >= 2 ? cfg.shards : core::chunkGroupCount(cfg.engine);
}

/**
 * The in-process backend of both modes: a ScanBackend with one ring per
 * view of a chunk-aligned partition of the KB (partsOf), advanced by
 * cfg.workers threads. A submitted batch rides every ring from its next
 * chunk boundary (it joins the work in flight, so the server dispatches
 * it on arrival); waitBatch merges its partials in partition order with
 * core::mergeStreamPartials. A ring's partial is its view's single-
 * group pass (scan_ring.hh), so the answer is bit for bit the one a
 * ColumnEngine with the parts as its chunk groups gives: replicated,
 * ColumnEngine(kb, cfg.engine) itself; sharded, also a cluster of shard
 * nodes over the same partition.
 */
class ShardedScan final : public BatchBackend
{
  public:
    ShardedScan(const core::KnowledgeBase &kb, const LiveServerConfig &cfg)
        : ed(kb.dim()), skb(kb, cfg.engine.chunkSize, partsOf(kb, cfg)),
          scan(skb, cfg.engine, cfg.workers)
    {
        const size_t parts = skb.shardCount();
        const bool sharded = cfg.shards >= 2;
        if (sharded && parts > 32)
            fatal("live server supports at most 32 shards (got %zu)",
                  parts);
        for (size_t b = 0; b < kScanDepth; ++b)
            batches.push_back(std::make_unique<Batch>(*this, parts));
        // Replicated, the parts are one engine's chunk groups: one
        // whole-KB shard answered (Answer::shardMask).
        result.complete = true;
        result.shardsAnswered = sharded ? static_cast<uint32_t>(parts) : 1;
        result.shardMask =
            sharded ? static_cast<uint32_t>((uint64_t{1} << parts) - 1)
                    : 0b1;
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
        const ScanBackend::Totals t = scan.totals();
        const core::ScanTotals &r = t.rings;
        acc.recordScan({r.kept, r.skipped, r.routedRows, r.bypassed,
                        r.steps, r.questionsStreamed, r.keptChunks,
                        r.times.inner, r.times.softmax, r.times.wsum,
                        t.busy});
    }

  private:
    /** A ticket's slot: ticket t lives in batches[t % kScanDepth]. */
    struct Batch final : ScanJob
    {
        Batch(ShardedScan &owner, size_t parts)
            : ScanJob(parts), owner(owner), views(parts)
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
    BatchResult result; ///< every batch: every part answered
    uint64_t next = 0;  ///< next ticket (submitting thread only)
    std::mutex mutex;   ///< guards Batch::done
    std::condition_variable doneCv; ///< waitBatch: a batch settled
    // Declared last: its workers touch the batches.
    ScanBackend scan;
};

} // namespace

LiveServer::LiveServer(const core::KnowledgeBase &kb,
                       const LiveServerConfig &cfg)
    : LiveServer(std::make_unique<ShardedScan>(kb, cfg), nullptr, kb.dim(),
                 cfg)
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
