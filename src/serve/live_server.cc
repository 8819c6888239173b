#include "serve/live_server.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <utility>

#include "core/scan_ring.hh"
#include "core/sharded_knowledge_base.hh"
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
 * submitBatch therefore never blocks.
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
        done[ticket % engines.size()].get();
        BatchResult r;
        r.complete = true;
        r.shardsAnswered = 1;
        r.shardMask = 0b1;
        return r;
    }

    size_t pipelineDepth() const override { return engines.size(); }

    void countersInto(LatencyRecorder &) const override {}

  private:
    std::vector<std::unique_ptr<core::ColumnEngine>> engines;
    uint64_t next = 0; ///< next ticket (submitting thread only)
    std::vector<std::future<void>> done; ///< per engine: its batch
    // Declared last: its threads touch every member above.
    runtime::ThreadPool pool;
};

/** Batches riding the scan rings at once (the sharded window). */
constexpr size_t kScanDepth = 4;

/**
 * The sharded in-process backend: a cooperative circular scan. One
 * core::ScanRing per shard view skb.shard(s), advanced one chunk per
 * step by cfg.workers threads, each ring by one thread at a time. A
 * submitted batch attaches to every ring at its next chunk boundary
 * and settles once it has ridden each ring one revolution; waitBatch
 * merges its S partials in shard order with core::mergeStreamPartials.
 * A ring's partial is its shard's single-group pass (scan_ring.hh), so
 * the answer is bit for bit the one a ColumnEngine with the shards as
 * its chunk groups gives — and a cluster of shard nodes over the same
 * partition.
 */
class ScanBackend final : public BatchBackend
{
  public:
    ScanBackend(const core::KnowledgeBase &kb,
                const LiveServerConfig &cfg)
        : ed(kb.dim()), skb(kb, cfg.engine.chunkSize, cfg.shards),
          lanes(skb.shardCount()), batches(kScanDepth),
          pool(cfg.workers)
    {
        const size_t shards = skb.shardCount();
        if (shards > 32)
            fatal("live server supports at most 32 shards (got %zu)",
                  shards);
        core::EngineConfig ecfg = cfg.engine;
        ecfg.chunkSize = skb.chunkSize();
        for (size_t s = 0; s < shards; ++s)
            lanes[s].ring = std::make_unique<core::ScanRing>(
                skb.shard(s), ecfg, skb.rows(s).begin / skb.chunkSize());
        for (size_t b = 0; b < kScanDepth; ++b) {
            batches[b].rides = std::vector<Ride>(shards);
            batches[b].views.resize(shards);
            for (Ride &r : batches[b].rides)
                r.batch = b;
        }
        result.complete = true;
        result.shardsAnswered = static_cast<uint32_t>(shards);
        result.shardMask =
            static_cast<uint32_t>((uint64_t{1} << shards) - 1);
        for (size_t w = 0; w < cfg.workers; ++w)
            pool.submit([this, w] { work(w); });
    }

    ~ScanBackend() override
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stopping = true;
        }
        workCv.notify_all();
    }

    uint64_t
    submitBatch(const float *u, size_t nq, size_t, float *o) override
    {
        // The credit rule makes the batch's slot free: the ticket
        // kScanDepth before it was waited.
        const uint64_t t = next++;
        Batch &b = batches[t % kScanDepth];
        b.nq = nq;
        b.o = o;
        for (Ride &r : b.rides) {
            r.u = u;
            r.nq = nq;
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            b.pending = lanes.size();
            for (size_t s = 0; s < lanes.size(); ++s)
                lanes[s].joining.push_back(&b.rides[s]);
        }
        workCv.notify_all();
        return t;
    }

    BatchResult
    waitBatch(uint64_t ticket) override
    {
        Batch &b = batches[ticket % kScanDepth];
        {
            std::unique_lock<std::mutex> lock(mutex);
            doneCv.wait(lock, [&] { return b.pending == 0; });
        }
        for (size_t s = 0; s < lanes.size(); ++s)
            b.views[s] = b.rides[s].partial.view();
        core::mergeStreamPartials(b.views.data(), b.views.size(), b.nq,
                                  ed, b.o);
        return result;
    }

    size_t pipelineDepth() const override { return kScanDepth; }

    void countersInto(LatencyRecorder &) const override {}

  private:
    /** One batch's ride on one shard's ring. */
    struct Ride : core::ScanRider
    {
        size_t batch = 0; ///< its Batch slot
    };

    /** A ticket's slot: ticket t lives in batches[t % kScanDepth]. */
    struct Batch
    {
        std::vector<Ride> rides; ///< one per shard
        std::vector<core::PartialView> views;
        size_t nq = 0;
        float *o = nullptr;
        size_t pending = 0; ///< rides not done (guarded by mutex)
    };

    /** One shard's ring and its hand-off state (guarded by mutex). */
    struct Lane
    {
        std::unique_ptr<core::ScanRing> ring;
        std::vector<core::ScanRider *> joining; ///< attach next step
        bool busy = false;   ///< a worker is stepping the ring
        bool riding = false; ///< the ring has riders
    };

    /** A worker: step any ring with work that no other worker holds,
     *  one chunk at a time, rotating so no ring starves. */
    void
    work(size_t worker)
    {
        std::vector<core::ScanRider *> joining, done;
        size_t from = worker % lanes.size();
        // The first free ring with work, searching from `from`.
        const auto claim = [&]() -> Lane * {
            for (size_t i = 0; i < lanes.size(); ++i) {
                Lane &l = lanes[(from + i) % lanes.size()];
                if (!l.busy && (l.riding || !l.joining.empty())) {
                    from = (from + i + 1) % lanes.size();
                    return &l;
                }
            }
            return nullptr;
        };
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            Lane *lane = nullptr;
            workCv.wait(lock, [&] {
                lane = claim();
                return lane || stopping;
            });
            if (!lane)
                return;
            lane->busy = true;
            joining.swap(lane->joining);
            lock.unlock();

            for (core::ScanRider *r : joining)
                lane->ring->attach(*r);
            joining.clear();
            lane->ring->step(worker, done);

            lock.lock();
            lane->busy = false;
            lane->riding = !lane->ring->idle();
            bool settled = false;
            for (core::ScanRider *r : done)
                settled |= --batches[static_cast<Ride *>(r)->batch]
                               .pending
                           == 0;
            done.clear();
            if (settled)
                doneCv.notify_one();
        }
    }

    size_t ed;
    core::ShardedKnowledgeBase skb;
    /** Guards the lanes' hand-off state, Batch::pending and stopping. */
    std::mutex mutex;
    std::vector<Lane> lanes;
    std::vector<Batch> batches;
    BatchResult result; ///< every batch: all shards answered
    uint64_t next = 0;  ///< next ticket (submitting thread only)
    std::condition_variable workCv; ///< workers: a ring has work
    std::condition_variable doneCv; ///< waitBatch: a batch settled
    bool stopping = false;
    // Declared last: its threads touch every member above.
    runtime::ThreadPool pool;
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
        return std::make_unique<ScanBackend>(kb, cfg);
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
      timeoutNs(std::chrono::duration_cast<std::chrono::nanoseconds>(
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
        // arrivals wait in (and are refused by) the bounded queue.
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
