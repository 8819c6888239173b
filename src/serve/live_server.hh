/**
 * @file
 * The live QA serving runtime: a real, multi-threaded counterpart of
 * the discrete-event simulator in qa_server.hh.
 *
 *   clients --submit()--> RequestQueue --popBatch()--> dispatch loop
 *                         (bounded,      (size cap +       |
 *                          rejects        oldest-Q     submitBatch
 *                          when full)     timeout, or      v
 *                                         on arrival)
 *                                                     BatchBackend
 *   futures <--set_value()-- retire loop <--waitBatch()----'
 *
 * Admission. submit() copies the question vector, stamps it, and
 * offers it to a bounded queue. A full (or closing) queue rejects the
 * request immediately — backpressure by refusal, never by blocking
 * the client — and the rejection is counted, split by cause
 * (queue-full vs. shutdown) so overload metrics are not polluted by
 * clean shutdowns. An accepted request returns a std::future<Answer>
 * that is guaranteed to become ready.
 *
 * Batching. The dispatch loop pulls batches with
 * RequestQueue::popBatch, whose rule is the one the simulator
 * implements in simulated time (qa_server.hh), so one workload can be
 * replayed through both and the model compared against wall-clock
 * reality. The serving claim inherited from the paper is that a batch
 * shares one streaming pass over the knowledge base
 * (t(n) = base + n * slope), and the rule depends on who shares it:
 *
 *  - a backend whose batches join the work in flight
 *    (BatchBackend::joinsInFlight: both in-process modes, a cluster
 *    front end) shares its stream with every batch riding, whenever
 *    it arrives, so waiting buys nothing: the dispatch loop pops
 *    whatever is queued (up to `maxBatch`) as soon as it holds a
 *    window credit, and `batchTimeout` does not apply (the
 *    simulator's JoinAtNextChunk with a zero timeout). While the
 *    window is full, arrivals still queue and leave together when a
 *    credit returns, so under load batches fill as before;
 *  - a caller's backend that streams the KB once per batch releases
 *    a batch at `maxBatch` pending or when the oldest pending request
 *    has waited `batchTimeout`: the wait buys the stream riders (the
 *    simulator's BatchAtATime).
 *
 * One serving loop. Every mode runs the same two threads over a
 * BatchBackend: a *dispatch* loop that pops a batch, flattens it and
 * submits it, and a *retire* loop that waits tickets in submission
 * order, fulfills the promises and records the completions. The mode
 * only picks the backend:
 *
 *  - In process (the KnowledgeBase constructor): a cooperative scan
 *    over a chunk-aligned partition of the (read-only) KB — one
 *    core::ScanRing per part, stepped a chunk at a time by `workers`
 *    threads. A dispatched batch joins every ring at its next chunk
 *    boundary instead of waiting for the batch in flight, rides one
 *    revolution, and its partials merge in partition order; riders
 *    share each chunk's stream, so each KB byte is read once per
 *    revolution however many batches ride (see scan_ring.hh). Up to 4
 *    batches ride at once. The two in-process modes differ only in
 *    their partition:
 *     - replicated (shards <= 1): the chunk groups
 *       ColumnEngine(kb, engine) runs (core::chunkGroupCount: one
 *       ring at engine.threads 0 or 1, 4 x threads rings beyond), so
 *       every answer is that engine's bit for bit;
 *     - sharded (shards >= 2): the KB's S shards, so every answer is
 *       the merge of the shard views' partials, a cluster's over the
 *       same partition.
 *  - Cluster (the BatchBackend constructor): a caller-owned backend,
 *    canonically a net::ClusterFrontEnd over shard node processes.
 *    With a window W >= 2, batch k+1 scatters while batch k gathers;
 *    the lossless path is bit-identical to the sharded mode over the
 *    same partition. Per-shard RPC counters, partial-answer and
 *    failed-batch totals reach snapshot() via
 *    BatchBackend::countersInto.
 *
 * The credit rule. The window lives here, not in the backend: the
 * dispatch loop takes one of pipelineDepth() credits *before* it
 * pops a batch, and the retire loop returns it only after that
 * batch's completions are recorded. So a batch forms only when the
 * backend has room for it (the simulator's "a worker is free" rule),
 * at most engineSlots() batches are popped but not yet recorded, and
 * while the window is full arrivals wait in the bounded queue, which
 * absorbs and eventually refuses them.
 *
 * Conservation. The retire loop fulfills every popped request exactly
 * once, whatever the backend reports: a batch that failed closed
 * still fulfills its futures, with Answer::failed set and an empty
 * output, and counts as completed. shutdown() drains the queue before
 * the loops exit, so after it returns
 * arrived == rejected + completed exactly (tested in every mode).
 *
 * Observability. The retire loop updates one LatencyRecorder
 * (queue-wait / service / end-to-end histograms + batch counters)
 * under a mutex that snapshot() also takes, so a live snapshot is
 * always consistent; admission counters (arrived, rejectedFull,
 * rejectedShutdown, rejectedNonFinite) are atomics on the submit
 * path. snapshot() latches the admission counters *before* merging
 * the completion histograms — see LiveServer::snapshot for the
 * ordering guarantee that buys.
 */

#ifndef MNNFAST_SERVE_LIVE_SERVER_HH
#define MNNFAST_SERVE_LIVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hh"
#include "core/knowledge_base.hh"
#include "runtime/thread_pool.hh"
#include "serve/batch_backend.hh"
#include "serve/latency_recorder.hh"
#include "serve/request_queue.hh"

namespace mnnfast::serve {

/** Outcome of one submit() call. */
enum class SubmitStatus {
    Accepted,     ///< queued; the ticket's future will become ready
    Rejected,     ///< bounded queue full — backpressure, try later
    ShuttingDown, ///< server is draining; no new admissions
    NonFinite,    ///< the question has a NaN or infinite component
};

/** A completed request: the response vector plus its timings. */
struct Answer
{
    std::vector<float> o;          ///< ed-dimensional response
    size_t batchSize = 0;          ///< size of the batch it rode in
    double queueWaitSeconds = 0.0; ///< enqueue -> batch dispatch
    double serviceSeconds = 0.0;   ///< dispatch -> batch settled
                                   ///< (batch-shared)
    /** The batch failed closed (no shard answered) and `o` is empty.
     *  Only a remote backend can fail; in-process batches never do. */
    bool failed = false;
    /** Bit s set = shard s contributed to `o`; zero iff `failed`. The
     *  replicated mode is one whole-KB shard (0b1), the sharded mode
     *  sets all S bits, a cluster sets the shards that answered. */
    uint32_t shardMask = 0;
};

/** submit() result: a status and, when accepted, the answer future. */
struct Ticket
{
    SubmitStatus status = SubmitStatus::Rejected;
    std::future<Answer> answer; ///< valid only when accepted()

    bool accepted() const { return status == SubmitStatus::Accepted; }
};

/** Live-runtime tunables; the batching fields mirror ServerConfig. */
struct LiveServerConfig
{
    /** Maximum questions per dispatched batch. */
    size_t maxBatch = 32;
    /** Dispatch a partial batch once its oldest question waited this
     *  long (seconds). Zero means dispatch immediately when nonempty.
     *  Read only for a caller's BatchBackend that does not join the
     *  work in flight: the in-process modes' and a cluster front end's
     *  batches join it and are dispatched on arrival, whatever this
     *  says (file header). */
    double batchTimeout = 2.0e-3;
    /** The threads stepping the in-process scan's rings. A ring is
     *  stepped by one thread at a time, so workers beyond the ring
     *  count sit idle: in-process parallelism comes from the
     *  partition. Ignored in cluster mode. */
    size_t workers = 1;
    /** Knowledge-base shards for scatter/gather dispatch. 0 or 1
     *  keeps the replicated mode, whose partition is the engine's
     *  chunk groups; >= 2 partitions the KB (boundaries aligned to
     *  engine.chunkSize) into shard views, at most 32 effective shards
     *  (the Answer::shardMask width). One scan ring per part either
     *  way. See the file header. */
    size_t shards = 0;
    /** Bounded-queue capacity; submissions beyond it are rejected. */
    size_t queueCapacity = 1024;
    /** The scan rings' engine tunables. threads and scheduleGroups
     *  start no thread: they only pick the replicated partition, the
     *  chunk groups ColumnEngine(kb, engine) runs, so threads = 0
     *  serves one ring and replicated answers are that engine's.
     *  Coarse routing flows through here too: set engine.routePolicy
     *  / routeTopK / routeBoundThreshold and every ring routes per its
     *  part — the replicated mode per the engine's chunk groups, the
     *  sharded mode per shard, exactly as a cluster's shard nodes do
     *  (see sharded_engine.hh). A chunkObserver sees each scan step's
     *  chunk, numbered in the whole KB, once per step however many
     *  batches ride it. */
    core::EngineConfig engine;
    /** Latency histogram range; samples above land in overflow (and
     *  clamp quantiles to the range — the exact max is still kept).
     *  The range is cut into 65536 bins (~7.6 us each at 0.5 s). */
    double histogramMaxSeconds = 0.5;
};

/** The live serving runtime. See file header. */
class LiveServer
{
  public:
    /**
     * In-process mode (replicated or sharded, per cfg.shards): serve
     * from a scan over `kb`. The knowledge base must be non-empty,
     * must not be mutated while the server runs, and must outlive it.
     */
    LiveServer(const core::KnowledgeBase &kb,
               const LiveServerConfig &cfg);

    /**
     * Cluster mode: dispatch batches through `backend` (canonically a
     * net::ClusterFrontEnd) instead of in-process engines. The
     * backend must outlive the server and be used by nothing else
     * while serving (the server owns its submit/wait threads).
     * `embedding_dim` is the question width submit() expects;
     * cfg.workers/shards/engine are ignored (execution lives behind
     * the backend).
     */
    LiveServer(BatchBackend &backend, size_t embedding_dim,
               const LiveServerConfig &cfg);

    LiveServer(const LiveServer &) = delete;
    LiveServer &operator=(const LiveServer &) = delete;

    /** Drains and stops (equivalent to shutdown()). */
    ~LiveServer();

    /**
     * Submit one question (ed floats, copied). Never blocks: returns
     * NonFinite for a question with a NaN or infinite component (its
     * answer could only be NaN), Rejected when the bounded queue is
     * full and ShuttingDown once shutdown began.
     */
    Ticket submit(const float *u);

    /**
     * Stop admissions, serve every already-accepted request, and join
     * the loops. Idempotent; after it returns, every accepted future
     * is ready and the counters are final.
     */
    void shutdown();

    /**
     * Consistent service-wide statistics (callable while serving).
     *
     * Ordering guarantee: the admission counters (arrived, then the
     * rejection split) are latched *before* the completion histograms
     * are merged, and submit() counts an arrival only once it is
     * rejected or queued. Every admitted request lives in the bounded
     * queue or a popped batch until its completion is recorded, and
     * the credit rule (file header) caps popped-but-unrecorded
     * batches at engineSlots() — the 4 batches riding the in-process
     * scan, a cluster's window W — so the apparent
     * backlog `arrived - rejected - completed` never exceeds
     * queueCapacity + engineSlots() * maxBatch — a snapshot can show a
     * just-completed request as completed-but-not-yet-arrived
     * (transiently *under*-counting the backlog) but never reports
     * phantom in-flight requests (the artifact of the reverse order).
     * After shutdown(), arrived == rejected + completed exactly.
     */
    LatencySnapshot snapshot() const;

    /** Embedding dimension submit() expects. */
    size_t embeddingDim() const { return ed; }

    /** False once shutdown has begun. */
    bool accepting() const { return !stopping.load(); }

    /** Requests admitted and not yet dispatched in a batch (a
     *  snapshot: it moves while clients submit). */
    size_t queued() const { return queue.size(); }

    /** True when batches are scattered across a sharded KB. */
    bool sharded() const { return cfg.shards >= 2; }

    /** True when batches dispatch through a caller's BatchBackend. */
    bool remote() const { return !ownedBackend; }

    /** Batches in flight at most: the backend's pipelineDepth() —
     *  the scan depth 4 in process (batches riding the rings at once),
     *  the cluster's window W. */
    size_t engineSlots() const { return window.size(); }

    const LiveServerConfig &config() const { return cfg; }

  private:
    struct Request
    {
        std::vector<float> u;
        std::promise<Answer> promise;
    };

    /** One window slot: a batch from its pop until its completions are
     *  recorded. The flattened buffers stay put from submitBatch to
     *  waitBatch and are reused by the slot's next batch. */
    struct Slot
    {
        std::vector<RequestQueue<Request>::Entry> entries;
        std::vector<float> uflat;
        std::vector<float> oflat;
        uint64_t ticket = 0;
        std::chrono::steady_clock::time_point dispatched;
    };

    /** Both public constructors: serve through `external` if given,
     *  else through `owned`, the in-process backend. */
    LiveServer(std::unique_ptr<BatchBackend> owned,
               BatchBackend *external, size_t embedding_dim,
               const LiveServerConfig &cfg);

    void dispatchLoop(); ///< queue -> backend, one credit per batch
    void retireLoop();   ///< backend -> promises + recorder, in order

    std::unique_ptr<BatchBackend> ownedBackend; ///< in-process modes
    BatchBackend &backend;
    size_t ed; ///< question width
    LiveServerConfig cfg;
    /** cfg.batchTimeout, or zero (dispatch on arrival) when the
     *  backend's batches join the work in flight. */
    std::chrono::nanoseconds timeoutNs;

    RequestQueue<Request> queue;

    /** pipelineDepth() slots; batch k lives in slot k % size. The
     *  credits taken are `submitted - retired` plus the one the
     *  dispatch loop holds while it pops. */
    std::vector<Slot> window;
    std::mutex windowMutex;
    std::condition_variable creditCv; ///< dispatch: a credit returned
    std::condition_variable retireCv; ///< retire: a batch submitted
    uint64_t submitted = 0;           ///< guarded by windowMutex
    uint64_t retired = 0;             ///< guarded by windowMutex
    bool dispatchDone = false;        ///< guarded by windowMutex

    LatencyRecorder recorder;
    mutable std::mutex recorderMutex; ///< retire writes vs snapshot

    std::atomic<uint64_t> arrived{0};
    std::atomic<uint64_t> rejectedFull{0};
    std::atomic<uint64_t> rejectedShutdown{0};
    std::atomic<uint64_t> rejectedNonFinite{0};
    std::atomic<bool> stopping{false};
    std::once_flag shutdownOnce;

    // Declared last so the pool (and its two loops, which touch every
    // member above) is torn down first.
    runtime::ThreadPool pool;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_LIVE_SERVER_HH
