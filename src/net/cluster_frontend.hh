/**
 * @file
 * Cluster front end: scatters question batches to one ShardNode per
 * shard over a Transport, gathers the StreamPartials, and merges them
 * with core::mergeStreamPartials — the same canonical-shard-order
 * running-max merge ShardedEngine runs in process (DESIGN.md §12).
 *
 * Bit-identity. Over a lossless transport with every shard answering,
 * the gather is bit-identical to ShardedEngine::inferBatch over the
 * same partition and config: the nodes' single-group engines produce
 * the exact shard accumulators, the wire carries their IEEE-754 bit
 * patterns unchanged, and the merge is literally the same function in
 * the same order. Tests and the cluster bench enforce this across
 * shard counts and KB precisions — pipelined and serial alike.
 *
 * Pipelining. The front end admits a window of up to
 * ClusterConfig::pipelineDepth in-flight batches:
 *
 *   submitBatch() appends an in-flight slot to the window (blocking
 *   while the window is full) and enqueues one job per shard on that
 *   shard's fetch thread; waitBatch() retires the window head once
 *   all of its shards settled. Each fetch thread *sends ahead*: the
 *   active job and every job queued behind it go on the wire
 *   immediately (once per connection, oldest first), so the node
 *   computes batch k+1 while the gather of batch k is still in
 *   flight — the network round trip and the remote compute both come
 *   off the pipeline's critical path. Responses are matched by
 *   requestId: an answer for a still-queued job is stashed until that
 *   job becomes active (its latency sampled at arrival), stale ids
 *   are discarded, never merged, and unanswered send-aheads die with
 *   their connection and are simply re-sent on the next one — so
 *   batches cannot cross-contaminate and failover semantics are
 *   unchanged. Completions are delivered strictly in submission order
 *   regardless of the order shards answer in. A shard job's deadline
 *   is stamped when its fetch *starts*, not at submit, so one slow
 *   batch cannot pre-expire the batches queued behind it.
 *
 *   inferBatch() is submitBatch() + waitBatch() back to back — the
 *   serial special case, unchanged behavior at pipelineDepth 1.
 *
 * Failure handling (production-honest, per shard):
 *
 *  - Replica sets. Each shard lists one or more replica endpoints.
 *    A fetch holds a connection to its current replica; on a
 *    disconnect, a corrupt stream, or an exhausted attempt window it
 *    *fails over* — closes the channel, advances to the next replica
 *    (round robin), and reconnects. The request is sent exactly once
 *    per connection: a resend happens only on a connection that has
 *    not carried this request yet, and when the primary dies while a
 *    hedge is outstanding the hedge is *promoted* to primary instead
 *    of opening a third connection (the request is still outstanding
 *    on it — a resend would only duplicate shard work). Requests are
 *    idempotent pure compute, so resends need no coordination;
 *    responses are deduplicated by requestId.
 *
 *  - Hedged requests. When a shard's response has not arrived by the
 *    hedge delay — a configured quantile of that shard's observed RPC
 *    latencies (a floor until enough samples exist) — the fetch sends
 *    a backup request with the same id to the *next* replica and then
 *    races the two connections, alternating short recv slices. The
 *    first valid response wins; a hedge win promotes the backup
 *    replica to current. At most two requests are ever outstanding
 *    per shard. Each attempt is timed from its *own* send, so a
 *    failover's reconnect cost never inflates the latency quantile
 *    that schedules future hedges.
 *
 *  - Partial answers. A shard that misses the batch deadline on every
 *    path is recorded as missing. Policy is explicit: with
 *    allowPartial the gather merges the shards that did answer (still
 *    in canonical order) and flags the batch partial, with the
 *    contributing set in BatchResult::shardMask; without it the batch
 *    fails closed (complete = false, output untouched) and is counted
 *    in failedBatches — its timing stays out of the success latency
 *    histograms. Either way nothing silently pretends the full KB was
 *    consulted.
 *
 * Observability: every fetch counts rpcs, hedges fired, hedge wins,
 * failovers, and deadline misses into per-shard RpcShardCounters, and
 * the front end records per-batch submit-to-retire latency in
 * histograms whose range is derived from the request timeout and the
 * window depth (a 1 s default would saturate exactly when the tail
 * matters). snapshot() returns one LatencySnapshot and is safe to
 * call while batches are in flight; countersInto() threads the RPC
 * counters into a serving layer's own recorder (serve::BatchBackend).
 */

#ifndef MNNFAST_NET_CLUSTER_FRONTEND_HH
#define MNNFAST_NET_CLUSTER_FRONTEND_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_engine.hh"
#include "net/transport.hh"
#include "serve/batch_backend.hh"
#include "serve/latency_recorder.hh"
#include "stats/histogram.hh"

namespace mnnfast::net {

/** Front-end tunables; replicas[s] lists shard s's endpoints. */
struct ClusterConfig
{
    /** Replica endpoints per shard, in failover order; every shard
     *  needs at least one. At most 32 shards (BatchResult::shardMask
     *  is one bit per shard). */
    std::vector<std::vector<std::string>> replicas;

    /** Per-shard fetch deadline, stamped when the fetch starts: a
     *  shard silent past this is a deadline miss. */
    double requestTimeoutSeconds = 1.0;
    /** Per-attempt connect budget (also capped by the deadline). */
    double connectTimeoutSeconds = 0.25;

    /** Enable hedged backup requests (needs >= 2 replicas). A
     *  backup goes out when the RPC is slower than the 95th
     *  percentile of the shard's observed latencies. */
    bool hedging = true;
    /** Hedge delay floor, and the delay until enough samples exist. */
    double hedgeMinSeconds = 1e-3;

    /** Merge a strict subset of shards after the deadline instead of
     *  failing the batch. See the partial-answer policy above. */
    bool allowPartial = false;

    /** In-flight batch window W: submitBatch admits up to this many
     *  unretired batches, overlapping scatter of batch k+1 with
     *  gather of batch k. 1 (or 0, clamped) = serial. */
    size_t pipelineDepth = 1;
};

/** Outcome of one scattered batch (shared with the serving layer). */
using BatchResult = serve::BatchResult;

namespace detail {
struct ShardFetcher;
}

/** Pipelined scatter/gather client over N shard nodes. See file
 *  header. Implements serve::BatchBackend so serve::LiveServer can
 *  dispatch through it. */
class ClusterFrontEnd : public serve::BatchBackend
{
  public:
    /**
     * Starts one fetch thread per shard. `transport` must outlive
     * the front end. Fatal on an empty or oversized replica table.
     */
    ClusterFrontEnd(Transport &transport, const ClusterConfig &cfg);

    /** Every submitted batch must have been waited (the window must
     *  be empty) before destruction. */
    ~ClusterFrontEnd() override;

    ClusterFrontEnd(const ClusterFrontEnd &) = delete;
    ClusterFrontEnd &operator=(const ClusterFrontEnd &) = delete;

    /**
     * Admit one batch into the window: scatter `u` (nq x ed
     * questions) to every shard, answering into `o` (nq x ed) when
     * retired. Blocks while pipelineDepth batches are in flight.
     * Both buffers must stay valid until waitBatch returns for the
     * ticket. One submitter thread at a time.
     */
    uint64_t submitBatch(const float *u, size_t nq, size_t ed,
                         float *o) override;

    /**
     * Block until `ticket`'s batch settled on every shard, merge, and
     * retire it. Tickets must be waited in submission order (the
     * window head); one waiter thread at a time — which may be a
     * different thread than the submitter.
     */
    BatchResult waitBatch(uint64_t ticket) override;

    /** submitBatch + waitBatch back to back (the serial path). */
    BatchResult inferBatch(const float *u, size_t nq, size_t ed,
                           float *o);

    /** Shard count (== cfg.replicas.size()). */
    size_t shardCount() const;

    /** The configured in-flight window (clamped to >= 1). */
    size_t pipelineDepth() const override;

    /** Merged latency + per-shard RPC counter snapshot; safe to call
     *  while batches are in flight. */
    serve::LatencySnapshot snapshot() const;

    /** Counters-only merge for serving-layer snapshot composition
     *  (see serve::BatchBackend). */
    void countersInto(serve::LatencyRecorder &acc) const override;

    /**
     * Shard s's observed RPC latency quantile — the statistic that
     * schedules hedges. Test/diagnostic accessor: the underlying
     * histogram is single-writer (the shard's fetch thread), so call
     * only between batches.
     */
    double shardRpcLatencyQuantile(size_t s, double q) const;

    /**
     * Best-effort Shutdown frame to every replica of every shard
     * (fresh connections, short deadline) — how a driver stops the
     * node processes it spawned. Replicas are probed concurrently,
     * so a dark replica set costs ~one connect budget, not one per
     * replica.
     */
    void shutdownNodes(double timeoutSeconds = 1.0);

  private:
    Transport &transport;
    ClusterConfig cfg;
    double histogramMaxSeconds; ///< derived from timeout x window

    /**
     * One in-flight batch: the window slot every shard writes its
     * partial into. parts[s] is written only by shard s's fetch
     * thread; answeredMask/remainingShards are guarded by `mutex`,
     * and waitBatch reads parts only after remainingShards hit zero
     * (the mutex hand-off orders those writes).
     */
    struct InFlight
    {
        uint64_t requestId = 0;
        const float *u = nullptr;
        size_t nq = 0;
        size_t ed = 0;
        float *o = nullptr;
        std::vector<core::StreamPartial> parts;
        uint32_t answeredMask = 0;
        size_t remainingShards = 0;
        NetClock::time_point submitted;
    };

    mutable std::mutex mutex; ///< window, job queues, recorder, stop
    std::condition_variable workCv;   ///< fetch threads: jobs / stop
    std::condition_variable doneCv;   ///< waitBatch: shard completions
    std::condition_variable windowCv; ///< submitBatch: slot freed
    std::deque<std::unique_ptr<InFlight>> window;
    bool stopping = false;

    uint64_t nextRequestId = 1;

    std::vector<std::unique_ptr<detail::ShardFetcher>> fetchers;
    std::vector<std::thread> threads;

    /** Batch latency + partials + failures + all per-shard RPC
     *  counters (fetch threads publish after each job); guarded by
     *  `mutex`. */
    serve::LatencyRecorder recorder;

    void fetchLoop(size_t s);
};

} // namespace mnnfast::net

#endif // MNNFAST_NET_CLUSTER_FRONTEND_HH
