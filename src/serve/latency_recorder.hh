/**
 * @file
 * Serving-side observability: latency histograms and monotonic
 * counters, merged into a service-wide snapshot.
 *
 * A LatencyRecorder is not synchronized: serve::LiveServer and
 * net::ClusterFrontEnd each keep one recorder and guard it with a
 * mutex that their writers and snapshot() share. Three latency axes
 * are tracked per completed request — queue wait (enqueue -> batch
 * dispatch), service (the engine call, shared by the batch), and
 * end-to-end (enqueue -> completion) — in identical-geometry
 * stats::Histograms so snapshots can merge recorders with
 * Histogram::merge and read p50/p95/p99 off Histogram::quantile.
 * Counters follow the stats::Counter idiom: arrived / completed /
 * rejected at admission, batches and batched-question totals.
 *
 * LatencySnapshot is plain data plus a toJson() serializer, so benches
 * and examples export the same numbers the tests assert on.
 */

#ifndef MNNFAST_SERVE_LATENCY_RECORDER_HH
#define MNNFAST_SERVE_LATENCY_RECORDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.hh"

namespace mnnfast::serve {

/**
 * Per-shard RPC accounting for cluster serving (net::ClusterFrontEnd
 * writes these; zero and absent for in-process serving). Counters
 * follow the stats::Counter idiom: monotone, merged by addition.
 */
struct RpcShardCounters
{
    uint64_t rpcs = 0;           ///< scatter sends (incl. retries/hedges)
    uint64_t hedgesFired = 0;    ///< backup requests launched
    uint64_t hedgeWins = 0;      ///< responses won by the backup
    uint64_t failovers = 0;      ///< replica switches (timeout/disconnect)
    uint64_t deadlineMisses = 0; ///< batches this shard never answered

    void
    addFrom(const RpcShardCounters &o)
    {
        rpcs += o.rpcs;
        hedgesFired += o.hedgesFired;
        hedgeWins += o.hedgeWins;
        failovers += o.failovers;
        deadlineMisses += o.deadlineMisses;
    }
};

/**
 * What a cooperative scan's rings did (core::ScanTotals; LiveServer's
 * in-process modes write these; zero for the other backends).
 * Monotone, merged by addition. Under zero-skip
 * rowsKept + rowsSkipped is the (question, row) pairs the weighted sum
 * tested; questionsStreamed / steps is the questions per ring step.
 * The seconds are summed over the scan's workers: each ring phase's,
 * and the busy time that holds them (attaching riders and stepping),
 * so innerSeconds + softmaxSeconds + wsumSeconds <= busySeconds.
 */
struct ScanCounters
{
    uint64_t rowsKept = 0;       ///< (question, row) weighted-sum rows kept
    uint64_t rowsSkipped = 0;    ///< ... and zero-skipped
    uint64_t rowsRouted = 0;     ///< pairs streamed in phase 1 (routing)
    uint64_t chunksBypassed = 0; ///< chunks no question selected
    uint64_t steps = 0;          ///< ring steps (chunks stepped)
    uint64_t questionsStreamed = 0; ///< questions per step's dotMin, summed
    uint64_t keptChunks = 0; ///< (question, chunk) tiles kept for replay
    double innerSeconds = 0.0;   ///< phase 1: inner products
    double softmaxSeconds = 0.0; ///< phase 2: max and shifted exp
    double wsumSeconds = 0.0;    ///< phase 3: weighted sum
    double busySeconds = 0.0;    ///< workers attaching and stepping

    void
    addFrom(const ScanCounters &o)
    {
        rowsKept += o.rowsKept;
        rowsSkipped += o.rowsSkipped;
        rowsRouted += o.rowsRouted;
        chunksBypassed += o.chunksBypassed;
        steps += o.steps;
        questionsStreamed += o.questionsStreamed;
        keptChunks += o.keptChunks;
        innerSeconds += o.innerSeconds;
        softmaxSeconds += o.softmaxSeconds;
        wsumSeconds += o.wsumSeconds;
        busySeconds += o.busySeconds;
    }
};

/** Merged quantile view of one latency axis. */
struct LatencyQuantiles
{
    uint64_t count = 0;
    double mean = 0.0; ///< seconds
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0; ///< largest recorded sample (exact, not binned)
};

/** Service-wide view at one instant; see LiveServer::snapshot(). */
struct LatencySnapshot
{
    uint64_t arrived = 0;  ///< submit() calls, accepted or not
    /**
     * Total refusals (== rejectedFull + rejectedShutdown +
     * rejectedNonFinite). Kept so existing consumers see one number;
     * the split below is what overload analysis should read — a
     * clean shutdown refusing late submissions is not backpressure.
     */
    uint64_t rejected = 0;
    uint64_t rejectedFull = 0;     ///< bounded queue at capacity
    uint64_t rejectedShutdown = 0; ///< server was draining
    uint64_t rejectedNonFinite = 0; ///< NaN or infinite question
    uint64_t completed = 0;        ///< futures fulfilled
    uint64_t batches = 0;   ///< engine dispatches
    double meanBatchSize = 0.0;

    LatencyQuantiles queueWait;
    LatencyQuantiles service;
    LatencyQuantiles endToEnd;

    /**
     * Cluster RPC accounting: slot s = shard s. Empty for in-process
     * serving (the JSON export then omits the "rpc" block entirely,
     * keeping existing consumers unchanged).
     */
    std::vector<RpcShardCounters> rpcShards;
    /** Questions answered from a strict subset of the shards. */
    uint64_t partialAnswers = 0;
    /**
     * Batches that failed closed (no shard subset merged, output
     * untouched). Their timings are deliberately *absent* from the
     * latency histograms above: a deadline-capped failure recorded as
     * a "completion" would pin the success quantiles at the deadline
     * exactly when the tail matters most.
     */
    uint64_t failedBatches = 0;

    /** The scan's engine counters (see ScanCounters). */
    ScanCounters scan;

    /** Sum of rpcShards (all shards). */
    RpcShardCounters rpcTotals() const;

    /** Serialize every field as one pretty-printed JSON object. */
    std::string toJson(int indent = 0) const;
};

/**
 * One server's latency record. Not thread-safe: its owner serializes
 * every write and every mergeInto (see the file comment).
 */
class LatencyRecorder
{
  public:
    /**
     * @param maxSeconds Histogram range upper bound; samples at or
     *                   above it land in the overflow bucket (and clamp
     *                   quantiles to maxSeconds).
     * @param bins       Histogram resolution.
     */
    explicit LatencyRecorder(double maxSeconds = 1.0, size_t bins = 4096);

    /** Record one completed request's three latency axes (seconds). */
    void recordRequest(double queue_wait, double service,
                       double end_to_end);

    /** Record one dispatched batch of n requests. */
    void recordBatch(size_t n);

    /**
     * Mutable RPC counters of shard `s` (the vector grows on demand).
     * Written under the owner's lock like the histograms;
     * aggregation happens via mergeInto.
     */
    RpcShardCounters &rpcShard(size_t s);

    /** Record `n` questions answered without every shard. */
    void recordPartialAnswers(uint64_t n) { partialAnswerCount += n; }

    /** Record one batch that failed closed (kept out of the latency
     *  histograms — see LatencySnapshot::failedBatches). */
    void recordFailedBatch() { ++failedBatchCount; }

    /** Add a scan's engine counters. */
    void recordScan(const ScanCounters &c) { scanCounters.addFrom(c); }

    /** Fold this recorder into an accumulating snapshot builder.
     *  Histogram geometries must match (Histogram::merge checks). */
    void mergeInto(LatencyRecorder &acc) const;

    /**
     * Fold only the monotone counters — per-shard RPC counters,
     * partial answers, failed batches, scan counters — into `acc`,
     * leaving its histograms and batch totals untouched. This is how a serving
     * layer composes a snapshot from a backend whose recorder has a
     * different histogram geometry (see BatchBackend::countersInto).
     */
    void mergeCountersInto(LatencyRecorder &acc) const;

    /** Render the merged quantile views. */
    LatencySnapshot snapshot() const;

    uint64_t batches() const { return batchCount; }
    uint64_t batchedQuestions() const { return questionCount; }

  private:
    static LatencyQuantiles quantilesOf(const stats::Histogram &h,
                                        double max_sample);

    stats::Histogram queueWaitHist;
    stats::Histogram serviceHist;
    stats::Histogram endToEndHist;
    double queueWaitMax = 0.0;
    double serviceMax = 0.0;
    double endToEndMax = 0.0;
    uint64_t batchCount = 0;
    uint64_t questionCount = 0;
    std::vector<RpcShardCounters> rpcShardCounters;
    uint64_t partialAnswerCount = 0;
    uint64_t failedBatchCount = 0;
    ScanCounters scanCounters;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_LATENCY_RECORDER_HH
