/**
 * @file
 * The serving-side contract for a pipelined batch execution backend —
 * the seam serve::LiveServer runs every mode through, and that lets
 * it dispatch through a remote cluster front end without the serve
 * library depending on net/.
 *
 * A BatchBackend executes question batches asynchronously with a
 * bounded in-flight window of pipelineDepth() batches:
 *
 *   submitBatch() hands over a batch and returns a ticket. A caller
 *   that keeps at most pipelineDepth() tickets outstanding never
 *   blocks here; LiveServer's credit rule does (live_server.hh).
 *
 *   waitBatch() blocks until the ticket's batch has settled and
 *   reports what happened; tickets MUST be waited in submission
 *   order (the window is a FIFO: completion order is delivery order,
 *   whatever order the shards answered in).
 *
 * Implementations: LiveServer's private in-process backend, a
 * serve::ScanBackend with one core::ScanRing per part of a chunk-
 * aligned partition of the KB (its S shards, or the replicated mode's
 * engine chunk groups) that each batch joins at its next chunk
 * (window 4), and net::ClusterFrontEnd, whose lossless path is
 * bit-identical to the scan over the same partition.
 * LiveServer's dispatch/retire loops are written against this
 * interface only.
 *
 * Joining the work in flight. A backend whose submitted batch joins
 * the work already in flight — shares one stream of the knowledge base
 * with every batch riding it, whenever it arrives — says so with
 * joinsInFlight(). The in-process scan does (its rings), and so does
 * net::ClusterFrontEnd (each shard node rides every request on one
 * ring). For such a backend, holding a batch back to collect riders
 * buys no sharing, only waiting, so LiveServer dispatches whatever is
 * queued as soon as it holds a window credit; a caller's backend that
 * streams the KB per batch keeps the batch timeout (live_server.hh).
 *
 * Threading contract: one thread submits, one thread waits — the two
 * may be (and in LiveServer are) different threads, overlapping the
 * scatter of batch k+1 with the gather of batch k.
 */

#ifndef MNNFAST_SERVE_BATCH_BACKEND_HH
#define MNNFAST_SERVE_BATCH_BACKEND_HH

#include <cstddef>
#include <cstdint>

#include "serve/latency_recorder.hh"

namespace mnnfast::serve {

/** Outcome of one batch. */
struct BatchResult
{
    /** Every shard contributed (bit-identity holds iff true). */
    bool complete = false;
    /** Shards merged into the answer; 0 means the batch failed and
     *  the output buffer was not written. */
    uint32_t shardsAnswered = 0;
    /** Bit s set = shard s contributed to the merged answer. */
    uint32_t shardMask = 0;
};

/** Asynchronous batch executor with a bounded window. See header. */
class BatchBackend
{
  public:
    virtual ~BatchBackend() = default;

    /**
     * Submit one batch: `u` (nq x ed questions, row-major) to be
     * answered into `o` (nq x ed). Both buffers must stay valid until
     * the returned ticket is waited. The caller keeps at most
     * pipelineDepth() tickets outstanding; a backend may block or
     * fail beyond that.
     */
    virtual uint64_t submitBatch(const float *u, size_t nq, size_t ed,
                                 float *o) = 0;

    /**
     * Block until `ticket`'s batch settled; `o` is written iff
     * shardsAnswered > 0. Tickets must be waited in submission order.
     */
    virtual BatchResult waitBatch(uint64_t ticket) = 0;

    /** The in-flight window size W (>= 1). */
    virtual size_t pipelineDepth() const = 0;

    /**
     * True when a submitted batch joins the work in flight, sharing
     * its knowledge-base stream whenever it arrives (see header); then
     * LiveServer dispatches on arrival instead of waiting out
     * batchTimeout. False — the default — for a backend that streams
     * the KB once per batch.
     */
    virtual bool joinsInFlight() const { return false; }

    /**
     * Fold the backend's *counters* — per-shard RPC counters, partial
     * answers, failed batches — into `acc` without touching its
     * histograms, so a serving layer can compose a snapshot from a
     * recorder of different histogram geometry. Thread-safe.
     */
    virtual void countersInto(LatencyRecorder &acc) const = 0;
};

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_BATCH_BACKEND_HH
