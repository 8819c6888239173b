/**
 * @file
 * Layer probes for the traced run's waterfall: the host read-bandwidth
 * ceiling, direct calls to the fused blas kernels over a KB's rows,
 * and the wire codecs. Each returns rates or per-call times; none
 * touches a serving layer.
 */

#ifndef SERVEBENCH_PROBES_HH
#define SERVEBENCH_PROBES_HH

#include <cstddef>
#include <cstdint>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"

namespace servebench {

/** Median GB/s of STREAM-style read passes over a `bytes` buffer
 *  split across `threads` threads. */
double readBandwidthGbps(size_t bytes, size_t threads);

/** Direct fused-kernel sweeps over every row of a KB. */
struct BlasSweep
{
    double dotGbps = 0.0;   ///< M_IN bytes / dotBatchMulti* sweep time
    double wsumGbps = 0.0;  ///< M_OUT bytes / weightedSumSkipMulti*
                            ///< sweep time, threshold 0 (every row)
    double boundGbps = 0.0; ///< envelope bytes / chunkBoundBatch time
    /** dot + exp + zero-skip weighted sum at the served threshold:
     *  the kernels alone, per batch, in seconds. */
    double batchSeconds = 0.0;
};

/**
 * Sweep `kb` with the precision's kernels for one batch `u` of `nq`
 * questions, rows split across `threads` threads in contiguous
 * slices. Each phase is repeated and its median taken.
 */
BlasSweep blasSweep(const mnnfast::core::KnowledgeBase &kb,
                    const float *u, size_t nq, size_t threads,
                    float skip, size_t chunk);

/** Wire codec cost per shard-batch (request + response). */
struct WireCost
{
    double encodeUs = 0.0; ///< encodeScatterRequest/PartialResponse
                           ///< + encodeFrame, both directions
    double decodeUs = 0.0; ///< decodeFrame + typed decode, both
    size_t bytes = 0;      ///< framed request + response bytes
};

WireCost wireCost(const float *u, size_t nq, size_t ed,
                  const mnnfast::core::StreamPartial &partial);

} // namespace servebench

#endif // SERVEBENCH_PROBES_HH
