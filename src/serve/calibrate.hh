/**
 * @file
 * Calibration bridge from a measured engine to the serving simulator.
 *
 * The qa_server simulation is parameterized by the affine service-time
 * model t(n) = batchBaseSeconds + n * perQuestionSeconds. With the
 * query-blocked dataflow this model is structural, not a hand-wave:
 * the knowledge-base stream is paid once per batch (the base) and each
 * extra question adds only cache-resident arithmetic (the slope). This
 * helper measures a real engine at two batch sizes and fits the two
 * coefficients, so simulator studies (batching policy, worker count,
 * arrival rate) run against the machine actually being modelled.
 */

#ifndef MNNFAST_SERVE_CALIBRATE_HH
#define MNNFAST_SERVE_CALIBRATE_HH

#include <cstddef>
#include <cstdint>

#include "core/engine.hh"
#include "serve/qa_server.hh"

namespace mnnfast::serve {

/** A fitted affine service-time model plus the measurements behind it. */
struct ServiceTimeFit
{
    double batchBaseSeconds = 0.0;   ///< fitted t(0), clamped >= 0
    double perQuestionSeconds = 0.0; ///< fitted slope, clamped >= 0
    size_t smallBatch = 0;           ///< first measured batch size
    size_t largeBatch = 0;           ///< second measured batch size
    double smallSeconds = 0.0;       ///< median t(smallBatch)
    double largeSeconds = 0.0;       ///< median t(largeBatch)

    /** Install the fitted coefficients into a simulator config. */
    void
    apply(ServerConfig &cfg) const
    {
        cfg.batchBaseSeconds = batchBaseSeconds;
        cfg.perQuestionSeconds = perQuestionSeconds;
    }
};

/**
 * Measure `engine` at two batch sizes and fit the affine model.
 *
 * Question vectors are synthesized deterministically from `seed`; each
 * batch size is timed `repeats` times (after one untimed warm-up call
 * that also lets the engine's scratch reach steady state) and
 * the median is used, so one scheduling hiccup cannot skew the fit.
 * The slope is clamped to >= 0, and the base to >= 0 — on a machine
 * where amortization is so strong that t(large) < t(small) the fit
 * degrades gracefully instead of going negative.
 *
 * @param engine     Engine to measure (its KB defines the stream cost).
 * @param ed         Embedding dimension of the engine's KB.
 * @param smallBatch First batch size (>= 1).
 * @param largeBatch Second batch size (> smallBatch).
 * @param repeats    Timed repetitions per batch size (>= 1).
 * @param seed       Question-vector synthesis seed.
 */
ServiceTimeFit calibrateServiceTimes(core::InferenceEngine &engine,
                                     size_t ed, size_t smallBatch = 1,
                                     size_t largeBatch = 16,
                                     size_t repeats = 5,
                                     uint64_t seed = 1);

} // namespace mnnfast::serve

#endif // MNNFAST_SERVE_CALIBRATE_HH
