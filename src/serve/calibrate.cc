#include "serve/calibrate.hh"

#include <algorithm>
#include <random>
#include <vector>

#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::serve {

namespace {

/** Median service time of `repeats` inferBatch calls at batch `nq`. */
double
medianSeconds(core::InferenceEngine &engine, const float *u, size_t nq,
              float *o, size_t repeats)
{
    // One untimed call: faults in the KB pages for this sweep pattern
    // and lets the engine's scratch grow to steady state, so
    // the timed repetitions measure the serving loop, not first-touch.
    engine.inferBatch(u, nq, o);

    std::vector<double> samples(repeats);
    Timer timer;
    for (double &s : samples) {
        timer.reset();
        engine.inferBatch(u, nq, o);
        s = timer.seconds();
    }
    std::nth_element(samples.begin(),
                     samples.begin() + samples.size() / 2, samples.end());
    return samples[samples.size() / 2];
}

} // namespace

ServiceTimeFit
calibrateServiceTimes(core::InferenceEngine &engine, size_t ed,
                      size_t smallBatch, size_t largeBatch,
                      size_t repeats, uint64_t seed)
{
    mnn_assert(smallBatch >= 1 && largeBatch > smallBatch,
               "calibration needs two distinct batch sizes");
    mnn_assert(repeats >= 1, "calibration needs at least one repeat");

    std::vector<float> u(largeBatch * ed);
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> dist(-1.f, 1.f);
    for (float &v : u)
        v = dist(rng);
    std::vector<float> o(largeBatch * ed);

    ServiceTimeFit fit;
    fit.smallBatch = smallBatch;
    fit.largeBatch = largeBatch;
    fit.smallSeconds =
        medianSeconds(engine, u.data(), smallBatch, o.data(), repeats);
    fit.largeSeconds =
        medianSeconds(engine, u.data(), largeBatch, o.data(), repeats);

    // Two-point affine fit. Timing noise can make the line slope down
    // (strong amortization + jitter) or cross zero; clamp both
    // coefficients so the simulator always sees a valid service model.
    const double slope = (fit.largeSeconds - fit.smallSeconds)
                         / double(largeBatch - smallBatch);
    fit.perQuestionSeconds = std::max(0.0, slope);
    fit.batchBaseSeconds =
        std::max(0.0, fit.smallSeconds
                          - double(smallBatch) * fit.perQuestionSeconds);
    return fit;
}

} // namespace mnnfast::serve
