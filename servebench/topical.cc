#include "topical.hh"

#include <algorithm>
#include <cmath>

#include "data/zipf.hh"
#include "util/rng.hh"

namespace servebench {

namespace {

// Centroid and noise amplitudes (uniform +-a, so std = a / sqrt(3)).
// With ed = 128 a same-topic logit is ~15 +- 1.5 and a cross-topic one
// ~0 +- 1.5: peaked attention, far from exp overflow.
constexpr float kCentroidAmp = 0.6f;
constexpr float kRowNoiseAmp = 0.6f;
constexpr float kOutAmp = 0.5f;
constexpr float kQuestionNoiseAmp = 0.3f;
constexpr double kTopicSkew = 1.1;

/** Stateless per-index stream: splitmix64 of (seed, index). */
uint64_t
mix(uint64_t seed, uint64_t i)
{
    uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Uniform float in [-amp, amp) from 24 high bits. */
float
symmetric(mnnfast::XorShiftRng &rng, float amp)
{
    const float unit =
        static_cast<float>(rng.next() >> 40) * 0x1.0p-24f; // [0, 1)
    return (2.f * unit - 1.f) * amp;
}

} // namespace

TopicalGenerator::TopicalGenerator(uint64_t seed_, size_t sentences,
                                   size_t dim, size_t chunk,
                                   size_t topics)
    : seed(seed_), ed(dim), centroids(topics * dim)
{
    mnnfast::XorShiftRng rng(mix(seed, 0xC0FFEE));
    for (float &c : centroids)
        c = symmetric(rng, kCentroidAmp);
    // Story order: runs of 1.5 to 4 chunks, topics drawn uniformly.
    for (size_t row = 0; row < sentences;) {
        runStart.push_back(row);
        runTopic.push_back(static_cast<uint32_t>(rng.below(topics)));
        const double chunks = 1.5 + 2.5 * rng.uniform();
        row += std::max<size_t>(1, static_cast<size_t>(chunks * chunk));
    }
}

uint32_t
TopicalGenerator::rowTopic(size_t i) const
{
    const auto it =
        std::upper_bound(runStart.begin(), runStart.end(), i);
    return runTopic[static_cast<size_t>(it - runStart.begin()) - 1];
}

void
TopicalGenerator::rows(size_t begin, size_t n, float *min,
                       float *mout) const
{
    for (size_t r = 0; r < n; ++r) {
        const size_t i = begin + r;
        const float *c = centroids.data() + rowTopic(i) * ed;
        mnnfast::XorShiftRng rng(mix(seed, i + 1));
        float *a = min + r * ed;
        float *b = mout + r * ed;
        for (size_t e = 0; e < ed; ++e)
            a[e] = c[e] + symmetric(rng, kRowNoiseAmp);
        for (size_t e = 0; e < ed; ++e)
            b[e] = symmetric(rng, kOutAmp);
    }
}

std::vector<float>
TopicalGenerator::questions(size_t n) const
{
    const size_t topics = centroids.size() / ed;
    mnnfast::data::ZipfGenerator zipf(topics, kTopicSkew,
                                      mix(seed, 0x51));
    mnnfast::XorShiftRng rng(mix(seed, 0x52));
    std::vector<float> u(n * ed);
    for (size_t q = 0; q < n; ++q) {
        const float *c = centroids.data() + zipf.sample() * ed;
        for (size_t e = 0; e < ed; ++e)
            u[q * ed + e] = c[e] + symmetric(rng, kQuestionNoiseAmp);
    }
    return u;
}

std::vector<double>
poissonSchedule(uint64_t seed, double rate, double seconds)
{
    mnnfast::XorShiftRng rng(mix(seed, 0xA77));
    std::vector<double> at;
    double t = 0.0;
    for (;;) {
        double u = 0.0;
        while (u == 0.0)
            u = rng.uniform();
        t += -std::log(u) / rate;
        if (t >= seconds)
            return at;
        at.push_back(t);
    }
}

} // namespace servebench
