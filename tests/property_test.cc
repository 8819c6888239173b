/**
 * @file
 * Randomized property tests: the inference engines are fuzzed against
 * a double-precision reference across random shapes and
 * configurations, and the cache model is swept across geometries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/baseline_engine.hh"
#include "core/column_engine.hh"
#include "sim/cache_model.hh"
#include "util/bf16.hh"
#include "util/rng.hh"

namespace mnnfast {
namespace {

/** Double-precision stable reference for o = softmax(u M_IN^T) M_OUT. */
std::vector<float>
reference(const core::KnowledgeBase &kb, const float *u, size_t nq)
{
    const size_t ns = kb.size(), ed = kb.dim();
    std::vector<float> out(nq * ed, 0.f);
    std::vector<double> dots(ns);
    for (size_t q = 0; q < nq; ++q) {
        double m = -1e300;
        for (size_t i = 0; i < ns; ++i) {
            double d = 0.0;
            for (size_t e = 0; e < ed; ++e)
                d += double(u[q * ed + e]) * kb.minRow(i)[e];
            dots[i] = d;
            m = std::max(m, d);
        }
        double s = 0.0;
        for (size_t i = 0; i < ns; ++i)
            s += std::exp(dots[i] - m);
        for (size_t i = 0; i < ns; ++i) {
            const double w = std::exp(dots[i] - m) / s;
            for (size_t e = 0; e < ed; ++e)
                out[q * ed + e] +=
                    static_cast<float>(w * kb.moutRow(i)[e]);
        }
    }
    return out;
}

/** One fuzz iteration: random shape/config, all engines vs reference. */
void
fuzzOnce(uint64_t seed)
{
    XorShiftRng rng(seed);
    const size_t ns = 1 + rng.below(3000);
    const size_t ed = 1 + rng.below(64);
    const size_t nq = 1 + rng.below(6);
    const size_t chunk = 1 + rng.below(ns + 100);
    const size_t threads = rng.below(4);
    const float scale = rng.uniformRange(0.05f, 1.2f);

    core::KnowledgeBase kb(ed);
    kb.reserve(ns);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-scale, scale);
            b[e] = rng.uniformRange(-scale, scale);
        }
        kb.addSentence(a.data(), b.data());
    }
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-scale, scale);

    const auto ref = reference(kb, u.data(), nq);

    const std::string ctx = "seed=" + std::to_string(seed)
                          + " ns=" + std::to_string(ns)
                          + " ed=" + std::to_string(ed)
                          + " nq=" + std::to_string(nq)
                          + " chunk=" + std::to_string(chunk);

    // Baseline.
    {
        core::EngineConfig cfg;
        cfg.threads = threads;
        core::BaselineEngine engine(kb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_NEAR(o[i], ref[i], 2e-3) << ctx;
    }
    // Column variants (plain, streaming).
    for (int variant = 0; variant < 2; ++variant) {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = threads;
        cfg.streaming = variant == 1;
        core::ColumnEngine engine(kb, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_NEAR(o[i], ref[i], 2e-3)
                << ctx << " variant=" << variant;
    }
}

class EngineFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(EngineFuzz, AllEnginesMatchReference)
{
    fuzzOnce(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::Range<uint64_t>(1, 17));

// ---------------------------------------------------------------
// bf16 storage fuzz
// ---------------------------------------------------------------

/** reference() over the bf16-rounded rows (widening is exact). */
std::vector<float>
referenceBf16(const core::KnowledgeBase &kb, const float *u, size_t nq)
{
    const size_t ns = kb.size(), ed = kb.dim();
    std::vector<float> out(nq * ed, 0.f);
    std::vector<double> dots(ns);
    for (size_t q = 0; q < nq; ++q) {
        double m = -1e300;
        for (size_t i = 0; i < ns; ++i) {
            double d = 0.0;
            for (size_t e = 0; e < ed; ++e)
                d += double(u[q * ed + e])
                   * double(bf16ToFloat(kb.minRow16(i)[e]));
            dots[i] = d;
            m = std::max(m, d);
        }
        double s = 0.0;
        for (size_t i = 0; i < ns; ++i)
            s += std::exp(dots[i] - m);
        for (size_t i = 0; i < ns; ++i) {
            const double w = std::exp(dots[i] - m) / s;
            for (size_t e = 0; e < ed; ++e)
                out[q * ed + e] += static_cast<float>(
                    w * double(bf16ToFloat(kb.moutRow16(i)[e])));
        }
    }
    return out;
}

/**
 * One bf16 fuzz iteration. Two properties:
 *  1. Exactness: against the double reference over the *rounded*
 *    storage, the bf16 engines are ordinary fp32 pipelines, so the
 *    fp32 fuzz tolerance applies unchanged.
 *  2. Deviation: against the fp32 engine on the unrounded KB the
 *    outputs drift by the storage rounding only. Each dot moves by
 *    at most ~ed * scale^2 * 2^-8 and each stored M_OUT element by
 *    2^-8 relative, so with the scales kept moderate here the
 *    softmax reweighting stays in the linear regime and the output
 *    deviation is well under 0.1 * scale + the dot-shift term.
 */
void
fuzzBf16Once(uint64_t seed)
{
    XorShiftRng rng(seed);
    const size_t ns = 1 + rng.below(3000);
    const size_t ed = 1 + rng.below(64);
    const size_t nq = 1 + rng.below(6);
    const size_t chunk = 1 + rng.below(ns + 100);
    const size_t threads = rng.below(4);
    const float scale = rng.uniformRange(0.05f, 0.4f);

    core::KnowledgeBase kb32(ed);
    core::KnowledgeBase kb16(ed, core::Precision::BF16);
    kb32.reserve(ns);
    kb16.reserve(ns);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-scale, scale);
            b[e] = rng.uniformRange(-scale, scale);
        }
        kb32.addSentence(a.data(), b.data());
        kb16.addSentence(a.data(), b.data());
    }
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-scale, scale);

    const std::string ctx = "seed=" + std::to_string(seed)
                          + " ns=" + std::to_string(ns)
                          + " ed=" + std::to_string(ed)
                          + " nq=" + std::to_string(nq)
                          + " chunk=" + std::to_string(chunk)
                          + " scale=" + std::to_string(scale);

    // 1. Exactness vs the rounded-storage reference.
    const auto ref16 = referenceBf16(kb16, u.data(), nq);
    {
        core::EngineConfig cfg;
        cfg.threads = threads;
        core::BaselineEngine engine(kb16, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_NEAR(o[i], ref16[i], 2e-3) << ctx << " baseline";
    }
    {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = threads;
        cfg.streaming = true;
        core::ColumnEngine engine(kb16, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_NEAR(o[i], ref16[i], 2e-3) << ctx << " column";
    }

    // 2. Deviation vs the fp32 engine, zero-skipping off and on.
    const double dot_shift =
        double(ed) * double(scale) * double(scale) * 0x1p-8;
    const double bound = 0.1 * double(scale) + 2.0 * dot_shift + 1e-3;
    for (float threshold : {0.0f, 1e-3f}) {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = threads;
        cfg.skipThreshold = threshold;
        core::ColumnEngine e32(kb32, cfg);
        core::ColumnEngine e16(kb16, cfg);
        std::vector<float> o32(nq * ed), o16(nq * ed);
        e32.inferBatch(u.data(), nq, o32.data());
        e16.inferBatch(u.data(), nq, o16.data());
        for (size_t i = 0; i < o32.size(); ++i)
            ASSERT_NEAR(o32[i], o16[i], bound)
                << ctx << " th=" << threshold;
    }
}

class Bf16EngineFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(Bf16EngineFuzz, MatchesRoundedReferenceAndBoundsDeviation)
{
    fuzzBf16Once(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Bf16EngineFuzz,
                         ::testing::Range<uint64_t>(101, 113));

// ---------------------------------------------------------------
// int8 engine fuzz
// ---------------------------------------------------------------

/** Double-precision reference over the *dequantized* i8 storage. */
std::vector<float>
referenceI8(const core::KnowledgeBase &kb, const float *u, size_t nq)
{
    const size_t ns = kb.size();
    const size_t ed = kb.dim();
    std::vector<float> out(nq * ed, 0.f);
    std::vector<double> dots(ns);
    for (size_t q = 0; q < nq; ++q) {
        double m = -std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < ns; ++i) {
            double d = 0.0;
            const double s = kb.minScale(i), z = kb.minZero(i);
            for (size_t e = 0; e < ed; ++e)
                d += double(u[q * ed + e])
                   * (s * kb.minRow8(i)[e] + z);
            dots[i] = d;
            m = std::max(m, d);
        }
        double s = 0.0;
        for (size_t i = 0; i < ns; ++i)
            s += std::exp(dots[i] - m);
        for (size_t i = 0; i < ns; ++i) {
            const double w = std::exp(dots[i] - m) / s;
            const double os = kb.moutScale(i), oz = kb.moutZero(i);
            for (size_t e = 0; e < ed; ++e)
                out[q * ed + e] += static_cast<float>(
                    w * (os * kb.moutRow8(i)[e] + oz));
        }
    }
    return out;
}

/**
 * One i8 fuzz iteration, mirroring the bf16 fuzz. Two properties:
 *  1. Exactness: against the double reference over the *dequantized*
 *     storage, the i8 engines are ordinary fp32 pipelines.
 *  2. Deviation: against the fp32 engine on the unquantized KB the
 *     outputs drift by the quantization error only. With per-chunk
 *     range [lo, hi] within [-scale, scale], each dequantized element
 *     errs by at most scale_q/2 = (hi-lo)/510 <= scale/255 — i.e. the
 *     same ~2^-8 relative error as bf16 storage at these magnitudes —
 *     so the analytic bound from the bf16 fuzz transfers unchanged:
 *     each dot moves by <= ed * scale * (scale * 2^-8) and the output
 *     deviation stays under 0.1 * scale + 2 * dot_shift + 1e-3
 *     (DESIGN.md §10 derives the per-element bound).
 */
void
fuzzI8Once(uint64_t seed)
{
    XorShiftRng rng(seed);
    const size_t ns = 1 + rng.below(3000);
    const size_t ed = 1 + rng.below(64);
    const size_t nq = 1 + rng.below(6);
    const size_t chunk = 1 + rng.below(ns + 100);
    const size_t qchunk = 1 + rng.below(1200);
    const size_t threads = rng.below(4);
    const float scale = rng.uniformRange(0.05f, 0.4f);

    core::KnowledgeBase kb32(ed);
    core::KnowledgeBase kb8(ed, core::Precision::I8, qchunk);
    kb32.reserve(ns);
    kb8.reserve(ns);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-scale, scale);
            b[e] = rng.uniformRange(-scale, scale);
        }
        kb32.addSentence(a.data(), b.data());
        kb8.addSentence(a.data(), b.data());
    }
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-scale, scale);

    const std::string ctx = "seed=" + std::to_string(seed)
                          + " ns=" + std::to_string(ns)
                          + " ed=" + std::to_string(ed)
                          + " nq=" + std::to_string(nq)
                          + " chunk=" + std::to_string(chunk)
                          + " qchunk=" + std::to_string(qchunk)
                          + " scale=" + std::to_string(scale);

    // 1. Exactness vs the dequantized-storage reference.
    const auto ref8 = referenceI8(kb8, u.data(), nq);
    {
        core::EngineConfig cfg;
        cfg.threads = threads;
        core::BaselineEngine engine(kb8, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_NEAR(o[i], ref8[i], 2e-3) << ctx << " baseline";
    }
    {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = threads;
        cfg.streaming = true;
        core::ColumnEngine engine(kb8, cfg);
        std::vector<float> o(nq * ed);
        engine.inferBatch(u.data(), nq, o.data());
        for (size_t i = 0; i < o.size(); ++i)
            ASSERT_NEAR(o[i], ref8[i], 2e-3) << ctx << " column";
    }

    // 2. Deviation vs the fp32 engine, zero-skipping off and on.
    const double dot_shift =
        double(ed) * double(scale) * double(scale) * 0x1p-8;
    const double bound = 0.1 * double(scale) + 2.0 * dot_shift + 1e-3;
    for (float threshold : {0.0f, 1e-3f}) {
        core::EngineConfig cfg;
        cfg.chunkSize = chunk;
        cfg.threads = threads;
        cfg.skipThreshold = threshold;
        core::ColumnEngine e32(kb32, cfg);
        core::ColumnEngine e8(kb8, cfg);
        std::vector<float> o32(nq * ed), o8(nq * ed);
        e32.inferBatch(u.data(), nq, o32.data());
        e8.inferBatch(u.data(), nq, o8.data());
        for (size_t i = 0; i < o32.size(); ++i)
            ASSERT_NEAR(o32[i], o8[i], bound)
                << ctx << " th=" << threshold;
    }
}

class I8EngineFuzz : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(I8EngineFuzz, MatchesDequantizedReferenceAndBoundsDeviation)
{
    fuzzI8Once(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, I8EngineFuzz,
                         ::testing::Range<uint64_t>(201, 213));

// ---------------------------------------------------------------
// Cache model geometry sweep
// ---------------------------------------------------------------

struct CacheGeometry
{
    size_t sizeKb;
    size_t assoc;
};

class CacheSweep : public ::testing::TestWithParam<CacheGeometry>
{};

TEST_P(CacheSweep, ResidentWorkingSetAlwaysHits)
{
    const auto [size_kb, assoc] = GetParam();
    sim::CacheConfig cfg;
    cfg.sizeBytes = size_kb << 10;
    cfg.associativity = assoc;
    sim::CacheModel cache(cfg);

    // Walk a working set of exactly the cache capacity twice; the
    // second pass must be all hits under LRU with a cyclic pattern
    // that maps uniformly over sets.
    const uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t l = 0; l < lines; ++l)
            cache.access(l * cfg.lineBytes);
    EXPECT_EQ(cache.misses(), lines);
    EXPECT_EQ(cache.hits(), lines);
}

TEST_P(CacheSweep, HitRateDegradesGracefullyPastCapacity)
{
    const auto [size_kb, assoc] = GetParam();
    sim::CacheConfig cfg;
    cfg.sizeBytes = size_kb << 10;
    cfg.associativity = assoc;

    // Cyclic overflow (2x capacity) thrashes true LRU completely.
    sim::CacheModel over(cfg);
    const uint64_t lines = 2 * cfg.sizeBytes / cfg.lineBytes;
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t l = 0; l < lines; ++l)
            over.access(l * cfg.lineBytes);
    EXPECT_EQ(over.hits(), 0u);
}

TEST_P(CacheSweep, RandomAccessHitRateMatchesCapacityRatio)
{
    const auto [size_kb, assoc] = GetParam();
    sim::CacheConfig cfg;
    cfg.sizeBytes = size_kb << 10;
    cfg.associativity = assoc;
    sim::CacheModel cache(cfg);

    // Uniform random lines over a 4x-capacity footprint: steady-state
    // hit rate approaches capacity / footprint = 25%.
    const uint64_t footprint_lines = 4 * cfg.sizeBytes / cfg.lineBytes;
    XorShiftRng rng(size_kb * 131 + assoc);
    for (int i = 0; i < 60000; ++i)
        cache.access(rng.below(footprint_lines) * cfg.lineBytes);

    cache.counters().resetAll();
    for (int i = 0; i < 60000; ++i)
        cache.access(rng.below(footprint_lines) * cfg.lineBytes);
    const double hr = double(cache.hits())
                    / double(cache.hits() + cache.misses());
    EXPECT_NEAR(hr, 0.25, 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSweep,
    ::testing::Values(CacheGeometry{64, 4}, CacheGeometry{64, 16},
                      CacheGeometry{256, 8}, CacheGeometry{1024, 16},
                      CacheGeometry{512, 1}),
    [](const ::testing::TestParamInfo<CacheGeometry> &info) {
        return std::to_string(info.param.sizeKb) + "KB_"
             + std::to_string(info.param.assoc) + "way";
    });

} // namespace
} // namespace mnnfast
