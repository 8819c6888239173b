/**
 * @file
 * Unit and property tests for src/blas against naive references,
 * parameterized across sizes including non-multiples of the unroll
 * and blocking factors.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "blas/exact_fma.hh"
#include "blas/kernels.hh"
#include "blas/kernels_detail.hh" // the tier tables, for tier-vs-tier tests
#include "util/bf16.hh"
#include "util/rng.hh"

namespace mnnfast::blas {
namespace {

std::vector<float>
randomVec(size_t n, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.uniformRange(-1.0f, 1.0f);
    return v;
}

float
naiveDot(const std::vector<float> &x, const std::vector<float> &y)
{
    double acc = 0.0;
    for (size_t i = 0; i < x.size(); ++i)
        acc += double(x[i]) * y[i];
    return static_cast<float>(acc);
}

class KernelSizes : public ::testing::TestWithParam<size_t>
{};

TEST_P(KernelSizes, DotMatchesNaive)
{
    const size_t n = GetParam();
    const auto x = randomVec(n, 1), y = randomVec(n, 2);
    EXPECT_NEAR(dot(x.data(), y.data(), n), naiveDot(x, y),
                1e-4 * std::max<size_t>(n, 1));
}

TEST_P(KernelSizes, AxpyMatchesNaive)
{
    const size_t n = GetParam();
    const auto x = randomVec(n, 3);
    auto y = randomVec(n, 4);
    auto expected = y;
    for (size_t i = 0; i < n; ++i)
        expected[i] += 2.5f * x[i];
    axpy(2.5f, x.data(), y.data(), n);
    // Tolerance scaled by the term magnitudes, not the result: the
    // FMA path single-rounds a*x + y, so when the terms nearly cancel
    // the two roundings differ by ~ulp(a*x), far above ulp(result).
    for (size_t i = 0; i < n; ++i) {
        const float mag =
            std::abs(2.5f * x[i]) + std::abs(expected[i] - 2.5f * x[i]);
        ASSERT_NEAR(y[i], expected[i], 1e-6f * mag + 1e-7f);
    }
}

TEST_P(KernelSizes, ScalScales)
{
    const size_t n = GetParam();
    auto x = randomVec(n, 5);
    const auto orig = x;
    scal(-3.0f, x.data(), n);
    for (size_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(x[i], -3.0f * orig[i]);
}

TEST_P(KernelSizes, SumMatchesNaive)
{
    const size_t n = GetParam();
    const auto x = randomVec(n, 6);
    double expected = 0.0;
    for (float v : x)
        expected += v;
    EXPECT_NEAR(sum(x.data(), n), expected,
                1e-4 * std::max<size_t>(n, 1));
}

TEST_P(KernelSizes, ZeroAndCopy)
{
    const size_t n = GetParam();
    auto x = randomVec(n, 7);
    std::vector<float> y(n, -1.0f);
    copy(x.data(), y.data(), n);
    EXPECT_EQ(x, y);
    zero(x.data(), n);
    for (float v : x)
        ASSERT_EQ(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelSizes,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 15,
                                           16, 17, 48, 100, 255, 1024));

TEST(MaxElement, FindsMaximum)
{
    std::vector<float> v = {-5.f, 2.f, 7.f, 7.f, -1.f};
    EXPECT_FLOAT_EQ(maxElement(v.data(), v.size()), 7.f);
}

TEST(MaxElement, SingleElement)
{
    float v = -3.f;
    EXPECT_FLOAT_EQ(maxElement(&v, 1), -3.f);
}

TEST(MaxElement, EmptyPanics)
{
    float v = 0.f;
    EXPECT_DEATH(maxElement(&v, 0), "maxElement");
}

struct GemvDims
{
    size_t rows;
    size_t cols;
};

class GemvTest : public ::testing::TestWithParam<GemvDims>
{};

TEST_P(GemvTest, MatchesNaive)
{
    const auto [rows, cols] = GetParam();
    const auto a = randomVec(rows * cols, 11);
    const auto x = randomVec(cols, 12);
    std::vector<float> y(rows, -9.f);
    gemv(a.data(), rows, cols, x.data(), y.data());
    for (size_t r = 0; r < rows; ++r) {
        double ref = 0.0;
        for (size_t c = 0; c < cols; ++c)
            ref += double(a[r * cols + c]) * x[c];
        ASSERT_NEAR(y[r], ref, 1e-3) << "row " << r;
    }
}

TEST_P(GemvTest, TransposedMatchesNaive)
{
    const auto [rows, cols] = GetParam();
    const auto a = randomVec(rows * cols, 13);
    const auto x = randomVec(rows, 14);
    std::vector<float> y(cols, -9.f);
    gemvT(a.data(), rows, cols, x.data(), y.data());
    for (size_t c = 0; c < cols; ++c) {
        double ref = 0.0;
        for (size_t r = 0; r < rows; ++r)
            ref += double(a[r * cols + c]) * x[r];
        ASSERT_NEAR(y[c], ref, 1e-3) << "col " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Dims, GemvTest,
    ::testing::Values(GemvDims{1, 1}, GemvDims{3, 5}, GemvDims{5, 3},
                      GemvDims{16, 16}, GemvDims{33, 48},
                      GemvDims{100, 7}));

struct GemmDims
{
    size_t m, k, n;
};

class GemmTest : public ::testing::TestWithParam<GemmDims>
{};

TEST_P(GemmTest, MatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const auto a = randomVec(m * k, 21);
    const auto b = randomVec(k * n, 22);
    std::vector<float> c(m * n, 99.f);
    gemm(a.data(), b.data(), c.data(), m, k, n);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (size_t p = 0; p < k; ++p)
                ref += double(a[i * k + p]) * b[p * n + j];
            ASSERT_NEAR(c[i * n + j], ref, 1e-3)
                << "(" << i << "," << j << ")";
        }
    }
}

TEST_P(GemmTest, AccumulateAddsOntoC)
{
    const auto [m, k, n] = GetParam();
    const auto a = randomVec(m * k, 23);
    const auto b = randomVec(k * n, 24);
    std::vector<float> c0(m * n, 0.f);
    gemm(a.data(), b.data(), c0.data(), m, k, n);
    std::vector<float> c1(m * n, 1.f);
    gemm(a.data(), b.data(), c1.data(), m, k, n, true);
    for (size_t i = 0; i < m * n; ++i)
        ASSERT_NEAR(c1[i], c0[i] + 1.f, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, GemmTest,
    ::testing::Values(GemmDims{1, 1, 1}, GemmDims{4, 4, 4},
                      GemmDims{5, 7, 3}, GemmDims{8, 300, 16},
                      GemmDims{9, 257, 5}, GemmDims{16, 48, 32}));

TEST(Softmax, SumsToOne)
{
    auto x = randomVec(100, 31);
    softmax(x.data(), x.size());
    EXPECT_NEAR(sum(x.data(), x.size()), 1.0f, 1e-5);
    for (float v : x)
        ASSERT_GT(v, 0.0f);
}

TEST(Softmax, StableForLargeLogits)
{
    std::vector<float> x = {1000.f, 1001.f, 999.f};
    softmax(x.data(), x.size());
    EXPECT_NEAR(sum(x.data(), x.size()), 1.0f, 1e-5);
    EXPECT_GT(x[1], x[0]);
    EXPECT_GT(x[0], x[2]);
}

TEST(Softmax, UniformInputGivesUniformOutput)
{
    std::vector<float> x(10, 0.3f);
    softmax(x.data(), x.size());
    for (float v : x)
        ASSERT_NEAR(v, 0.1f, 1e-6);
}

TEST(Softmax, EmptyIsNoOp)
{
    softmax(nullptr, 0);
    SUCCEED();
}

TEST(Softmax, OrderPreserving)
{
    std::vector<float> x = {0.1f, 2.0f, -1.0f, 0.5f};
    softmax(x.data(), x.size());
    EXPECT_GT(x[1], x[3]);
    EXPECT_GT(x[3], x[0]);
    EXPECT_GT(x[0], x[2]);
}

TEST(ExpInplace, MatchesStdExp)
{
    auto x = randomVec(33, 41);
    const auto orig = x;
    expInplace(x.data(), x.size());
    // The vectorized exponential is accurate to ~2 ulp, not
    // bit-identical to libm.
    for (size_t i = 0; i < x.size(); ++i) {
        const float ref = std::exp(orig[i]);
        ASSERT_NEAR(x[i], ref, 2e-6f * ref);
    }
}

TEST(Dispatch, BackendNameMatchesSimdFlag)
{
    // The exact tier CPUID allows, lowered (never raised) by the
    // MNNFAST_KERNELS cap.
    const char *cap = std::getenv("MNNFAST_KERNELS");
    const std::string c = cap ? cap : "";
    std::string want = "scalar";
#if defined(__x86_64__)
    const bool avx2 =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("avx512vl") &&
                        __builtin_cpu_supports("avx512bw") &&
                        __builtin_cpu_supports("avx512dq");
    if (avx512 && (c.empty() || c == "avx512"))
        want = "avx512";
    else if (avx2 && c != "scalar")
        want = "avx2";
#endif
    EXPECT_EQ(kernelBackendName(), want) << "MNNFAST_KERNELS=" << c;
    EXPECT_EQ(simdActive(), want != "scalar");
}

// ---------------------------------------------------------------------
// exactFma: the scalar backend's inline fma must give std::fma's bits.
// ---------------------------------------------------------------------

float
bitsToFloat(uint32_t b)
{
    float f;
    std::memcpy(&f, &b, sizeof f);
    return f;
}

/** Same bits, or both NaN (NaN payloads are not part of the contract). */
::testing::AssertionResult
sameFloat(float got, float want)
{
    uint32_t g, w;
    std::memcpy(&g, &got, sizeof g);
    std::memcpy(&w, &want, sizeof w);
    if (g == w || (std::isnan(got) && std::isnan(want)))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << std::hexfloat << got << " != " << want;
}

TEST(ExactFma, MatchesStdFmaOnRandomInputs)
{
    XorShiftRng rng(2024);
    for (int i = 0; i < 400000; ++i) {
        // Random bit patterns reach every exponent, subnormals, inf
        // and NaN; the second triple cancels a*b against c, where a
        // double-rounded sum would go wrong.
        const float a = bitsToFloat(static_cast<uint32_t>(rng.next()));
        const float b = bitsToFloat(static_cast<uint32_t>(rng.next()));
        const float c = bitsToFloat(static_cast<uint32_t>(rng.next()));
        ASSERT_TRUE(sameFloat(exactFma(a, b, c), std::fma(a, b, c)))
            << std::hexfloat << a << " " << b << " " << c;
        const float x = rng.uniformRange(-4.f, 4.f);
        const float y = rng.uniformRange(-4.f, 4.f);
        const float z = -(x * y) * (1.f + rng.uniformRange(-1e-6f, 1e-6f));
        ASSERT_TRUE(sameFloat(exactFma(x, y, z), std::fma(x, y, z)))
            << std::hexfloat << x << " " << y << " " << z;
    }
}

TEST(ExactFma, MatchesStdFmaOnEdgeCases)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float big = std::numeric_limits<float>::max();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float one12 = 1.f + 0x1p-12f; // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24
    const float cases[][3] = {
        // Signed zeros.
        {0.f, 0.f, -0.f}, {-0.f, 0.f, -0.f}, {-1.f, 0.f, 0.f},
        {-1.f, 0.f, -0.f}, {3.f, 2.f, -6.f}, {-3.f, 2.f, 6.f},
        // Halfway ties, exact and broken by a far-away c (the case a
        // plain double sum rounds twice and gets wrong).
        {one12, one12, 0.f}, {one12, one12, 0x1p-60f},
        {one12, one12, -0x1p-60f}, {-one12, one12, 0x1p-60f},
        {1.f + 0x1p-23f, 1.f + 0x1p-23f, 0x1p-70f},
        // Subnormal results: a tie at half the smallest subnormal,
        // and rounding up to it.
        {0x1p-75f, 0x1p-75f, 0.f}, {0x1p-75f, 0x1.8p-75f, 0.f},
        {tiny, 0.5f, 0.f}, {tiny, 1.5f, tiny}, {tiny, -1.f, tiny},
        {0x1p-70f, 0x1p-70f, -tiny},
        // Overflow: a tie at FLT_MAX + half an ulp goes to infinity,
        // just below it stays finite.
        {big, 1.f, big}, {big, 2.f, -big}, {big, 1.f, 0x1p103f},
        {big, 1.f, 0x1.fffffep102f}, {-big, 1.f, -0x1p103f},
        {big, big, -inf},
        // Infinities and NaNs in every position.
        {inf, 0.f, 1.f}, {inf, 1.f, -inf}, {inf, 2.f, 1.f},
        {1.f, 1.f, inf}, {-inf, -inf, 1.f}, {nan, 1.f, 1.f},
        {1.f, nan, 1.f}, {1.f, 1.f, nan}, {0.f, inf, nan},
    };
    for (const auto &t : cases)
        EXPECT_TRUE(
            sameFloat(exactFma(t[0], t[1], t[2]), std::fma(t[0], t[1], t[2])))
            << std::hexfloat << t[0] << " " << t[1] << " " << t[2];
}

// ---------------------------------------------------------------------
// SIMD-vs-scalar property tests. Every dispatched kernel is compared
// against the portable reference in blas::scalar across sizes spanning
// 0..1025 (odd lengths, non-multiples of every vector width and unroll
// factor), unaligned base offsets, and inputs including negatives and
// denormals. On hosts where dispatch resolves to the scalar table the
// comparison is trivially exact — the suite then simply pins the
// scalar path's behaviour.
// ---------------------------------------------------------------------

/** Sizes crossing all vector-width and unroll boundaries. */
const size_t kSweepSizes[] = {0,   1,   2,   3,   5,   7,    8,    9,
                              15,  16,  17,  31,  32,  33,   63,   64,
                              65,  100, 127, 128, 129, 255,  256,  257,
                              511, 512, 513, 999, 1000, 1023, 1024, 1025};

/** Base offsets 0..3 break 32-byte (and 16-byte) alignment. */
constexpr size_t kMaxOffset = 4;

/**
 * A vector with a deliberately nasty value mix: the usual [-1, 1)
 * range plus interspersed negatives, exact zeros, denormals, and
 * sign flips, padded by `pad` so callers can slide the base pointer.
 */
std::vector<float>
nastyVec(size_t n, uint64_t seed, size_t pad = kMaxOffset)
{
    XorShiftRng rng(seed);
    std::vector<float> v(n + pad);
    for (size_t i = 0; i < v.size(); ++i) {
        float x = rng.uniformRange(-1.0f, 1.0f);
        switch (i % 7) {
        case 3:
            x = 0.0f;
            break;
        case 5:
            x = (x < 0 ? -1.f : 1.f) * 1.1754944e-38f * 0.5f; // denormal
            break;
        default:
            break;
        }
        v[i] = x;
    }
    return v;
}

class SimdVsScalar : public ::testing::TestWithParam<size_t>
{};

TEST_P(SimdVsScalar, Dot)
{
    const size_t n = GetParam();
    const auto x = nastyVec(n, 101), y = nastyVec(n, 102);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        const float got = dot(x.data() + off, y.data() + off, n);
        const float ref = scalar::dot(x.data() + off, y.data() + off, n);
        ASSERT_NEAR(got, ref, 1e-5f * std::max<float>(n, 1.f))
            << "n=" << n << " off=" << off;
    }
}

TEST_P(SimdVsScalar, Axpy)
{
    const size_t n = GetParam();
    const auto x = nastyVec(n, 103);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto y1 = nastyVec(n, 104);
        auto y2 = y1;
        axpy(-1.7f, x.data() + off, y1.data() + off, n);
        scalar::axpy(-1.7f, x.data() + off, y2.data() + off, n);
        for (size_t i = 0; i < n + kMaxOffset; ++i) {
            if (i < off || i >= off + n) {
                ASSERT_EQ(y1[i], y2[i]) // outside the span: untouched
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            const float term = std::abs(1.7f * x[i - off]);
            ASSERT_NEAR(y1[i], y2[i],
                        1e-6f * (term + std::abs(y2[i])) + 1e-7f)
                << "n=" << n << " off=" << off << " i=" << i;
        }
    }
}

TEST_P(SimdVsScalar, Scal)
{
    const size_t n = GetParam();
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x1 = nastyVec(n, 105);
        auto x2 = x1;
        scal(0.731f, x1.data() + off, n);
        scalar::scal(0.731f, x2.data() + off, n);
        for (size_t i = 0; i < n + kMaxOffset; ++i)
            ASSERT_EQ(x1[i], x2[i]) // one rounding each: bit-identical
                << "n=" << n << " off=" << off << " i=" << i;
    }
}

TEST_P(SimdVsScalar, Sum)
{
    const size_t n = GetParam();
    const auto x = nastyVec(n, 106);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        ASSERT_NEAR(sum(x.data() + off, n), scalar::sum(x.data() + off, n),
                    1e-5f * std::max<float>(n, 1.f))
            << "n=" << n << " off=" << off;
    }
}

/**
 * Span positions that put a NaN first, in the 8-lane body and last (in
 * the tail whenever n is not a multiple of 8), deduplicated.
 */
std::vector<size_t>
nanPositions(size_t n)
{
    std::vector<size_t> pos;
    for (size_t p : {size_t(0), n / 2, n - 1})
        if (n > 0 && (pos.empty() || pos.back() != p))
            pos.push_back(p);
    return pos;
}

TEST_P(SimdVsScalar, MaxElement)
{
    const size_t n = GetParam();
    if (n == 0)
        return; // empty input is a fatal precondition, tested elsewhere
    const auto x = nastyVec(n, 107);
    for (size_t off = 0; off < kMaxOffset; ++off) {
        ASSERT_EQ(maxElement(x.data() + off, n),
                  scalar::maxElement(x.data() + off, n))
            << "n=" << n << " off=" << off;
        // A NaN anywhere gives NaN, on both backends.
        for (size_t p : nanPositions(n)) {
            auto y = x;
            y[off + p] = std::numeric_limits<float>::quiet_NaN();
            ASSERT_TRUE(std::isnan(maxElement(y.data() + off, n)))
                << "n=" << n << " off=" << off << " nan at " << p;
            ASSERT_TRUE(std::isnan(scalar::maxElement(y.data() + off, n)))
                << "n=" << n << " off=" << off << " nan at " << p;
        }
    }
}

TEST_P(SimdVsScalar, ExpInplace)
{
    const size_t n = GetParam();
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x1 = nastyVec(n, 108);
        // widen the argument range to hit under/overflow handling
        for (size_t i = 0; i < x1.size(); ++i)
            x1[i] *= (i % 3 == 0) ? 95.f : 10.f;
        for (size_t p : nanPositions(n))
            x1[off + p] = std::numeric_limits<float>::quiet_NaN();
        auto x2 = x1;
        expInplace(x1.data() + off, n);
        scalar::expInplace(x2.data() + off, n);
        for (size_t i = 0; i < n + kMaxOffset; ++i) {
            if (i < off || i >= off + n) {
                ASSERT_EQ(x1[i], x2[i]) // outside the span: untouched
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            if (std::isnan(x2[i])) { // NaN in, NaN out
                ASSERT_TRUE(std::isnan(x1[i]))
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            if (std::isinf(x2[i])) { // both overflow to +inf
                ASSERT_EQ(x1[i], x2[i])
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            // ~2 ulp relative, plus an absolute floor where the vector
            // exp flushes sub-e^-87.3 results to zero and libm returns
            // a denormal.
            ASSERT_NEAR(x1[i], x2[i], 2e-6f * x2[i] + 1e-37f)
                << "n=" << n << " off=" << off << " i=" << i;
        }
    }
}

TEST_P(SimdVsScalar, ExpShiftInplace)
{
    const size_t n = GetParam();
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x1 = nastyVec(n, 109);
        for (float &v : x1)
            v = v * 50.f + 60.f; // logits in [10, 110]
        for (size_t p : nanPositions(n))
            x1[off + p] = std::numeric_limits<float>::quiet_NaN();
        auto x2 = x1;
        expShiftInplace(x1.data() + off, n, 110.f);
        scalar::expShiftInplace(x2.data() + off, n, 110.f);
        for (size_t i = 0; i < n + kMaxOffset; ++i) {
            if (i < off || i >= off + n) {
                ASSERT_EQ(x1[i], x2[i]) // outside the span: untouched
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            if (std::isnan(x2[i])) { // NaN in, NaN out
                ASSERT_TRUE(std::isnan(x1[i]))
                    << "n=" << n << " off=" << off << " i=" << i;
                continue;
            }
            ASSERT_NEAR(x1[i], x2[i], 2e-6f * x2[i] + 1e-37f)
                << "n=" << n << " off=" << off << " i=" << i;
        }
    }
}

/**
 * The AVX-512 table's phase-2 kernels (16-lane maxElement,
 * expShiftInplace, expInplace) against the AVX2 table's, bit for bit:
 * lengths 1-67 (every 16-lane tail and the four-chain body) at base
 * offsets 0-3, with NaN, infinities, signed zeros and denormals, and
 * shifts that push results past both ends of the exponent range. The
 * tables are called directly, whatever MNNFAST_KERNELS caps dispatch
 * at.
 */
TEST(Avx512Phase2, EqualsAvx2BitForBit)
{
    const detail::KernelTable *wide = detail::avx512Kernels();
    const detail::KernelTable *narrow = detail::avx2Kernels();
    if (!wide || !narrow)
        GTEST_SKIP() << "no AVX-512 on this host";
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const auto same = [](const std::vector<float> &a,
                         const std::vector<float> &b) {
        return std::memcmp(a.data(), b.data(), a.size() * sizeof(float))
            == 0;
    };
    const auto bits = [](float v) {
        uint32_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    for (size_t n = 1; n <= 67; ++n) {
        for (size_t off = 0; off < kMaxOffset; ++off) {
            const auto base = nastyVec(n, 110 + n);
            // Non-positive values with zeros of both signs: a zero
            // maximum, whose sign depends on the reduction order.
            auto nonpos = base;
            for (size_t i = 0; i < nonpos.size(); ++i)
                nonpos[i] = i % 3 == 0 ? (i % 2 ? -0.f : 0.f)
                                       : -std::abs(nonpos[i]);
            auto special = base;
            special[off] = -inf;
            special[off + n - 1] = inf;
            std::vector<std::vector<float>> inputs = {base, nonpos, special};
            for (size_t p : nanPositions(n)) {
                inputs.push_back(base);
                inputs.back()[off + p] = nan;
            }
            for (const auto &v : inputs)
                EXPECT_EQ(bits(wide->maxElement(v.data() + off, n)),
                          bits(narrow->maxElement(v.data() + off, n)))
                    << "maxElement n " << n << " off " << off;

            // Logits over [-150, 150] with the specials mixed in.
            auto logits = base;
            for (size_t i = 0; i < logits.size(); ++i)
                logits[i] *= i % 3 == 0 ? 150.f : 20.f;
            logits[off] = -inf;
            logits[off + n / 2] = -0.f;
            logits[off + n - 1] = nan;
            if (n > 2)
                logits[off + n - 2] = inf;
            // k = -80 drives n - k past 127 (inf), k = 150 past -126
            // (zero), at both ends of the logits.
            for (float k : {0.f, 7.f, -80.f, 150.f}) {
                auto a = logits, b = logits;
                wide->expShiftInplace(a.data() + off, n, k);
                narrow->expShiftInplace(b.data() + off, n, k);
                EXPECT_TRUE(same(a, b))
                    << "expShiftInplace n " << n << " off " << off
                    << " k " << k;
            }
            auto a = logits, b = logits;
            wide->expInplace(a.data() + off, n);
            narrow->expInplace(b.data() + off, n);
            EXPECT_TRUE(same(a, b))
                << "expInplace n " << n << " off " << off;
        }
    }
}

TEST_P(SimdVsScalar, QuantizeI8)
{
    // Codes spanning the int8 range and past it, exact ties, NaN,
    // infinities and products beyond the int32 range: the dispatched
    // encoder writes the reference's bytes and nothing outside the
    // span.
    const size_t n = GetParam();
    const float specials[] = {
        0.5f, 1.5f, 2.5f, -0.5f, -2.5f, 126.5f, 127.5f, -127.5f,
        -128.5f, 200.f, -300.f, 3e9f, -3e9f, 1e30f,
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity()};
    for (size_t off = 0; off < kMaxOffset; ++off) {
        auto x = nastyVec(n, 109);
        for (size_t i = 0; i < x.size(); ++i)
            x[i] = x[i] * 150.f;
        for (size_t i = 0; i < n; i += 3)
            x[off + i] = specials[(i / 3) % std::size(specials)] + 0.25f;
        std::vector<int8_t> got(n + kMaxOffset, 7), ref(n + kMaxOffset, 7);
        quantizeI8(x.data() + off, n, 0.25f, 1.f, got.data() + off);
        scalar::quantizeI8(x.data() + off, n, 0.25f, 1.f, ref.data() + off);
        ASSERT_EQ(got, ref) << "n=" << n << " off=" << off;
        quantizeI8(x.data() + off, n, -0.3f, 41.7f, got.data() + off);
        scalar::quantizeI8(x.data() + off, n, -0.3f, 41.7f,
                           ref.data() + off);
        ASSERT_EQ(got, ref) << "n=" << n << " off=" << off;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimdVsScalar,
                         ::testing::ValuesIn(kSweepSizes));

TEST(WeightedSumSkip, ZeroThresholdKeepsEverything)
{
    const size_t d = 16, count = 50;
    auto e = nastyVec(count, 303);
    for (float &v : e)
        v = std::abs(v) + 1e-3f;
    const auto rows = nastyVec(count * d, 304);
    std::vector<float> acc(d, 0.f);
    double s = 0.0;
    uint64_t kept = 0, skipped = 0;
    weightedSumSkipMulti(e.data(), 1, count, rows.data(), count, d, d,
                         0.f, &s, acc.data(), d, kept, skipped);
    EXPECT_EQ(kept, count);
    EXPECT_EQ(skipped, 0u);
    double eref = 0.0;
    for (size_t i = 0; i < count; ++i)
        eref += e[i];
    EXPECT_NEAR(s, eref, 1e-6 * count);
}

TEST(DotBatchMulti, BitIdenticalToPerQueryDotBatch)
{
    // The query-blocked kernel's contract is exact: every (query, row)
    // dot must carry out the same accumulation order as a one-query
    // sweep, so the outputs are bit-identical — whichever backend
    // dispatch resolved to.
    for (size_t d : {size_t(100), size_t(129)}) {
        const size_t stride = d + 4, xstride = d + 2;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(4),
                          size_t(5), size_t(6), size_t(7), size_t(8),
                          size_t(9), size_t(15), size_t(16)}) {
            for (size_t count : {size_t(0), size_t(1), size_t(3), size_t(4),
                                 size_t(5), size_t(17), size_t(37),
                                 size_t(64), size_t(101)}) {
                const size_t ostride = count + 2; // padded: catch strays
                const auto x = nastyVec(nq * xstride, 501);
                const auto rows = nastyVec(count * stride, 502);
                std::vector<float> got(nq * ostride, -9.f);
                std::vector<float> ref(nq * ostride, -9.f);

                dotBatchMulti(x.data(), nq, xstride, rows.data(), count, d,
                              stride, got.data(), ostride);
                for (size_t q = 0; q < nq; ++q)
                    dotBatchMulti(x.data() + q * xstride, 1, xstride,
                                  rows.data(), count, d, stride,
                                  ref.data() + q * ostride, ostride);

                for (size_t i = 0; i < got.size(); ++i)
                    ASSERT_EQ(got[i], ref[i]) << "d=" << d << " nq=" << nq
                                              << " count=" << count
                                              << " i=" << i;
            }
        }
    }
}

TEST(WeightedSumSkipMulti, BitIdenticalToPerQuerySweep)
{
    // Same exactness contract for the query-blocked weighted sum:
    // per-(query,row) skip decisions, running sums, and accumulator
    // bits must match one-query sweeps. Batch sizes cross the
    // kWsumQueryTile split.
    const size_t d = 65, stride = 67;
    for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                      kWsumQueryTile, kWsumQueryTile + 1,
                      2 * kWsumQueryTile + 1}) {
        for (float threshold : {0.0f, 0.05f, 0.5f}) {
            for (size_t count : {size_t(0), size_t(1), size_t(7),
                                 size_t(100)}) {
                const size_t estride = count + 3;
                const size_t accstride = d + 5;
                auto e = nastyVec(nq * estride, 503);
                for (float &v : e)
                    v = std::abs(v) + 1e-3f; // exp outputs are positive
                const auto rows = nastyVec(count * stride, 504);

                auto acc1 = nastyVec(nq * accstride, 505);
                auto acc2 = acc1;
                std::vector<double> s1(nq), s2(nq);
                for (size_t q = 0; q < nq; ++q)
                    s1[q] = s2[q] = 0.25 * double(q);
                uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;

                weightedSumSkipMulti(e.data(), nq, estride, rows.data(),
                                     count, d, stride, threshold,
                                     s1.data(), acc1.data(), accstride,
                                     kept1, skip1);
                for (size_t q = 0; q < nq; ++q)
                    weightedSumSkipMulti(e.data() + q * estride, 1,
                                         estride, rows.data(), count, d,
                                         stride, threshold, &s2[q],
                                         acc2.data() + q * accstride,
                                         accstride, kept2, skip2);

                ASSERT_EQ(kept1, kept2)
                    << "nq=" << nq << " th=" << threshold
                    << " count=" << count;
                ASSERT_EQ(skip1, skip2);
                ASSERT_EQ(kept1 + skip1, uint64_t(nq) * count);
                for (size_t q = 0; q < nq; ++q)
                    ASSERT_EQ(s1[q], s2[q]) << "nq=" << nq << " q=" << q;
                for (size_t i = 0; i < acc1.size(); ++i)
                    ASSERT_EQ(acc1[i], acc2[i])
                        << "nq=" << nq << " th=" << threshold
                        << " count=" << count << " i=" << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The batched kernels' cross-backend contract: for every storage
// precision the scalar and AVX2 backends implement the same canonical
// accumulation order (kernels.hh), so the dispatched kernel must match
// the scalar reference BIT-FOR-BIT (not just within tolerance), on any
// host. The fp32 cases come first; bf16 and int8 follow with the same
// sizes, strides and batch shapes.
//
// The dispatched kernels run once per row look-ahead (a prefetch hint,
// so never a different bit): none, int8's call default and one past
// every register tile. The rows buffers are exactly sized and beyond is
// 0, so every sweep ends at its buffer's last row.
// ---------------------------------------------------------------------

const RowLookahead kAheads[] = {{0, 0}, kI8CallLookahead, {32, 0}};

TEST(DotBatchMulti, BitIdenticalToScalarReference)
{
    const size_t d_cases[] = {0, 1, 7, 8, 9, 15, 16, 17, 64, 100, 129, 256};
    for (size_t d : d_cases) {
        const size_t stride = d + 3, xstride = d + 1;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(4),
                          size_t(5), size_t(6), size_t(7), size_t(8),
                          size_t(9), size_t(15), size_t(16)}) {
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(17),
                                 size_t(37), size_t(64), size_t(101)}) {
                const size_t ostride = count + 2; // padded: catch strays
                const auto x = nastyVec(nq * xstride, 681, 0);
                const auto rows = nastyVec(count * stride, 682, 0);
                std::vector<float> ref(nq * ostride, -9.f);
                scalar::dotBatchMulti(x.data(), nq, xstride, rows.data(),
                                      count, d, stride, ref.data(),
                                      ostride);

                for (RowLookahead ahead : kAheads) {
                    std::vector<float> got(nq * ostride, -9.f);
                    dotBatchMulti(x.data(), nq, xstride, rows.data(),
                                  count, d, stride, got.data(), ostride,
                                  ahead);
                    for (size_t i = 0; i < got.size(); ++i)
                        ASSERT_EQ(got[i], ref[i])
                            << "d=" << d << " nq=" << nq
                            << " count=" << count << " ahead="
                            << ahead.rows << " i=" << i;
                }
            }
        }
    }
}

TEST(WeightedSumSkipMulti, BitIdenticalToScalarReference)
{
    for (size_t d : {size_t(65), size_t(100)}) {
        const size_t stride = d + 2;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                          size_t(9), size_t(15), kWsumQueryTile,
                          kWsumQueryTile + 1, 2 * kWsumQueryTile + 1}) {
            for (float threshold : {0.0f, 0.05f, 0.5f}) {
                for (size_t count : {size_t(0), size_t(1), size_t(7),
                                     size_t(37), size_t(100),
                                     size_t(101)}) {
                    const size_t estride = count + 3;
                    const size_t accstride = d + 5;
                    auto e = nastyVec(nq * estride, 691, 0);
                    for (float &v : e)
                        v = std::abs(v) + 1e-3f; // exp outputs are positive
                    const auto rows = nastyVec(count * stride, 692, 0);

                    const auto acc0 = nastyVec(nq * accstride, 693, 0);
                    auto acc2 = acc0;
                    std::vector<double> s0(nq), s2(nq);
                    for (size_t q = 0; q < nq; ++q)
                        s0[q] = s2[q] = 0.25 * double(q);
                    uint64_t kept2 = 0, skip2 = 0;
                    scalar::weightedSumSkipMulti(
                        e.data(), nq, estride, rows.data(), count, d, stride,
                        threshold, s2.data(), acc2.data(), accstride, kept2,
                        skip2);

                    for (RowLookahead ahead : kAheads) {
                        auto acc1 = acc0;
                        auto s1 = s0;
                        uint64_t kept1 = 0, skip1 = 0;
                        weightedSumSkipMulti(e.data(), nq, estride, rows.data(),
                                             count, d, stride, threshold,
                                             s1.data(), acc1.data(), accstride,
                                             kept1, skip1, ahead);

                        ASSERT_EQ(kept1, kept2)
                            << "nq=" << nq << " th=" << threshold
                            << " count=" << count << " ahead=" << ahead.rows;
                        ASSERT_EQ(skip1, skip2);
                        ASSERT_EQ(kept1 + skip1, uint64_t(nq) * count);
                        for (size_t q = 0; q < nq; ++q)
                            ASSERT_EQ(s1[q], s2[q])
                                << "nq=" << nq << " q=" << q;
                        for (size_t i = 0; i < acc1.size(); ++i)
                            ASSERT_EQ(acc1[i], acc2[i])
                                << "nq=" << nq << " th=" << threshold
                                << " count=" << count << " ahead="
                                << ahead.rows << " i=" << i;
                    }
                }
            }
        }
    }
}

// bf16 storage kernels.

/** nastyVec rounded to bf16 storage. */
std::vector<uint16_t>
nastyVecBf16(size_t n, uint64_t seed)
{
    const auto f = nastyVec(n, seed, 0);
    std::vector<uint16_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = bf16FromFloat(f[i]);
    return v;
}

TEST(Bf16Convert, RoundTripWithinRelativeBound)
{
    // Round-to-nearest-even on an 8-bit mantissa: the round-trip
    // error of any normal float is at most 2^-8 of its magnitude.
    const auto x = nastyVec(4096, 601, 0);
    for (float v : x) {
        const float rt = bf16ToFloat(bf16FromFloat(v));
        ASSERT_LE(std::abs(rt - v), std::abs(v) * 0x1p-8f) << "v=" << v;
    }
}

TEST(Bf16Convert, ExactValuesSurvive)
{
    // Values already representable in bf16 must round-trip exactly.
    for (float v : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f,
                    1.5f, 3.0f, 256.0f}) {
        const float rt = bf16ToFloat(bf16FromFloat(v));
        ASSERT_EQ(std::memcmp(&rt, &v, sizeof(float)), 0) << "v=" << v;
    }
}

TEST(Bf16Convert, SpecialsPropagate)
{
    const float inf = std::numeric_limits<float>::infinity();
    EXPECT_EQ(bf16ToFloat(bf16FromFloat(inf)), inf);
    EXPECT_EQ(bf16ToFloat(bf16FromFloat(-inf)), -inf);
    EXPECT_TRUE(std::isnan(
        bf16ToFloat(bf16FromFloat(std::nanf("")))));
}

TEST(DotBatchMultiBf16, BitIdenticalToScalarReference)
{
    const size_t d_cases[] = {0, 1, 7, 8, 9, 15, 16, 17, 64, 100, 129, 256};
    for (size_t d : d_cases) {
        const size_t stride = d + 3, xstride = d + 1;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(4),
                          size_t(5), size_t(6), size_t(7), size_t(8),
                          size_t(9), size_t(15), size_t(16)}) {
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(17),
                                 size_t(37), size_t(64), size_t(101)}) {
                const size_t ostride = count + 2;
                const auto x = nastyVec(nq * xstride, 611, 0);
                const auto rows = nastyVecBf16(count * stride, 612);
                std::vector<float> ref(nq * ostride, -9.f);
                scalar::dotBatchMultiBf16(x.data(), nq, xstride,
                                          rows.data(), count, d, stride,
                                          ref.data(), ostride);

                for (RowLookahead ahead : kAheads) {
                    std::vector<float> got(nq * ostride, -9.f);
                    dotBatchMultiBf16(x.data(), nq, xstride, rows.data(),
                                      count, d, stride, got.data(),
                                      ostride, ahead);
                    for (size_t i = 0; i < got.size(); ++i)
                        ASSERT_EQ(got[i], ref[i])
                            << "d=" << d << " nq=" << nq
                            << " count=" << count << " ahead="
                            << ahead.rows << " i=" << i;
                }
            }
        }
    }
}

TEST(DotBatchMultiBf16, MatchesWideningDoubleReference)
{
    // Accuracy (not just self-consistency): against a double-precision
    // dot over the upconverted rows the kernel is ordinary fp32
    // summation, so the usual O(d) rounding bound applies.
    const size_t d = 256, count = 33, nq = 4;
    const auto x = nastyVec(nq * d, 613, 0);
    const auto rows = nastyVecBf16(count * d, 614);
    std::vector<float> got(nq * count);
    dotBatchMultiBf16(x.data(), nq, d, rows.data(), count, d, d,
                      got.data(), count);
    for (size_t q = 0; q < nq; ++q) {
        for (size_t r = 0; r < count; ++r) {
            double ref = 0.0;
            for (size_t i = 0; i < d; ++i)
                ref += double(x[q * d + i])
                     * double(bf16ToFloat(rows[r * d + i]));
            ASSERT_NEAR(got[q * count + r], ref, 1e-5 * d)
                << "q=" << q << " r=" << r;
        }
    }
}

TEST(WeightedSumSkipMultiBf16, BitIdenticalToScalarReference)
{
    for (size_t d : {size_t(65), size_t(100)}) {
        const size_t stride = d + 2;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                          size_t(9), size_t(15), kWsumQueryTile,
                          kWsumQueryTile + 1, 2 * kWsumQueryTile + 1}) {
            for (float threshold : {0.0f, 0.05f, 0.5f}) {
                for (size_t count : {size_t(0), size_t(1), size_t(7),
                                     size_t(37), size_t(100),
                                     size_t(101)}) {
                    const size_t estride = count + 3;
                    const size_t accstride = d + 5;
                    auto e = nastyVec(nq * estride, 621, 0);
                    for (float &v : e)
                        v = std::abs(v) + 1e-3f; // exp outputs are positive
                    const auto rows = nastyVecBf16(count * stride, 622);

                    const auto acc0 = nastyVec(nq * accstride, 623, 0);
                    auto acc2 = acc0;
                    std::vector<double> s0(nq), s2(nq);
                    for (size_t q = 0; q < nq; ++q)
                        s0[q] = s2[q] = 0.25 * double(q);
                    uint64_t kept2 = 0, skip2 = 0;
                    // The scalar reference takes any ne; no tiling needed.
                    scalar::weightedSumSkipMultiBf16(
                        e.data(), nq, estride, rows.data(), count, d,
                        stride, threshold, s2.data(), acc2.data(),
                        accstride, kept2, skip2);

                    for (RowLookahead ahead : kAheads) {
                        auto acc1 = acc0;
                        auto s1 = s0;
                        uint64_t kept1 = 0, skip1 = 0;
                        weightedSumSkipMultiBf16(
                            e.data(), nq, estride, rows.data(), count, d,
                            stride, threshold, s1.data(), acc1.data(),
                            accstride, kept1, skip1, ahead);

                        ASSERT_EQ(kept1, kept2)
                            << "nq=" << nq << " th=" << threshold
                            << " count=" << count << " ahead=" << ahead.rows;
                        ASSERT_EQ(skip1, skip2);
                        ASSERT_EQ(kept1 + skip1, uint64_t(nq) * count);
                        for (size_t q = 0; q < nq; ++q)
                            ASSERT_EQ(s1[q], s2[q])
                                << "nq=" << nq << " q=" << q;
                        for (size_t i = 0; i < acc1.size(); ++i)
                            ASSERT_EQ(acc1[i], acc2[i])
                                << "nq=" << nq << " th=" << threshold
                                << " count=" << count << " ahead="
                                << ahead.rows << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST(WeightedSumSkipMultiBf16, SkipDecisionsMatchFp32Kernel)
{
    // The skip test is scalar double arithmetic on the e values in
    // both precisions — rows never enter the decision — so kept and
    // skipped counts must agree exactly with the fp32 kernel on the
    // same e matrix.
    const size_t d = 32, count = 200, nq = 5;
    auto e = nastyVec(nq * count, 631, 0);
    for (float &v : e)
        v = std::abs(v) + 1e-3f;
    const auto rows16 = nastyVecBf16(count * d, 632);
    const auto rows32 = nastyVec(count * d, 633, 0);
    for (float threshold : {0.01f, 0.1f}) {
        std::vector<float> a1(nq * d, 0.f), a2(nq * d, 0.f);
        std::vector<double> s1(nq, 0.0), s2(nq, 0.0);
        uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;
        weightedSumSkipMultiBf16(e.data(), nq, count, rows16.data(),
                                 count, d, d, threshold, s1.data(),
                                 a1.data(), d, kept1, skip1);
        weightedSumSkipMulti(e.data(), nq, count, rows32.data(), count,
                             d, d, threshold, s2.data(), a2.data(), d,
                             kept2, skip2);
        ASSERT_EQ(kept1, kept2) << "th=" << threshold;
        ASSERT_EQ(skip1, skip2) << "th=" << threshold;
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(s1[q], s2[q]) << "q=" << q;
    }
}

// ---------------------------------------------------------------------
// int8 storage kernels. Same bit-for-bit contract as bf16: the scalar
// and AVX2 backends implement one canonical accumulation order, so the
// dispatched kernel must match the scalar reference exactly. The
// (scale, zero) pair is applied in the factored form documented in
// kernels.hh, so results are additionally invariant to splitting a row
// sweep into multiple calls — the property the engines rely on when
// they cut sweeps at quantization-group boundaries.
// ---------------------------------------------------------------------

/** Deterministic int8 rows covering the full [-128, 127] range. */
std::vector<int8_t>
nastyVecI8(size_t n, uint64_t seed)
{
    XorShiftRng rng(seed);
    std::vector<int8_t> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<int8_t>(static_cast<int>(rng.below(256)) - 128);
    return v;
}

TEST(QuantizeI8, RoundsToNearestEvenAndSaturates)
{
    // Each value sits at a different position of a 40-element call,
    // so both the vector body and the tail encode it.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::pair<float, int> cases[] = {
        {0.5f, 0},     {1.5f, 2},      {2.5f, 2},     {-0.5f, 0},
        {-1.5f, -2},   {127.4f, 127},  {127.5f, 127}, {300.f, 127},
        {-128.5f, -128}, {-129.f, -128}, {nan, -128},  {inf, -128},
        {-inf, -128},  {3e9f, -128},   {-3e9f, -128}};
    for (size_t at = 0; at < 40; ++at) {
        for (const auto &[v, want] : cases) {
            std::vector<float> x(40, 1.f);
            x[at] = v;
            std::vector<int8_t> q(40);
            quantizeI8(x.data(), x.size(), 0.f, 1.f, q.data());
            ASSERT_EQ(q[at], want) << "v=" << v << " at=" << at;
        }
    }
}

TEST(DotBatchMultiI8, BitIdenticalToScalarReference)
{
    const float scale = 0.0123f, zero = -0.456f;
    const size_t d_cases[] = {0, 1, 7, 8, 9, 15, 16, 17, 64, 100, 129, 256};
    for (size_t d : d_cases) {
        const size_t stride = d + 3, xstride = d + 1;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(4),
                          size_t(5), size_t(6), size_t(7), size_t(8),
                          size_t(9), size_t(15), size_t(16)}) {
            for (size_t count : {size_t(0), size_t(1), size_t(3),
                                 size_t(4), size_t(5), size_t(17),
                                 size_t(37), size_t(64), size_t(101)}) {
                const size_t ostride = count + 2;
                const auto x = nastyVec(nq * xstride, 641, 0);
                const auto rows = nastyVecI8(count * stride, 642);
                std::vector<float> ref(nq * ostride, -9.f);
                scalar::dotBatchMultiI8(x.data(), nq, xstride,
                                        rows.data(), count, d, stride,
                                        scale, zero, ref.data(),
                                        ostride);

                for (RowLookahead ahead : kAheads) {
                    std::vector<float> got(nq * ostride, -9.f);
                    dotBatchMultiI8(x.data(), nq, xstride, rows.data(),
                                    count, d, stride, scale, zero,
                                    got.data(), ostride, ahead);
                    for (size_t i = 0; i < got.size(); ++i)
                        ASSERT_EQ(got[i], ref[i])
                            << "d=" << d << " nq=" << nq
                            << " count=" << count << " ahead="
                            << ahead.rows << " i=" << i;
                }
            }
        }
    }
}

TEST(DotBatchMultiI8, MatchesWideningDoubleReference)
{
    // Accuracy against a double-precision dot over the dequantized
    // rows: the kernel computes fma(scale, rawdot, zero * qsum) with
    // fp32 rawdot/qsum accumulation, so the usual O(d) rounding bound
    // applies — scaled by the row magnitudes (|q| <= 128).
    const size_t d = 256, count = 33, nq = 4;
    const float scale = 0.0123f, zero = -0.456f;
    const auto x = nastyVec(nq * d, 643, 0);
    const auto rows = nastyVecI8(count * d, 644);
    std::vector<float> got(nq * count);
    dotBatchMultiI8(x.data(), nq, d, rows.data(), count, d, d, scale,
                    zero, got.data(), count);
    for (size_t q = 0; q < nq; ++q) {
        for (size_t r = 0; r < count; ++r) {
            double ref = 0.0;
            for (size_t i = 0; i < d; ++i)
                ref += double(x[q * d + i])
                     * (double(scale) * rows[r * d + i] + double(zero));
            ASSERT_NEAR(got[q * count + r], ref, 1e-4 * d)
                << "q=" << q << " r=" << r;
        }
    }
}

TEST(DotBatchMultiI8, RowSweepSplitInvariant)
{
    // One call over [0, count) must equal a call over [0, c) plus a
    // call over [c, count) at ANY split point: scores are per-(q, r)
    // independent. The engines rely on this when they split sweeps at
    // quantization-group boundaries.
    const size_t d = 129, count = 37, nq = 5;
    const float scale = 0.017f, zero = 0.31f;
    const auto x = nastyVec(nq * d, 645, 0);
    const auto rows = nastyVecI8(count * d, 646);
    std::vector<float> whole(nq * count, -9.f);
    dotBatchMultiI8(x.data(), nq, d, rows.data(), count, d, d, scale,
                    zero, whole.data(), count);
    for (size_t c : {size_t(1), size_t(4), size_t(13), size_t(36)}) {
        std::vector<float> split(nq * count, -9.f);
        dotBatchMultiI8(x.data(), nq, d, rows.data(), c, d, d, scale,
                        zero, split.data(), count);
        dotBatchMultiI8(x.data(), nq, d, rows.data() + c * d,
                        count - c, d, d, scale, zero, split.data() + c,
                        count);
        for (size_t i = 0; i < whole.size(); ++i)
            ASSERT_EQ(split[i], whole[i]) << "c=" << c << " i=" << i;
    }
}

TEST(WeightedSumSkipMultiI8, BitIdenticalToScalarReference)
{
    for (size_t d : {size_t(65), size_t(100)}) {
        const size_t stride = d + 2;
        const float scale = 0.0123f, zero = -0.456f;
        for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5),
                          size_t(9), size_t(15), kWsumQueryTile,
                          kWsumQueryTile + 1, 2 * kWsumQueryTile + 1}) {
            for (float threshold : {0.0f, 0.05f, 0.5f}) {
                for (size_t count : {size_t(0), size_t(1), size_t(7),
                                     size_t(37), size_t(100),
                                     size_t(101)}) {
                    const size_t estride = count + 3;
                    const size_t accstride = d + 5;
                    auto e = nastyVec(nq * estride, 651, 0);
                    for (float &v : e)
                        v = std::abs(v) + 1e-3f; // exp outputs are positive
                    const auto rows = nastyVecI8(count * stride, 652);

                    const auto acc0 = nastyVec(nq * accstride, 653, 0);
                    auto acc2 = acc0;
                    std::vector<double> s0(nq), s2(nq);
                    for (size_t q = 0; q < nq; ++q)
                        s0[q] = s2[q] = 0.25 * double(q);
                    uint64_t kept2 = 0, skip2 = 0;
                    // The scalar reference takes any ne; no tiling needed.
                    scalar::weightedSumSkipMultiI8(
                        e.data(), nq, estride, rows.data(), count, d,
                        stride, scale, zero, threshold, s2.data(),
                        acc2.data(), accstride, kept2, skip2);

                    for (RowLookahead ahead : kAheads) {
                        auto acc1 = acc0;
                        auto s1 = s0;
                        uint64_t kept1 = 0, skip1 = 0;
                        weightedSumSkipMultiI8(
                            e.data(), nq, estride, rows.data(), count, d,
                            stride, scale, zero, threshold, s1.data(),
                            acc1.data(), accstride, kept1, skip1, ahead);

                        ASSERT_EQ(kept1, kept2)
                            << "nq=" << nq << " th=" << threshold
                            << " count=" << count << " ahead=" << ahead.rows;
                        ASSERT_EQ(skip1, skip2);
                        ASSERT_EQ(kept1 + skip1, uint64_t(nq) * count);
                        for (size_t q = 0; q < nq; ++q)
                            ASSERT_EQ(s1[q], s2[q])
                                << "nq=" << nq << " q=" << q;
                        for (size_t i = 0; i < acc1.size(); ++i)
                            ASSERT_EQ(acc1[i], acc2[i])
                                << "nq=" << nq << " th=" << threshold
                                << " count=" << count << " ahead="
                                << ahead.rows << " i=" << i;
                    }
                }
            }
        }
    }
}

TEST(WeightedSumSkipMultiI8, SkipDecisionsMatchFp32Kernel)
{
    // The skip test is scalar double arithmetic on the e values in
    // both precisions — rows never enter the decision — so kept and
    // skipped counts must agree exactly with the fp32 kernel on the
    // same e matrix.
    const size_t d = 32, count = 200, nq = 5;
    auto e = nastyVec(nq * count, 661, 0);
    for (float &v : e)
        v = std::abs(v) + 1e-3f;
    const auto rows8 = nastyVecI8(count * d, 662);
    const auto rows32 = nastyVec(count * d, 663, 0);
    for (float threshold : {0.01f, 0.1f}) {
        std::vector<float> a1(nq * d, 0.f), a2(nq * d, 0.f);
        std::vector<double> s1(nq, 0.0), s2(nq, 0.0);
        uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;
        weightedSumSkipMultiI8(e.data(), nq, count, rows8.data(), count,
                               d, d, 0.01f, -0.2f, threshold, s1.data(),
                               a1.data(), d, kept1, skip1);
        weightedSumSkipMulti(e.data(), nq, count, rows32.data(), count,
                             d, d, threshold, s2.data(), a2.data(), d,
                             kept2, skip2);
        ASSERT_EQ(kept1, kept2) << "th=" << threshold;
        ASSERT_EQ(skip1, skip2) << "th=" << threshold;
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(s1[q], s2[q]) << "q=" << q;
    }
}

TEST(WeightedSumSkipMultiI8, RowSweepSplitInvariant)
{
    // Splitting the row range into consecutive calls (threading the
    // running sums through) must reproduce the single-call result
    // exactly: rows are processed in ascending order and the skip
    // state is entirely in running_sums.
    const size_t d = 48, count = 61, nq = 3;
    const float scale = 0.02f, zero = 0.1f, threshold = 0.05f;
    auto e = nastyVec(nq * count, 671, 0);
    for (float &v : e)
        v = std::abs(v) + 1e-3f;
    const auto rows = nastyVecI8(count * d, 672);

    std::vector<float> a1(nq * d, 0.f);
    std::vector<double> s1(nq, 0.0);
    uint64_t kept1 = 0, skip1 = 0;
    weightedSumSkipMultiI8(e.data(), nq, count, rows.data(), count, d,
                           d, scale, zero, threshold, s1.data(),
                           a1.data(), d, kept1, skip1);

    for (size_t c : {size_t(1), size_t(8), size_t(30), size_t(60)}) {
        std::vector<float> a2(nq * d, 0.f);
        std::vector<double> s2(nq, 0.0);
        uint64_t kept2 = 0, skip2 = 0;
        weightedSumSkipMultiI8(e.data(), nq, count, rows.data(), c, d,
                               d, scale, zero, threshold, s2.data(),
                               a2.data(), d, kept2, skip2);
        weightedSumSkipMultiI8(e.data() + c, nq, count,
                               rows.data() + c * d, count - c, d, d,
                               scale, zero, threshold, s2.data(),
                               a2.data(), d, kept2, skip2);
        ASSERT_EQ(kept2, kept1) << "c=" << c;
        ASSERT_EQ(skip2, skip1) << "c=" << c;
        for (size_t q = 0; q < nq; ++q)
            ASSERT_EQ(s2[q], s1[q]) << "c=" << c << " q=" << q;
        for (size_t i = 0; i < a1.size(); ++i)
            ASSERT_EQ(a2[i], a1[i]) << "c=" << c << " i=" << i;
    }
}

// Row look-ahead reach: a call may prefetch only the rows it sweeps and
// the `beyond` rows its caller owns past them.

constexpr float kI8Scale = 0.0123f, kI8Zero = -0.456f;

void
dotRows(const float *x, size_t nq, const float *rows, size_t count,
        size_t d, float *out, RowLookahead ahead)
{
    dotBatchMulti(x, nq, d, rows, count, d, d, out, count, ahead);
}

void
dotRows(const float *x, size_t nq, const uint16_t *rows, size_t count,
        size_t d, float *out, RowLookahead ahead)
{
    dotBatchMultiBf16(x, nq, d, rows, count, d, d, out, count, ahead);
}

void
dotRows(const float *x, size_t nq, const int8_t *rows, size_t count,
        size_t d, float *out, RowLookahead ahead)
{
    dotBatchMultiI8(x, nq, d, rows, count, d, d, kI8Scale, kI8Zero, out,
                    count, ahead);
}

void
wsumRows(const float *e, size_t nq, const float *rows, size_t count,
         size_t d, float th, double *sums, float *acc, uint64_t &kept,
         uint64_t &skipped, RowLookahead ahead)
{
    weightedSumSkipMulti(e, nq, count, rows, count, d, d, th, sums, acc, d,
                         kept, skipped, ahead);
}

void
wsumRows(const float *e, size_t nq, const uint16_t *rows, size_t count,
         size_t d, float th, double *sums, float *acc, uint64_t &kept,
         uint64_t &skipped, RowLookahead ahead)
{
    weightedSumSkipMultiBf16(e, nq, count, rows, count, d, d, th, sums,
                             acc, d, kept, skipped, ahead);
}

void
wsumRows(const float *e, size_t nq, const int8_t *rows, size_t count,
         size_t d, float th, double *sums, float *acc, uint64_t &kept,
         uint64_t &skipped, RowLookahead ahead)
{
    weightedSumSkipMultiI8(e, nq, count, rows, count, d, d, kI8Scale,
                           kI8Zero, th, sums, acc, d, kept, skipped, ahead);
}

/** Both fused sweeps' outputs: dots, then accumulators; sums; counts. */
struct SweepOut
{
    std::vector<float> out;
    std::vector<double> sums;
    uint64_t kept = 0, skipped = 0;
};

bool
sameBits(const SweepOut &a, const SweepOut &b)
{
    return a.out.size() == b.out.size() && a.sums.size() == b.sums.size()
        && std::memcmp(a.out.data(), b.out.data(),
                       a.out.size() * sizeof(float)) == 0
        && std::memcmp(a.sums.data(), b.sums.data(),
                       a.sums.size() * sizeof(double)) == 0
        && a.kept == b.kept && a.skipped == b.skipped;
}

/** Both fused sweeps over rows [first, first + count) of `buf`. */
template <class E>
SweepOut
sweepRows(const std::vector<E> &buf, size_t first, size_t count,
          size_t d, size_t nq, float th, RowLookahead ahead)
{
    const auto x = nastyVec(nq * d, 704, 0);
    auto e = nastyVec(nq * count, 705, 0);
    for (float &v : e)
        v = std::abs(v) + 1e-3f; // exp outputs are positive
    SweepOut s;
    s.out.assign(nq * count + nq * d, 0.f);
    s.sums.assign(nq, 0.0);
    const E *rows = buf.data() + first * d;
    dotRows(x.data(), nq, rows, count, d, s.out.data(), ahead);
    wsumRows(e.data(), nq, rows, count, d, th, s.sums.data(),
             s.out.data() + nq * count, s.kept, s.skipped, ahead);
    return s;
}

/**
 * `buf` holds exactly count + beyond rows. The head sweep covers the
 * first count rows and owns the last beyond rows; the tail sweep ends
 * at the buffer's final row and owns nothing past it. Both must answer
 * bit for bit as without look-ahead (which the BitIdenticalToScalar-
 * Reference suites tie to the scalar reference), at distances inside
 * and past a tile; under ASan a load past the buffer aborts.
 */
template <class E>
void
expectReachWithinOwnedRows(const std::vector<E> &buf, size_t count,
                           size_t beyond, size_t d)
{
    // 24 questions: three AVX-512 query tiles, of which only the first
    // looks ahead.
    for (size_t nq : {size_t{1}, size_t{5}, size_t{16}, size_t{24}})
        for (float th : {0.f, 0.05f}) // dense rows, or a skip scan
            for (size_t first : {size_t{0}, beyond}) {
                const auto want = sweepRows(buf, first, count, d, nq, th, {});
                for (size_t dist : {size_t{4}, size_t{32}}) {
                    const RowLookahead ahead{dist, beyond - first};
                    EXPECT_TRUE(sameBits(
                        sweepRows(buf, first, count, d, nq, th, ahead),
                        want))
                        << sizeof(E) << "-byte rows, count " << count
                        << " beyond " << beyond << " nq " << nq << " th "
                        << th << " first " << first << " dist " << dist;
                }
            }
}

TEST(RowLookahead, ReachesOnlyTheRowsTheCallerOwns)
{
    // d = 40 ends every row in a partial line and a tail; d = 128 is
    // whole lines of every precision, as the engines' rows are.
    for (size_t d : {size_t{40}, size_t{128}}) {
        for (size_t count : {size_t{37}, size_t{101}}) {
            for (size_t beyond : {size_t{0}, size_t{7}, size_t{40}}) {
                const size_t total = count + beyond;
                expectReachWithinOwnedRows(nastyVec(total * d, 701, 0),
                                           count, beyond, d);
                expectReachWithinOwnedRows(nastyVecBf16(total * d, 702),
                                           count, beyond, d);
                expectReachWithinOwnedRows(nastyVecI8(total * d, 703),
                                           count, beyond, d);
            }
        }
    }
}

TEST(WeightedSumSkipMulti, NonFiniteEValuesMatchScalarReference)
{
    // Hostile e values (inf, -inf, NaN, 1e38) push running sums to inf
    // or NaN mid-sweep. The skip decisions, counters, running sums and
    // accumulators must still match the scalar loop exactly, for every
    // precision. Batch sizes cover a lone query and full and partial
    // 4-query groups; row counts are not multiples of 4, so the row
    // tail runs too. NaN never equals itself, so NaN matches NaN and
    // everything else must match bit for bit.
    const auto same = [](auto a, auto b) {
        if (std::isnan(a) || std::isnan(b))
            return std::isnan(a) && std::isnan(b);
        return std::memcmp(&a, &b, sizeof a) == 0;
    };
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {inf, std::numeric_limits<float>::quiet_NaN(),
                              1e38f, -inf};
    const size_t d = 21, stride = 23, accstride = d + 3;
    const float scale = 0.0123f, zero = -0.456f;
    for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(4), size_t(5),
                      size_t(8)}) {
        for (size_t count : {size_t(6), size_t(37), size_t(101)}) {
            const size_t estride = count + 1;
            auto e = nastyVec(nq * estride, 701, 0);
            for (float &v : e)
                v = std::abs(v) + 1e-3f;
            // Every fourth query stays finite; the others meet one
            // special early and one in the last three rows.
            for (size_t q = 0; q < nq; ++q) {
                if (q % 4 == 3)
                    continue;
                e[q * estride + (3 * q + 1) % count] = specials[q % 4];
                e[q * estride + count - 1 - q % 3] = specials[(q + 1) % 4];
            }
            const auto r32 = nastyVec(count * stride, 702, 0);
            const auto r16 = nastyVecBf16(count * stride, 703);
            const auto r8 = nastyVecI8(count * stride, 704);
            for (float threshold : {0.05f, 0.5f}) {
                for (const char *prec : {"f32", "bf16", "i8"}) {
                    auto acc1 = nastyVec(nq * accstride, 705, 0);
                    auto acc2 = acc1;
                    std::vector<double> s1(nq, 0.0), s2(nq, 0.0);
                    uint64_t kept1 = 0, skip1 = 0, kept2 = 0, skip2 = 0;
                    if (std::strcmp(prec, "f32") == 0) {
                        weightedSumSkipMulti(
                            e.data(), nq, estride, r32.data(), count, d,
                            stride, threshold, s1.data(), acc1.data(),
                            accstride, kept1, skip1);
                        scalar::weightedSumSkipMulti(
                            e.data(), nq, estride, r32.data(), count, d,
                            stride, threshold, s2.data(), acc2.data(),
                            accstride, kept2, skip2);
                    } else if (std::strcmp(prec, "bf16") == 0) {
                        weightedSumSkipMultiBf16(
                            e.data(), nq, estride, r16.data(), count, d,
                            stride, threshold, s1.data(), acc1.data(),
                            accstride, kept1, skip1);
                        scalar::weightedSumSkipMultiBf16(
                            e.data(), nq, estride, r16.data(), count, d,
                            stride, threshold, s2.data(), acc2.data(),
                            accstride, kept2, skip2);
                    } else {
                        weightedSumSkipMultiI8(
                            e.data(), nq, estride, r8.data(), count, d,
                            stride, scale, zero, threshold, s1.data(),
                            acc1.data(), accstride, kept1, skip1);
                        scalar::weightedSumSkipMultiI8(
                            e.data(), nq, estride, r8.data(), count, d,
                            stride, scale, zero, threshold, s2.data(),
                            acc2.data(), accstride, kept2, skip2);
                    }
                    const std::string where =
                        std::string(prec) + " nq=" + std::to_string(nq) +
                        " count=" + std::to_string(count) +
                        " th=" + std::to_string(threshold);
                    ASSERT_EQ(kept1, kept2) << where;
                    ASSERT_EQ(skip1, skip2) << where;
                    ASSERT_GT(kept1, 0u) << where;
                    ASSERT_GT(skip1, 0u) << where;
                    for (size_t q = 0; q < nq; ++q)
                        ASSERT_TRUE(same(s1[q], s2[q]))
                            << where << " q=" << q << ": " << s1[q]
                            << " vs " << s2[q];
                    for (size_t i = 0; i < acc1.size(); ++i)
                        ASSERT_TRUE(same(acc1[i], acc2[i]))
                            << where << " i=" << i << ": " << acc1[i]
                            << " vs " << acc2[i];
                }
            }
        }
    }
}

TEST(GemmSimd, MatchesScalarAcrossShapes)
{
    const GemmDims shapes[] = {{1, 1, 1},   {2, 3, 15},  {4, 8, 16},
                               {5, 257, 17}, {13, 48, 31}, {16, 300, 64},
                               {33, 64, 100}};
    for (const auto &[m, k, n] : shapes) {
        const auto a = nastyVec(m * k, 401);
        const auto b = nastyVec(k * n, 402);
        std::vector<float> c1(m * n, 7.f), c2(m * n, 7.f);
        gemm(a.data(), b.data(), c1.data(), m, k, n);
        scalar::gemm(a.data(), b.data(), c2.data(), m, k, n, false);
        for (size_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(c1[i], c2[i], 1e-5f * k)
                << m << "x" << k << "x" << n << " i=" << i;
        }
        // accumulate=true on top of existing C
        std::vector<float> d1(m * n, 0.5f), d2(m * n, 0.5f);
        gemm(a.data(), b.data(), d1.data(), m, k, n, true);
        scalar::gemm(a.data(), b.data(), d2.data(), m, k, n, true);
        for (size_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(d1[i], d2[i], 1e-5f * k)
                << m << "x" << k << "x" << n << " i=" << i;
        }
    }
}

} // namespace
} // namespace mnnfast::blas
