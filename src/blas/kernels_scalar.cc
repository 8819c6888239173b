/**
 * @file
 * Portable scalar reference kernels (namespace blas::scalar).
 *
 * The dispatch fallback and the ground truth the SIMD backend is
 * property-tested against. The elementwise and reduction primitives
 * are hand-unrolled four-wide so the compiler can keep multiple
 * dependency chains in flight even without explicit vector code; the
 * batched kernels, chunkBoundBatch included, replay the canonical
 * 8-lane order of kernels.hh so they match the AVX2 backend bit for
 * bit.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/exact_fma.hh"
#include "blas/kernels.hh"
#include "util/bf16.hh"
#include "util/logging.hh"

namespace mnnfast::blas::scalar {

float
dot(const float *x, const float *y, size_t n)
{
    // Four independent accumulators let the compiler keep four vector
    // FMA chains in flight instead of serializing on one register.
    float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += x[i + 0] * y[i + 0];
        acc1 += x[i + 1] * y[i + 1];
        acc2 += x[i + 2] * y[i + 2];
        acc3 += x[i + 3] * y[i + 3];
    }
    for (; i < n; ++i)
        acc0 += x[i] * y[i];
    return (acc0 + acc1) + (acc2 + acc3);
}

void
axpy(float alpha, const float *x, float *y, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scal(float alpha, float *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] *= alpha;
}

float
sum(const float *x, size_t n)
{
    float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += x[i + 0];
        acc1 += x[i + 1];
        acc2 += x[i + 2];
        acc3 += x[i + 3];
    }
    for (; i < n; ++i)
        acc0 += x[i];
    return (acc0 + acc1) + (acc2 + acc3);
}

float
maxElement(const float *x, size_t n)
{
    // std::max alone keeps a leading NaN but drops a later one; the
    // contract is that a NaN anywhere gives NaN.
    float m = x[0];
    for (size_t i = 0; i < n; ++i) {
        if (std::isnan(x[i]))
            return std::numeric_limits<float>::quiet_NaN();
        m = std::max(m, x[i]);
    }
    return m;
}

namespace {

/** The AVX2 hsum8's pairwise association over eight lanes. */
float
reduceLanes(const float (&lane)[8])
{
    return ((lane[0] + lane[4]) + (lane[2] + lane[6]))
         + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
}

/**
 * Canonical query sum for the factored i8 dot: the lane walk with
 * adds for fmas (the AVX2 vertical add + hsum8 is exactly this).
 */
float
querySum(const float *x, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] += x[i + j];
    }
    float r = reduceLanes(lane);
    for (; i < n; ++i)
        r += x[i];
    return r;
}

// Row-decode policies: the scalar halves of the AVX2 backend's
// (kernels_avx2.cc), with the same widen / fold / dequant contract
// (kernels.hh). exactFma single-rounds exactly like the vector fmadd.

/** Identity code: shared by F32Rows and Bf16Rows. */
struct RawCode
{
    float queryBias(const float *, size_t) const { return 0.f; }
    // Identity, not fma(1, s, 0): that would turn -0 into +0.
    float fold(float s, float) const { return s; }
    float dequant(float v) const { return v; }
};

struct F32Rows : RawCode
{
    using Elem = float;
    static float widen(float v) { return v; }
};

struct Bf16Rows : RawCode
{
    using Elem = uint16_t;
    static float widen(uint16_t v) { return bf16ToFloat(v); }
};

struct I8Rows
{
    using Elem = int8_t;
    float scale, zero;

    static float widen(int8_t v) { return static_cast<float>(v); }
    float queryBias(const float *x, size_t n) const
    {
        return zero * querySum(x, n);
    }
    float fold(float s, float bias) const
    {
        return exactFma(scale, s, bias);
    }
    float dequant(float v) const { return exactFma(scale, v, zero); }
};

/**
 * Canonical raw dot (see kernels.hh): eight fp32 fma lanes over the
 * 8-aligned body (lane j holds elements i with i % 8 == j), the fixed
 * pairwise lane reduction, then an fma tail.
 */
template <class P>
float
rawDot(const float *x, const typename P::Elem *row, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j)
            lane[j] = exactFma(x[i + j], P::widen(row[i + j]), lane[j]);
    }
    float r = reduceLanes(lane);
    for (; i < n; ++i)
        r = exactFma(x[i], P::widen(row[i]), r);
    return r;
}

/** The batched dot for every precision (`code` as in the AVX2 one). */
template <class P, class... Code>
void
dotRows(const float *x, size_t nx, size_t xstride,
        const typename P::Elem *rows, size_t count, size_t n,
        size_t stride, Code... code, float *out, size_t ostride)
{
    const P p{code...};
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        // A per-query constant, so results depend only on (x_q, row,
        // code): sweep splits and tile shapes can never change bits.
        const float bias = p.queryBias(xq, n);
        for (size_t r = 0; r < count; ++r)
            out[q * ostride + r] =
                p.fold(rawDot<P>(xq, rows + r * stride, n), bias);
    }
}

/**
 * The zero-skip weighted sum for every precision: per-(query, row)
 * scalar double skip tests, then one single-rounded fma per
 * accumulator element, so the update is bit-identical to the AVX2
 * backend's fmadd. Takes any ne.
 */
template <class P, class... Code>
void
weightedSumRows(const float *e, size_t ne, size_t estride,
                const typename P::Elem *rows, size_t count, size_t n,
                size_t stride, Code... code, float threshold,
                double *running_sums, float *acc, size_t accstride,
                uint64_t &kept, uint64_t &skipped)
{
    const P p{code...};
    for (size_t r = 0; r < count; ++r) {
        const typename P::Elem *row = rows + r * stride;
        for (size_t q = 0; q < ne; ++q) {
            const float ev = e[q * estride + r];
            const double s = running_sums[q] + ev;
            running_sums[q] = s;
            if (threshold > 0.f && double(ev) < double(threshold) * s) {
                ++skipped;
                continue;
            }
            ++kept;
            float *dst = acc + q * accstride;
            for (size_t i = 0; i < n; ++i)
                dst[i] = exactFma(ev, p.dequant(P::widen(row[i])), dst[i]);
        }
    }
}

} // namespace

void
dotBatchMulti(const float *x, size_t nx, size_t xstride,
              const float *rows, size_t count, size_t n, size_t stride,
              float *out, size_t ostride)
{
    dotRows<F32Rows>(x, nx, xstride, rows, count, n, stride, out,
                     ostride);
}

void
weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                     const float *rows, size_t count, size_t n,
                     size_t stride, float threshold,
                     double *running_sums, float *acc, size_t accstride,
                     uint64_t &kept, uint64_t &skipped)
{
    weightedSumRows<F32Rows>(e, ne, estride, rows, count, n, stride,
                             threshold, running_sums, acc, accstride,
                             kept, skipped);
}

void
dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                  const uint16_t *rows, size_t count, size_t n,
                  size_t stride, float *out, size_t ostride)
{
    dotRows<Bf16Rows>(x, nx, xstride, rows, count, n, stride, out,
                      ostride);
}

void
weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                         const uint16_t *rows, size_t count, size_t n,
                         size_t stride, float threshold,
                         double *running_sums, float *acc,
                         size_t accstride, uint64_t &kept,
                         uint64_t &skipped)
{
    weightedSumRows<Bf16Rows>(e, ne, estride, rows, count, n, stride,
                              threshold, running_sums, acc, accstride,
                              kept, skipped);
}

void
dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                const int8_t *rows, size_t count, size_t n,
                size_t stride, float scale, float zero, float *out,
                size_t ostride)
{
    dotRows<I8Rows, float, float>(x, nx, xstride, rows, count, n, stride,
                                  scale, zero, out, ostride);
}

void
weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                       const int8_t *rows, size_t count, size_t n,
                       size_t stride, float scale, float zero,
                       float threshold, double *running_sums, float *acc,
                       size_t accstride, uint64_t &kept,
                       uint64_t &skipped)
{
    weightedSumRows<I8Rows, float, float>(
        e, ne, estride, rows, count, n, stride, scale, zero, threshold,
        running_sums, acc, accstride, kept, skipped);
}

namespace {

/**
 * Canonical chunk-summary bound (see kernels.hh): the bf16-style
 * 8-lane walk, each lane adding (a > b) ? a : b of the two
 * single-rounded products — exactly vmaxps's select (second operand
 * wins on equality), so the AVX2 backend's mul/mul/max/add chain is
 * replayed bit for bit — then the fixed pairwise reduction and a
 * scalar tail.
 */
float
chunkBoundOne(const float *x, const float *lo, const float *hi, size_t n)
{
    float lane[8] = {0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f, 0.f};
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        for (size_t j = 0; j < 8; ++j) {
            const float a = x[i + j] * hi[i + j];
            const float b = x[i + j] * lo[i + j];
            lane[j] += (a > b) ? a : b;
        }
    }
    float r = reduceLanes(lane);
    for (; i < n; ++i) {
        const float a = x[i] * hi[i];
        const float b = x[i] * lo[i];
        r += (a > b) ? a : b;
    }
    return r;
}

} // namespace

void
quantizeI8(const float *x, size_t n, float zero, float inv_scale,
           int8_t *q)
{
    for (size_t e = 0; e < n; ++e) {
        const float v = (x[e] - zero) * inv_scale;
        // NaN fails both tests.
        const long r = (v >= -2147483648.f && v < 2147483648.f)
                           ? std::lrintf(v)
                           : std::numeric_limits<int32_t>::min();
        q[e] = static_cast<int8_t>(std::clamp<long>(r, -128, 127));
    }
}

void
chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                const float *lo, const float *hi, size_t count, size_t n,
                size_t stride, float *out, size_t ostride)
{
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        for (size_t c = 0; c < count; ++c)
            out[q * ostride + c] =
                chunkBoundOne(xq, lo + c * stride, hi + c * stride, n);
    }
}

namespace {

// Blocked inner kernel: accumulate a (4 x n) strip of C from a
// (4 x kc) strip of A and a (kc x n) panel of B.
void
gemmStrip4(const float *a, const float *b, float *c,
           size_t kc, size_t n, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t p = 0; p < kc; ++p) {
        const float a0 = a[0 * lda + p];
        const float a1 = a[1 * lda + p];
        const float a2 = a[2 * lda + p];
        const float a3 = a[3 * lda + p];
        const float *brow = b + p * ldb;
        for (size_t j = 0; j < n; ++j) {
            const float bj = brow[j];
            c[0 * ldc + j] += a0 * bj;
            c[1 * ldc + j] += a1 * bj;
            c[2 * ldc + j] += a2 * bj;
            c[3 * ldc + j] += a3 * bj;
        }
    }
}

} // namespace

void
gemm(const float *a, const float *b, float *c,
     size_t m, size_t k, size_t n, bool accumulate)
{
    if (!accumulate) {
        for (size_t r = 0; r < m; ++r)
            std::memset(c + r * n, 0, n * sizeof(float));
    }

    // Panel size along k chosen so a B panel (kc x n) of a typical
    // MemNN layer stays resident in L1/L2 while four C rows accumulate.
    constexpr size_t kc_block = 256;

    size_t r = 0;
    for (; r + 4 <= m; r += 4) {
        for (size_t p0 = 0; p0 < k; p0 += kc_block) {
            const size_t kc = std::min(kc_block, k - p0);
            gemmStrip4(a + r * k + p0, b + p0 * n, c + r * n,
                       kc, n, k, n, n);
        }
    }
    for (; r < m; ++r) {
        for (size_t p = 0; p < k; ++p)
            axpy(a[r * k + p], b + p * n, c + r * n, n);
    }
}

void
expInplace(float *x, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        x[i] = std::exp(x[i]);
}

void
expShiftInplace(float *x, size_t n, float k)
{
    // The SIMD tiers' decomposition x = n*ln2 + r, with e^r from libm:
    // e^r depends on x alone, so shifts change results by exact
    // powers of two (see kernels.hh).
    for (size_t i = 0; i < n; ++i) {
        if (std::isnan(x[i]))
            continue;
        const float fx = std::floor(x[i] * 1.44269504088896341f + 0.5f);
        const float e = fx - k;
        if (e > 127.f) {
            x[i] = std::numeric_limits<float>::infinity();
        } else if (!(e >= -126.f)) { // NaN too (k = -inf)
            x[i] = 0.f;
        } else {
            const float r = x[i] - fx * 0.693359375f
                            - fx * -2.12194440e-4f;
            x[i] = std::ldexp(std::exp(r), static_cast<int>(e));
        }
    }
}

} // namespace mnnfast::blas::scalar
