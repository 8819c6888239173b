/**
 * @file
 * Kernel dispatch layer: binds the public blas:: entry points to one
 * kernel tier — the scalar reference (kernels_scalar.cc), AVX2+FMA
 * (kernels_avx2.cc) or AVX-512 (kernels_avx512.cc). The tier is chosen
 * exactly once, at first use: the widest the host CPU supports, capped
 * by the MNNFAST_KERNELS environment variable. Composite kernels (gemv,
 * softmax, ...) are built here on top of the dispatched primitives so
 * every tier shares one definition of the algorithm.
 */

#include "blas/kernels.hh"

#include <cstdlib>
#include <cstring>

#include "blas/kernels_detail.hh"
#include "util/logging.hh"

namespace mnnfast::blas {

namespace {

/** A scalar reference kernel in a fused-kernel slot: the look-ahead,
 *  a hint, is dropped. */
template <auto F>
struct NoLookahead;

template <class... A, void (*F)(A...)>
struct NoLookahead<F>
{
    static void run(A... a, RowLookahead) { F(a...); }
};

detail::KernelTable
scalarTable()
{
    return {
        "scalar",        scalar::dot,          scalar::axpy,
        scalar::scal,    scalar::sum,          scalar::maxElement,
        NoLookahead<scalar::dotBatchMulti>::run,
        NoLookahead<scalar::weightedSumSkipMulti>::run,
        NoLookahead<scalar::dotBatchMultiBf16>::run,
        NoLookahead<scalar::weightedSumSkipMultiBf16>::run,
        NoLookahead<scalar::dotBatchMultiI8>::run,
        NoLookahead<scalar::weightedSumSkipMultiI8>::run,
        scalar::chunkBoundBatch,
        scalar::gemm,    scalar::expInplace,   scalar::expShiftInplace,
    };
}

/** Kernel tiers, narrowest first (the names MNNFAST_KERNELS takes). */
enum Tier { kScalar, kAvx2, kAvx512 };
constexpr const char *kTierNames[] = {"scalar", "avx2", "avx512"};

/**
 * The widest tier MNNFAST_KERNELS allows; unset or empty allows every
 * tier. The cap can only lower the CPUID choice. Any other value is
 * fatal: a mistyped cap must not silently run a different tier than
 * the one asked for.
 */
Tier
tierCap()
{
    const char *env = std::getenv("MNNFAST_KERNELS");
    if (!env || env[0] == '\0')
        return kAvx512;
    for (Tier t : {kScalar, kAvx2, kAvx512})
        if (std::strcmp(env, kTierNames[t]) == 0)
            return t;
    fatal("MNNFAST_KERNELS='%s': expected scalar, avx2 or avx512", env);
}

/** The active tier, resolved once (thread-safe static init). */
const detail::KernelTable &
active()
{
    static const detail::KernelTable table = [] {
        const Tier cap = tierCap();
        if (cap >= kAvx512)
            if (const detail::KernelTable *t = detail::avx512Kernels())
                return *t;
        if (cap >= kAvx2)
            if (const detail::KernelTable *t = detail::avx2Kernels())
                return *t;
        return scalarTable();
    }();
    return table;
}

} // namespace

bool
simdActive()
{
    return std::strcmp(active().name, "scalar") != 0;
}

const char *
kernelBackendName()
{
    return active().name;
}

float
dot(const float *x, const float *y, size_t n)
{
    return active().dot(x, y, n);
}

void
axpy(float alpha, const float *x, float *y, size_t n)
{
    active().axpy(alpha, x, y, n);
}

void
scal(float alpha, float *x, size_t n)
{
    active().scal(alpha, x, n);
}

void
zero(float *x, size_t n)
{
    // n == 0 may come with a null pointer (e.g. an empty arena span),
    // which memset's nonnull contract forbids even for zero bytes.
    if (n > 0)
        std::memset(x, 0, n * sizeof(float));
}

void
copy(const float *src, float *dst, size_t n)
{
    if (n > 0)
        std::memcpy(dst, src, n * sizeof(float));
}

float
sum(const float *x, size_t n)
{
    return active().sum(x, n);
}

float
maxElement(const float *x, size_t n)
{
    mnn_assert(n > 0, "maxElement of empty vector");
    return active().maxElement(x, n);
}

void
dotBatchMulti(const float *x, size_t nx, size_t xstride,
              const float *rows, size_t count, size_t n, size_t stride,
              float *out, size_t ostride, RowLookahead ahead)
{
    mnn_assert(stride >= n && xstride >= n && ostride >= count,
               "dotBatchMulti stride shorter than row length");
    active().dotBatchMulti(x, nx, xstride, rows, count, n, stride, out,
                           ostride, ahead);
}

void
weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                     const float *rows, size_t count, size_t n,
                     size_t stride, float threshold,
                     double *running_sums, float *acc, size_t accstride,
                     uint64_t &kept, uint64_t &skipped, RowLookahead ahead)
{
    mnn_assert(stride >= n && accstride >= n && estride >= count,
               "weightedSumSkipMulti stride shorter than row length");
    active().weightedSumSkipMulti(e, ne, estride, rows, count, n, stride,
                                  threshold, running_sums, acc,
                                  accstride, kept, skipped, ahead);
}

void
dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                  const uint16_t *rows, size_t count, size_t n,
                  size_t stride, float *out, size_t ostride,
                  RowLookahead ahead)
{
    mnn_assert(stride >= n && xstride >= n && ostride >= count,
               "dotBatchMultiBf16 stride shorter than row length");
    active().dotBatchMultiBf16(x, nx, xstride, rows, count, n, stride,
                               out, ostride, ahead);
}

void
weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                         const uint16_t *rows, size_t count, size_t n,
                         size_t stride, float threshold,
                         double *running_sums, float *acc,
                         size_t accstride, uint64_t &kept,
                         uint64_t &skipped, RowLookahead ahead)
{
    mnn_assert(stride >= n && accstride >= n && estride >= count,
               "weightedSumSkipMultiBf16 stride shorter than row length");
    active().weightedSumSkipMultiBf16(e, ne, estride, rows, count, n,
                                      stride, threshold, running_sums,
                                      acc, accstride, kept, skipped,
                                      ahead);
}

void
dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                const int8_t *rows, size_t count, size_t n,
                size_t stride, float scale, float zero, float *out,
                size_t ostride, RowLookahead ahead)
{
    mnn_assert(stride >= n && xstride >= n && ostride >= count,
               "dotBatchMultiI8 stride shorter than row length");
    active().dotBatchMultiI8(x, nx, xstride, rows, count, n, stride,
                             scale, zero, out, ostride, ahead);
}

void
weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                       const int8_t *rows, size_t count, size_t n,
                       size_t stride, float scale, float zero,
                       float threshold, double *running_sums, float *acc,
                       size_t accstride, uint64_t &kept,
                       uint64_t &skipped, RowLookahead ahead)
{
    mnn_assert(stride >= n && accstride >= n && estride >= count,
               "weightedSumSkipMultiI8 stride shorter than row length");
    active().weightedSumSkipMultiI8(e, ne, estride, rows, count, n,
                                    stride, scale, zero, threshold,
                                    running_sums, acc, accstride, kept,
                                    skipped, ahead);
}

void
chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                const float *lo, const float *hi, size_t count, size_t n,
                size_t stride, float *out, size_t ostride)
{
    mnn_assert(stride >= n && xstride >= n && ostride >= count,
               "chunkBoundBatch stride shorter than row length");
    active().chunkBoundBatch(x, nx, xstride, lo, hi, count, n, stride,
                             out, ostride);
}

void
gemv(const float *a, size_t rows, size_t cols, const float *x, float *y)
{
    active().dotBatchMulti(x, 1, cols, a, rows, cols, cols, y, rows, {});
}

void
gemvT(const float *a, size_t rows, size_t cols, const float *x, float *y)
{
    zero(y, cols);
    for (size_t r = 0; r < rows; ++r)
        active().axpy(x[r], a + r * cols, y, cols);
}

void
gemm(const float *a, const float *b, float *c,
     size_t m, size_t k, size_t n, bool accumulate)
{
    active().gemm(a, b, c, m, k, n, accumulate);
}

void
expInplace(float *x, size_t n)
{
    active().expInplace(x, n);
}

void
expShiftInplace(float *x, size_t n, float shift)
{
    active().expShiftInplace(x, n, shift);
}

void
softmax(float *x, size_t n)
{
    if (n == 0)
        return;
    const float m = maxElement(x, n);
    expShiftInplace(x, n, m);
    const float s = sum(x, n);
    scal(1.0f / s, x, n);
}

void
softmaxRaw(float *x, size_t n)
{
    if (n == 0)
        return;
    // e^x overflows float above ~88.7; past that the raw quotient is
    // inf/inf = NaN. Route large-logit inputs through the shifted
    // path, which is the same quotient algebraically.
    const float m = maxElement(x, n);
    if (m > 80.0f) {
        expShiftInplace(x, n, m);
    } else {
        expInplace(x, n);
    }
    const float s = sum(x, n);
    scal(1.0f / s, x, n);
}

} // namespace mnnfast::blas
