/**
 * @file
 * AVX2+FMA kernel tier.
 *
 * This translation unit is compiled with -mavx2 -mfma on x86-64 (see
 * src/CMakeLists.txt) and degrades to a nullptr stub elsewhere, so the
 * rest of the library never needs target attributes. Nothing here is
 * reachable unless avx2Kernels() returned a table, which requires the
 * host CPU to report AVX2 and FMA at startup.
 *
 * Kernel shapes (see DESIGN.md "Kernel architecture & dispatch"):
 *  - reductions (dot/sum/max): 4 x 8-lane accumulators, one horizontal
 *    reduce at the end;
 *  - dotBatchMulti / weightedSumSkipMulti: the shared bodies of
 *    kernels_simd.hh over the 256-bit width trait Ymm below. Dots
 *    register-tile 3 queries x 4 rows (twelve fma chains) so each
 *    widened row load feeds three queries, and reduce eight chains at
 *    once (hsum8x8); the weighted sum runs four queries' skip tests in
 *    the lanes of a __m256d and loads each kept row once for every
 *    keeping query;
 *  - exp: Cephes-style polynomial (2^n * P(r) after range reduction),
 *    ~2 ulp, with explicit inf/0 resolution outside [-87.34, 88.38]
 *    so overflow behaves like std::exp;
 *  - gemm: B packed into 16-wide column panels, 4x16 register-tiled
 *    FMA micro-kernel (8 accumulator registers), kc = 256;
 *  - quantizeI8: 32 elements per step, rounding converts plus two
 *    saturating packs.
 *
 * The reductions, exp, gemm, the routing bound and quantizeI8 also
 * serve the AVX-512 tier (kernels_avx512.cc), which replaces only the
 * fused kernels.
 */

#include "blas/kernels_detail.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/kernels_simd.hh"

namespace mnnfast::blas::detail {
namespace {

inline float
hmax8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 m = _mm_max_ps(lo, hi);
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 0x55));
    return _mm_cvtss_f32(m);
}

float
dotAvx2(const float *x, const float *y, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                               _mm256_loadu_ps(y + i + 8), acc1);
        acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16),
                               _mm256_loadu_ps(y + i + 16), acc2);
        acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24),
                               _mm256_loadu_ps(y + i + 24), acc3);
    }
    for (; i + 8 <= n; i += 8) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i), acc0);
    }
    acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                         _mm256_add_ps(acc2, acc3));
    float r = hsum8(acc0);
    for (; i < n; ++i)
        r += x[i] * y[i];
    return r;
}

void
axpyAvx2(float alpha, const float *x, float *y, size_t n)
{
    const __m256 a = _mm256_set1_ps(alpha);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm256_storeu_ps(
            y + i, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(y + i)));
        _mm256_storeu_ps(
            y + i + 8, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i + 8),
                                       _mm256_loadu_ps(y + i + 8)));
    }
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(
            y + i, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(y + i)));
    }
    for (; i < n; ++i)
        y[i] += alpha * x[i];
}

void
scalAvx2(float alpha, float *x, size_t n)
{
    const __m256 a = _mm256_set1_ps(alpha);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i,
                         _mm256_mul_ps(a, _mm256_loadu_ps(x + i)));
    for (; i < n; ++i)
        x[i] *= alpha;
}

float
sumAvx2(const float *x, size_t n)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(x + i));
        acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(x + i + 8));
        acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(x + i + 16));
        acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(x + i + 24));
    }
    for (; i + 8 <= n; i += 8)
        acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(x + i));
    acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                         _mm256_add_ps(acc2, acc3));
    float r = hsum8(acc0);
    for (; i < n; ++i)
        r += x[i];
    return r;
}

float
maxElementAvx2(const float *x, size_t n)
{
    // vmaxps returns its second operand when either is NaN, so a NaN
    // can enter or leave the running max depending on where it sits;
    // track NaN lanes separately to give the documented result.
    __m256 acc = _mm256_set1_ps(x[0]);
    __m256 nan = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 v = _mm256_loadu_ps(x + i);
        acc = _mm256_max_ps(acc, v);
        nan = _mm256_or_ps(nan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    }
    float m = hmax8(acc);
    bool any_nan = _mm256_movemask_ps(nan) != 0;
    for (; i < n; ++i) {
        m = std::max(m, x[i]);
        any_nan |= std::isnan(x[i]);
    }
    return any_nan ? std::numeric_limits<float>::quiet_NaN() : m;
}

/**
 * Vector e^x * 2^-k for an integer-valued k, Cephes-style: split
 * x = n*ln2 + r with |r| <= ln2/2, evaluate a degree-6 polynomial for
 * e^r, and scale by 2^(n - k) through the float exponent field. The
 * polynomial depends on x alone, so two shifts give results that
 * differ by exactly 2^(k' - k) wherever both are normal: the column
 * engine rescales its partial sums by such powers of two without
 * rounding. n - k above 127 resolves to +inf and below -126 to 0
 * (std::exp would go on into denormals, a < 1.2e-38 absolute
 * difference); NaN stays NaN.
 */
inline __m256
exp8(__m256 x, __m256 k)
{
    // n = round(x / ln2), computed as floor(x * log2e + 0.5).
    const __m256 fx = _mm256_floor_ps(
        _mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504088896341f),
                        _mm256_set1_ps(0.5f)));

    // r = x - n*ln2, with ln2 split for extra precision.
    __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
    r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);

    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));

    // y *= 2^(n - k) via the exponent field.
    const __m256 lo = _mm256_set1_ps(-126.f), hi = _mm256_set1_ps(127.f);
    const __m256 e = _mm256_sub_ps(fx, k);
    const __m256 over = _mm256_cmp_ps(e, hi, _CMP_GT_OQ);
    const __m256 under = _mm256_cmp_ps(e, lo, _CMP_NGE_UQ); // NaN too
    __m256i bits = _mm256_cvttps_epi32(
        _mm256_min_ps(_mm256_max_ps(e, lo), hi));
    bits = _mm256_add_epi32(bits, _mm256_set1_epi32(127));
    bits = _mm256_slli_epi32(bits, 23);
    y = _mm256_mul_ps(y, _mm256_castsi256_ps(bits));

    y = _mm256_blendv_ps(
        y, _mm256_set1_ps(std::numeric_limits<float>::infinity()), over);
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(), under);
    return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

void
expShiftInplaceAvx2(float *x, size_t n, float k)
{
    const __m256 kv = _mm256_set1_ps(k);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i, exp8(_mm256_loadu_ps(x + i), kv));
    if (i < n) {
        // Tail through the same vector path so results do not depend
        // on where the 8-lane boundary falls.
        float buf[8];
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_storeu_ps(buf, exp8(_mm256_loadu_ps(buf), kv));
        std::memcpy(x + i, buf, (n - i) * sizeof(float));
    }
}

void
expInplaceAvx2(float *x, size_t n)
{
    expShiftInplaceAvx2(x, n, 0.f);
}

// --- gemm: packed-B 4x16 register-tiled micro-kernel ----------------

constexpr size_t kKc = 256; ///< k-panel depth (B panel rows per pack)
constexpr size_t kNr = 16;  ///< micro-kernel width (two YMM registers)

/**
 * Pack the (kc x nf) panel of B starting at `b` (leading dimension
 * ldb, nf a multiple of 16) into tile-major order: for each 16-wide
 * column tile, kc consecutive rows of 16 contiguous floats. The
 * micro-kernel then streams the panel linearly.
 */
void
packB(const float *b, size_t ldb, size_t kc, size_t nf, float *pack)
{
    for (size_t t = 0; t < nf / kNr; ++t) {
        const float *src = b + t * kNr;
        for (size_t p = 0; p < kc; ++p) {
            _mm256_storeu_ps(pack, _mm256_loadu_ps(src));
            _mm256_storeu_ps(pack + 8, _mm256_loadu_ps(src + 8));
            src += ldb;
            pack += kNr;
        }
    }
}

/** C[4 x 16] += A[4 x kc] (lda-strided) * packed B panel tile. */
inline void
micro4x16(const float *a, size_t lda, const float *pb, size_t kc,
          float *c, size_t ldc)
{
    __m256 c00 = _mm256_loadu_ps(c + 0 * ldc);
    __m256 c01 = _mm256_loadu_ps(c + 0 * ldc + 8);
    __m256 c10 = _mm256_loadu_ps(c + 1 * ldc);
    __m256 c11 = _mm256_loadu_ps(c + 1 * ldc + 8);
    __m256 c20 = _mm256_loadu_ps(c + 2 * ldc);
    __m256 c21 = _mm256_loadu_ps(c + 2 * ldc + 8);
    __m256 c30 = _mm256_loadu_ps(c + 3 * ldc);
    __m256 c31 = _mm256_loadu_ps(c + 3 * ldc + 8);
    for (size_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_loadu_ps(pb);
        const __m256 b1 = _mm256_loadu_ps(pb + 8);
        pb += kNr;
        const __m256 a0 = _mm256_broadcast_ss(a + 0 * lda + p);
        c00 = _mm256_fmadd_ps(a0, b0, c00);
        c01 = _mm256_fmadd_ps(a0, b1, c01);
        const __m256 a1 = _mm256_broadcast_ss(a + 1 * lda + p);
        c10 = _mm256_fmadd_ps(a1, b0, c10);
        c11 = _mm256_fmadd_ps(a1, b1, c11);
        const __m256 a2 = _mm256_broadcast_ss(a + 2 * lda + p);
        c20 = _mm256_fmadd_ps(a2, b0, c20);
        c21 = _mm256_fmadd_ps(a2, b1, c21);
        const __m256 a3 = _mm256_broadcast_ss(a + 3 * lda + p);
        c30 = _mm256_fmadd_ps(a3, b0, c30);
        c31 = _mm256_fmadd_ps(a3, b1, c31);
    }
    _mm256_storeu_ps(c + 0 * ldc, c00);
    _mm256_storeu_ps(c + 0 * ldc + 8, c01);
    _mm256_storeu_ps(c + 1 * ldc, c10);
    _mm256_storeu_ps(c + 1 * ldc + 8, c11);
    _mm256_storeu_ps(c + 2 * ldc, c20);
    _mm256_storeu_ps(c + 2 * ldc + 8, c21);
    _mm256_storeu_ps(c + 3 * ldc, c30);
    _mm256_storeu_ps(c + 3 * ldc + 8, c31);
}

/** C[1 x 16] += A[1 x kc] * packed B panel tile (m-remainder rows). */
inline void
micro1x16(const float *a, const float *pb, size_t kc, float *c)
{
    __m256 c0 = _mm256_loadu_ps(c);
    __m256 c1 = _mm256_loadu_ps(c + 8);
    for (size_t p = 0; p < kc; ++p) {
        const __m256 av = _mm256_broadcast_ss(a + p);
        c0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb), c0);
        c1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pb + 8), c1);
        pb += kNr;
    }
    _mm256_storeu_ps(c, c0);
    _mm256_storeu_ps(c + 8, c1);
}

void
gemmAvx2(const float *a, const float *b, float *c,
         size_t m, size_t k, size_t n, bool accumulate)
{
    if (!accumulate) {
        for (size_t r = 0; r < m; ++r)
            std::memset(c + r * n, 0, n * sizeof(float));
    }

    const size_t nf = n / kNr * kNr;
    // Reused packing scratch (kernels.hh). thread_local keeps gemm
    // reentrant across pool workers; AlignedScratch has internal
    // linkage, so no weak symbol built with AVX2 flags leaves this
    // object (tests/tier_symbols.sh).
    thread_local AlignedScratch packscratch;

    for (size_t p0 = 0; p0 < k; p0 += kKc) {
        const size_t kc = std::min(kKc, k - p0);
        if (nf > 0) {
            float *packbuf = packscratch.get(kc * nf);
            packB(b + p0 * n, n, kc, nf, packbuf);
            size_t r = 0;
            for (; r + 4 <= m; r += 4) {
                for (size_t t = 0; t < nf / kNr; ++t)
                    micro4x16(a + r * k + p0, k,
                              packbuf + t * kc * kNr, kc,
                              c + r * n + t * kNr, n);
            }
            for (; r < m; ++r) {
                for (size_t t = 0; t < nf / kNr; ++t)
                    micro1x16(a + r * k + p0,
                              packbuf + t * kc * kNr, kc,
                              c + r * n + t * kNr);
            }
        }
        // Column remainder (n % 16) straight out of B.
        if (nf < n) {
            for (size_t r = 0; r < m; ++r) {
                float *crow = c + r * n;
                for (size_t p = p0; p < p0 + kc; ++p) {
                    const float av = a[r * k + p];
                    const float *brow = b + p * n;
                    for (size_t j = nf; j < n; ++j)
                        crow[j] += av * brow[j];
                }
            }
        }
    }
}

/**
 * Canonical chunk-summary bound (see kernels.hh): 8-wide
 * mul/mul/max/add over the body — vmaxps selects the second operand
 * on equality, which the scalar backend's (a > b) ? a : b replays —
 * then hsum8's pairwise reduction and a scalar tail.
 */
float
chunkBoundAvx2(const float *x, const float *lo, const float *hi,
               size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 xv = _mm256_loadu_ps(x + i);
        const __m256 a = _mm256_mul_ps(xv, _mm256_loadu_ps(hi + i));
        const __m256 b = _mm256_mul_ps(xv, _mm256_loadu_ps(lo + i));
        acc = _mm256_add_ps(acc, _mm256_max_ps(a, b));
    }
    float r = hsum8(acc);
    for (; i < n; ++i) {
        const float a = x[i] * hi[i];
        const float b = x[i] * lo[i];
        r += (a > b) ? a : b;
    }
    return r;
}

void
chunkBoundBatchAvx2(const float *x, size_t nx, size_t xstride,
                    const float *lo, const float *hi, size_t count,
                    size_t n, size_t stride, float *out, size_t ostride)
{
    // The summary block is tiny next to the KB sweep it gates (two
    // fp32 rows per *chunk*), so a plain per-(query, summary) loop is
    // enough; the canonical per-pair order keeps results independent
    // of any future tiling.
    for (size_t q = 0; q < nx; ++q) {
        const float *xq = x + q * xstride;
        float *o = out + q * ostride;
        for (size_t c = 0; c < count; ++c)
            o[c] = chunkBoundAvx2(xq, lo + c * stride, hi + c * stride,
                                  n);
    }
}

void
quantizeI8Avx2(const float *x, size_t n, float zero, float inv_scale,
               int8_t *q)
{
    // cvtps2dq rounds to nearest even (the default MXCSR) and returns
    // INT_MIN for NaN, infinities and the out-of-range; the signed
    // saturating packs clamp to [-128, 127]. The packs interleave the
    // 128-bit lanes, so the last step puts the 32 bytes back in order.
    const __m256 zv = _mm256_set1_ps(zero), iv = _mm256_set1_ps(inv_scale);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    auto code = [&](const float *p) {
        return _mm256_cvtps_epi32(
            _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(p), zv), iv));
    };
    size_t e = 0;
    for (; e + 32 <= n; e += 32) {
        const __m256i ab = _mm256_packs_epi32(code(x + e), code(x + e + 8));
        const __m256i cd =
            _mm256_packs_epi32(code(x + e + 16), code(x + e + 24));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(q + e),
            _mm256_permutevar8x32_epi32(_mm256_packs_epi16(ab, cd), order));
    }
    for (; e < n; ++e) {
        const int r = _mm_cvtss_si32(_mm_set_ss((x[e] - zero) * inv_scale));
        q[e] = static_cast<int8_t>(r < -128 ? -128 : r > 127 ? 127 : r);
    }
}

constexpr KernelTable kAvx2Table = fusedTable<Ymm>(
    {
        "avx2",         dotAvx2,          axpyAvx2,
        scalAvx2,       sumAvx2,          maxElementAvx2,
        nullptr,        nullptr,          nullptr,
        nullptr,        nullptr,          nullptr,
        chunkBoundBatchAvx2,
        gemmAvx2,       expInplaceAvx2,   expShiftInplaceAvx2,
        quantizeI8Avx2,
    },
    "avx2");

} // namespace

const KernelTable *
avx2Kernels()
{
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        return &kAvx2Table;
    return nullptr;
}

} // namespace mnnfast::blas::detail

#else // !(__AVX2__ && __FMA__)

namespace mnnfast::blas::detail {

const KernelTable *
avx2Kernels()
{
    return nullptr;
}

} // namespace mnnfast::blas::detail

#endif
