/**
 * @file
 * AVX2+FMA kernel backend.
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
 *  - dotBatchMulti / weightedSumSkipMulti: one template each over a
 *    row-decode policy (F32Rows, Bf16Rows, I8Rows). Dots register-tile
 *    3 queries x 4 rows (twelve fma chains) so each widened row load
 *    feeds three queries, and reduce eight chains at once (hsum8x8);
 *    the weighted sum runs four queries' skip tests in vector lanes
 *    and loads each kept row once for every keeping query;
 *  - exp: Cephes-style polynomial (2^n * P(r) after range reduction),
 *    ~2 ulp, with explicit inf/0 resolution outside [-87.34, 88.38]
 *    so overflow behaves like std::exp;
 *  - gemm: B packed into 16-wide column panels, 4x16 register-tiled
 *    FMA micro-kernel (8 accumulator registers), kc = 256.
 */

#include "blas/kernels_detail.hh"

#include "blas/kernels.hh" // kWsumQueryTile
#include "util/bf16.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace mnnfast::blas::detail {
namespace {

inline float
hsum8(__m256 v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
    return _mm_cvtss_f32(s);
}

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

/**
 * Query sum of the factored i8 dot: the canonical order with adds for
 * fmas (vertical 8-lane adds, hsum8, scalar tail).
 */
float
querySum(const float *x, size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_add_ps(acc, _mm256_loadu_ps(x + i));
    float r = hsum8(acc);
    for (; i < n; ++i)
        r += x[i];
    return r;
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

// --- Row-decode policies ----------------------------------------------
//
// dotBatchMulti and weightedSumSkipMulti are written once below, over
// one policy per storage precision (contract in kernels.hh): widen8 /
// widen1 turn stored elements into exact fp32, fold / fold4 are the
// dot's epilogue for one or four sums, and dequant8 / dequant1 map a
// widened weighted-sum element through the precision's code. The
// traits switch on streaming aids that only the int8 sweeps need; the
// raw-storage policies leave them off, so their instantiations are
// plain tiled loops.

/** Identity code, no streaming aids: shared by F32Rows and Bf16Rows. */
struct RawCode
{
    /** Rows the sweeps prefetch ahead of the compute (0 = none). */
    static constexpr size_t kPrefetchRows = 0;
    /** Row-tile height for a lone query's (nx == 1) dot sweep. */
    static constexpr size_t kLoneQueryRows = 4;
    /** Single-query weighted sums scan skips first (see below). */
    static constexpr bool kTwoPassSingleQuery = false;

    float queryBias(const float *, size_t) const { return 0.f; }
    // Identity, not fma(1, s, 0): that would turn -0 into +0.
    float fold(float s, float) const { return s; }
    __m128 fold4(__m128 s, float) const { return s; }
    __m256 dequant8(__m256 v) const { return v; }
    float dequant1(float v) const { return v; }
};

struct F32Rows : RawCode
{
    using Elem = float;
    static __m256 widen8(const float *p) { return _mm256_loadu_ps(p); }
    static float widen1(float v) { return v; }
};

struct Bf16Rows : RawCode
{
    using Elem = uint16_t;

    /** Zero-extend to 32 bits and shift into the high half: exact. */
    static __m256
    widen8(const uint16_t *p)
    {
        const __m128i h =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
    }
    static float widen1(uint16_t v) { return bf16ToFloat(v); }
};

/**
 * int8 rows under one affine code (value = scale * q + zero). The dot
 * is factored as fma(scale, rawdot, zero * qsum(x)), and each weighted
 * sum element is dequantized as fma(scale, q, zero).
 *
 * Streaming aids: a sweep retires 64 elements per cache line, so the
 * out-of-order window alone holds too few line fills in flight to
 * cover L3 latency (f32 turns lines over 4x faster). The sweeps
 * therefore prefetch kPrefetchRows ahead, a lone query (nx == 1) runs
 * 8-row tiles (eight independent chains and eight line streams), and a
 * single-query weighted sum, whose skip rate is high, resolves its
 * skip decisions first and then streams only the kept rows.
 */
struct I8Rows
{
    using Elem = int8_t;
    static constexpr size_t kPrefetchRows = 8;
    static constexpr size_t kLoneQueryRows = 8;
    static constexpr bool kTwoPassSingleQuery = true;

    float scale, zero;

    /** Sign-extend to 32 bits, then convert: exact for int8. */
    static __m256
    widen8(const int8_t *p)
    {
        const __m128i b =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
        return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
    }
    static float widen1(int8_t v) { return static_cast<float>(v); }

    float queryBias(const float *x, size_t n) const
    {
        return zero * querySum(x, n);
    }
    float fold(float s, float bias) const
    {
        return std::fma(scale, s, bias);
    }
    __m128 fold4(__m128 s, float bias) const
    {
        return _mm_fmadd_ps(_mm_set1_ps(scale), s, _mm_set1_ps(bias));
    }
    __m256 dequant8(__m256 v) const
    {
        return _mm256_fmadd_ps(_mm256_set1_ps(scale), v,
                               _mm256_set1_ps(zero));
    }
    float dequant1(float v) const { return std::fma(scale, v, zero); }
};

/**
 * Prefetch one row (n elements) into L1. Hint-only: never changes
 * results.
 *
 * Look-ahead indices are deliberately NOT clamped to the call's row
 * count: the engines sweep one contiguous matrix in strip-sized
 * calls, so rows past this call are almost always the next call's
 * rows, and clamping would stall the stream at every strip boundary.
 * At the true end of the matrix the prefetch reaches at most
 * kPrefetchRows rows past the allocation — prefetch instructions
 * never fault, so this is harmless.
 */
template <class P>
inline void
prefetchRow(const typename P::Elem *row, size_t n)
{
    const char *p = reinterpret_cast<const char *>(row);
    for (size_t b = 0; b < n * sizeof(typename P::Elem); b += 64)
        _mm_prefetch(p + b, _MM_HINT_T0);
}

// --- dotBatchMulti ------------------------------------------------------

/**
 * hsum8 of eight vectors at once: lane k of the result is hsum8(v[k])
 * bit for bit. Every lane takes hsum8's adds with the same operands in
 * the same order — lo + hi, then lanes 0,1 plus lanes 2,3, then lane 0
 * plus lane 1 — only transposed across registers, so eight dots cost
 * three add layers instead of eight serial reductions.
 */
inline __m256
hsum8x8(const __m256 (&v)[8])
{
    // lo + hi: lanes 0-3 of s[k] belong to v[k], lanes 4-7 to v[k + 4].
    __m256 s[4];
#pragma GCC unroll 4
    for (size_t k = 0; k < 4; ++k)
        s[k] = _mm256_add_ps(_mm256_permute2f128_ps(v[k], v[k + 4], 0x20),
                             _mm256_permute2f128_ps(v[k], v[k + 4], 0x31));
    // Lanes 0,1 plus lanes 2,3: two vectors per shuffle pair.
    const __m256 t01 =
        _mm256_add_ps(_mm256_shuffle_ps(s[0], s[1], _MM_SHUFFLE(1, 0, 1, 0)),
                      _mm256_shuffle_ps(s[0], s[1], _MM_SHUFFLE(3, 2, 3, 2)));
    const __m256 t23 =
        _mm256_add_ps(_mm256_shuffle_ps(s[2], s[3], _MM_SHUFFLE(1, 0, 1, 0)),
                      _mm256_shuffle_ps(s[2], s[3], _MM_SHUFFLE(3, 2, 3, 2)));
    // Lane 0 plus lane 1.
    return _mm256_add_ps(
        _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm256_shuffle_ps(t01, t23, _MM_SHUFFLE(3, 1, 3, 1)));
}

/**
 * One NQ-query x NR-row register tile of the canonical dot: per pair
 * ONE 8-lane fma chain over the body (each widened row load feeds
 * every query of the tile), hsum8's pairwise reduction, an fma tail,
 * then the policy's fold. Pairs never share a chain, so the tile
 * shape never changes bits. Tiles of at least eight pairs (2-3
 * queries x 4 rows, the int8 lone query's 8 rows) reduce through
 * hsum8x8 and finish four rows per vector (the tail fma and the fold
 * are elementwise, so a lane computes exactly the scalar steps).
 * Smaller tiles reduce each chain with hsum8: a half-empty hsum8x8
 * made the lone f32 query's sweep slower.
 */
template <size_t NQ, size_t NR, class P>
inline void
dotTile(const P &p, const float *const *xq, const float *bias,
        const typename P::Elem *rows, size_t stride, size_t n,
        float *const *oq, size_t r)
{
    static_assert(NR == 1 || NR % 4 == 0, "row tile: 1 or 4k rows");
    const typename P::Elem *row[NR];
#pragma GCC unroll 8
    for (size_t k = 0; k < NR; ++k) {
        row[k] = rows + (r + k) * stride;
        if constexpr (P::kPrefetchRows > 0)
            prefetchRow<P>(row[k] + P::kPrefetchRows * stride, n);
    }
    __m256 acc[NQ][NR];
#pragma GCC unroll 3
    for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 8
        for (size_t k = 0; k < NR; ++k)
            acc[q][k] = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 xv[NQ];
#pragma GCC unroll 3
        for (size_t q = 0; q < NQ; ++q)
            xv[q] = _mm256_loadu_ps(xq[q] + i);
#pragma GCC unroll 8
        for (size_t k = 0; k < NR; ++k) {
            const __m256 rv = P::widen8(row[k] + i);
#pragma GCC unroll 3
            for (size_t q = 0; q < NQ; ++q)
                acc[q][k] = _mm256_fmadd_ps(xv[q], rv, acc[q][k]);
        }
    }
    if constexpr (NQ * NR < 8) {
        float s[NQ][NR];
#pragma GCC unroll 3
        for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 4
            for (size_t k = 0; k < NR; ++k)
                s[q][k] = hsum8(acc[q][k]);
        for (; i < n; ++i) {
#pragma GCC unroll 4
            for (size_t k = 0; k < NR; ++k) {
                const float rv = P::widen1(row[k][i]);
#pragma GCC unroll 3
                for (size_t q = 0; q < NQ; ++q)
                    s[q][k] = std::fma(xq[q][i], rv, s[q][k]);
            }
        }
#pragma GCC unroll 3
        for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 4
            for (size_t k = 0; k < NR; ++k)
                oq[q][r + k] = p.fold(s[q][k], bias[q]);
    } else {
        // The NQ * NR sums, four rows of one query per vector, reduced
        // eight chains at a time in (query, row) order; an odd last
        // half (3 x 4) is padded by repeating its neighbour.
        constexpr size_t kSums = NQ * NR, kGroups = NR / 4;
        __m128 s[NQ][kGroups];
#pragma GCC unroll 3
        for (size_t b = 0; b < kSums; b += 8) {
            __m256 v[8];
#pragma GCC unroll 8
            for (size_t j = 0; j < 8; ++j) {
                const size_t f = b + j < kSums ? b + j : b + j - 4;
                v[j] = acc[f / NR][f % NR];
            }
            const __m256 h = hsum8x8(v);
            s[b / NR][b % NR / 4] = _mm256_castps256_ps128(h);
            if (b + 4 < kSums)
                s[(b + 4) / NR][(b + 4) % NR / 4] =
                    _mm256_extractf128_ps(h, 1);
        }
        for (; i < n; ++i) {
#pragma GCC unroll 2
            for (size_t g = 0; g < kGroups; ++g) {
                const __m128 rv = _mm_setr_ps(
                    P::widen1(row[4 * g][i]), P::widen1(row[4 * g + 1][i]),
                    P::widen1(row[4 * g + 2][i]),
                    P::widen1(row[4 * g + 3][i]));
#pragma GCC unroll 3
                for (size_t q = 0; q < NQ; ++q)
                    s[q][g] =
                        _mm_fmadd_ps(_mm_set1_ps(xq[q][i]), rv, s[q][g]);
            }
        }
#pragma GCC unroll 3
        for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 2
            for (size_t g = 0; g < kGroups; ++g)
                _mm_storeu_ps(oq[q] + r + 4 * g, p.fold4(s[q][g], bias[q]));
    }
}

/**
 * NQ queries against every row: the widest row tile first, then 4-row
 * groups, then single rows.
 */
template <size_t NQ, class P>
void
dotQueries(const P &p, const float *x, size_t xstride,
           const typename P::Elem *rows, size_t count, size_t n,
           size_t stride, float *out, size_t ostride)
{
    const float *xq[NQ];
    float *oq[NQ];
    float bias[NQ];
    for (size_t q = 0; q < NQ; ++q) {
        xq[q] = x + q * xstride;
        oq[q] = out + q * ostride;
        bias[q] = p.queryBias(xq[q], n);
    }
    constexpr size_t kRows = NQ == 1 ? P::kLoneQueryRows : 4;
    size_t r = 0;
    for (; r + kRows <= count; r += kRows)
        dotTile<NQ, kRows>(p, xq, bias, rows, stride, n, oq, r);
    if constexpr (kRows > 4) {
        for (; r + 4 <= count; r += 4)
            dotTile<NQ, 4>(p, xq, bias, rows, stride, n, oq, r);
    }
    for (; r < count; ++r)
        dotTile<NQ, 1>(p, xq, bias, rows, stride, n, oq, r);
}

/**
 * The batched dot for every precision. `code` is the policy's
 * constructor arguments (i8: scale, zero; none for f32/bf16), placed
 * where the public signature has them. Queries run in triples (3 x 4
 * tiles: twelve independent fma chains, enough to cover fma latency
 * at two fmas per cycle), then pairs; nx % 3 == 1 ends in two pairs,
 * so a lone query runs only when nx == 1.
 */
template <class P, class... Code>
void
dotBatchMultiAvx2(const float *x, size_t nx, size_t xstride,
                  const typename P::Elem *rows, size_t count, size_t n,
                  size_t stride, Code... code, float *out,
                  size_t ostride)
{
    const P p{code...};
    if (nx == 1) {
        dotQueries<1>(p, x, xstride, rows, count, n, stride, out, ostride);
        return;
    }
    const size_t pairs = (3 - nx % 3) % 3;
    size_t q = 0;
    for (; q + 2 * pairs < nx; q += 3)
        dotQueries<3>(p, x + q * xstride, xstride, rows, count, n, stride,
                      out + q * ostride, ostride);
    for (; q < nx; q += 2)
        dotQueries<2>(p, x + q * xstride, xstride, rows, count, n, stride,
                      out + q * ostride, ostride);
}

// --- weightedSumSkipMulti -----------------------------------------------

/**
 * Accumulate one kept row into nk <= NK accumulators: each 8-lane
 * block is widened and dequantized once, then fma'd into every dst[j]
 * while it sits in a register; tail elements take the same
 * single-rounded fma. The update is elementwise, so interleaving
 * queries never changes bits. (The arrays are taken by reference so
 * the compiler sees the NK bound and keeps the weights in registers.)
 */
template <size_t NK, class P>
inline void
accumulateRow(const P &p, const typename P::Elem *row, size_t n,
              const float (&alpha)[NK], float *const (&dst)[NK],
              size_t nk)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 rv = p.dequant8(P::widen8(row + i));
        for (size_t j = 0; j < nk; ++j) {
            _mm256_storeu_ps(
                dst[j] + i,
                _mm256_fmadd_ps(_mm256_set1_ps(alpha[j]), rv,
                                _mm256_loadu_ps(dst[j] + i)));
        }
    }
    for (; i < n; ++i) {
        const float ri = p.dequant1(P::widen1(row[i]));
        for (size_t j = 0; j < nk; ++j)
            dst[j][i] = std::fma(alpha[j], ri, dst[j][i]);
    }
}

/**
 * Single-query two-pass sweep (P::kTwoPassSingleQuery): pass A is a
 * branchless scan that advances the running sum with exactly the
 * serial double adds and skip predicate of the scalar loop,
 * compacting the kept rows' indices and weights; pass B streams ONLY
 * the kept rows, prefetching ahead through the index list. A blind
 * look-ahead would prefetch every row (the decision isn't known yet),
 * which at a 15% keep rate wastes ~6x the M_OUT bandwidth. Kept rows
 * are accumulated in the same ascending order with the same
 * arithmetic, so outputs are bit-identical to the scalar loop.
 */
template <class P>
void
weightedSumTwoPass(const P &p, const float *e,
                   const typename P::Elem *rows, size_t count, size_t n,
                   size_t stride, float threshold, double &running_sum,
                   float *acc, uint64_t &kept, uint64_t &skipped)
{
    constexpr size_t kBlock = 512;
    uint32_t idx[kBlock];
    float evk[kBlock];
    for (size_t b0 = 0; b0 < count; b0 += kBlock) {
        const size_t b1 = std::min(b0 + kBlock, count);
        double s = running_sum;
        size_t nkept = 0;
        for (size_t r = b0; r < b1; ++r) {
            const float ev = e[r];
            s += ev;
            const bool skip =
                threshold > 0.f && double(ev) < double(threshold) * s;
            idx[nkept] = static_cast<uint32_t>(r);
            evk[nkept] = ev;
            nkept += !skip;
        }
        running_sum = s;
        kept += nkept;
        skipped += (b1 - b0) - nkept;
        for (size_t j = 0; j < std::min(P::kPrefetchRows, nkept); ++j)
            prefetchRow<P>(rows + idx[j] * stride, n);
        for (size_t j = 0; j < nkept; ++j) {
            if (j + P::kPrefetchRows < nkept)
                prefetchRow<P>(rows + idx[j + P::kPrefetchRows] * stride,
                               n);
            const float alpha[1] = {evk[j]};
            float *const dst[1] = {acc};
            accumulateRow(p, rows + idx[j] * stride, n, alpha, dst, 1);
        }
    }
}

/**
 * The kept side of one scanned row: gather the queries whose bit is
 * set in `keep` (bit q = query q, whose e value is lane q % 4 of
 * e0..e3[q / 4]) in ascending order and accumulate the row into them;
 * returns how many kept it. Out of line, and fed by value so the scan's e tile and
 * decisions stay in registers: kept rows are rare, and inlining this
 * into every step of the unrolled scan multiplied its code size for
 * no speed.
 */
template <class P>
[[gnu::noinline]] size_t
keepRow(const P &p, __m128 e0, __m128 e1, __m128 e2, __m128 e3,
        unsigned keep, const typename P::Elem *row, size_t n, float *acc,
        size_t accstride)
{
    alignas(16) float ef[16];
    _mm_store_ps(ef, e0);
    _mm_store_ps(ef + 4, e1);
    _mm_store_ps(ef + 8, e2);
    _mm_store_ps(ef + 12, e3);
    float alpha[kWsumQueryTile];
    float *dst[kWsumQueryTile];
    size_t nk = 0;
    for (; keep != 0; keep &= keep - 1) {
        const size_t q = size_t(__builtin_ctz(keep));
        alpha[nk] = ef[q];
        dst[nk] = acc + q * accstride;
        ++nk;
    }
    accumulateRow(p, row, n, alpha, dst, nk);
    return nk;
}

/**
 * The zero-skip scan of one query tile (nt <= kWsumQueryTile queries,
 * threshold > 0) in ceil(nt / 4) groups of four: group g's running
 * sums live in one __m256d, and its e values arrive four rows at a
 * time through a 4x4 transpose of the e tile, so lane j of a group
 * performs query j's serial steps — the double add, the double
 * product and `<` — in row order. Decisions therefore match the
 * scalar loop exactly, NaN and inf included. A partial last group
 * (nt % 4 != 0) points its dead lanes at a live query's e row and
 * masks them out of the decisions and the running-sum store; groups
 * past the last are skipped by a loop-invariant branch, so one
 * register-resident body serves every tile size. Kept rows go
 * through keepRow to accumulateRow, as in the all-kept loop; rows
 * are not prefetched (the decision precedes the first touch).
 */
template <class P>
void
weightedSumScan(const P &p, const float *e, size_t nt, size_t estride,
                const typename P::Elem *rows, size_t count, size_t n,
                size_t stride, float threshold, double *running_sums,
                float *acc, size_t accstride, uint64_t &kept,
                uint64_t &skipped)
{
    static_assert(kWsumQueryTile <= 16, "four groups cover a query tile");
    constexpr size_t G = 4;
    const size_t ng = (nt + 3) / 4;
    const unsigned live = (1u << nt) - 1; // bit q = query q is live
    const __m256d thr = _mm256_set1_pd(double(threshold));
    const float *eq[G][4];
    __m256i lanes[G]; // live lanes of group g, as a load/store mask
    __m256d sums[G];
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g) {
        const int64_t glive = int64_t(std::min(nt, 4 * g + 4)) -
                              int64_t(std::min(nt, 4 * g));
        lanes[g] = _mm256_cmpgt_epi64(_mm256_set1_epi64x(glive),
                                      _mm256_setr_epi64x(0, 1, 2, 3));
        for (size_t j = 0; j < 4; ++j)
            eq[g][j] = e + std::min(4 * g + j, nt - 1) * estride;
        sums[g] = _mm256_maskload_pd(running_sums + 4 * g, lanes[g]);
    }

    uint64_t nkept = 0;
    // Skip-test row r with e columns ev[g] (lane j = query 4g + j).
    const auto scanRow = [&](const __m128 (&ev)[G], size_t r) {
        unsigned skip = 0;
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            if (g >= ng)
                break;
            const __m256d ed = _mm256_cvtps_pd(ev[g]);
            sums[g] = _mm256_add_pd(sums[g], ed);
            const __m256d lt =
                _mm256_cmp_pd(ed, _mm256_mul_pd(thr, sums[g]), _CMP_LT_OQ);
            skip |= unsigned(_mm256_movemask_pd(lt)) << (4 * g);
        }
        if (const unsigned keep = ~skip & live)
            nkept += keepRow(p, ev[0], ev[1], ev[2], ev[3], keep,
                             rows + r * stride, n, acc, accstride);
    };

    size_t r = 0;
    for (; r + 4 <= count; r += 4) {
        __m128 t[4][G] = {};
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            if (g >= ng)
                break;
            __m128 c0 = _mm_loadu_ps(eq[g][0] + r);
            __m128 c1 = _mm_loadu_ps(eq[g][1] + r);
            __m128 c2 = _mm_loadu_ps(eq[g][2] + r);
            __m128 c3 = _mm_loadu_ps(eq[g][3] + r);
            _MM_TRANSPOSE4_PS(c0, c1, c2, c3);
            t[0][g] = c0;
            t[1][g] = c1;
            t[2][g] = c2;
            t[3][g] = c3;
        }
#pragma GCC unroll 4
        for (size_t k = 0; k < 4; ++k)
            scanRow(t[k], r + k);
    }
    for (; r < count; ++r) {
        __m128 t[G] = {};
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            if (g >= ng)
                break;
            t[g] = _mm_setr_ps(eq[g][0][r], eq[g][1][r], eq[g][2][r],
                               eq[g][3][r]);
        }
        scanRow(t, r);
    }

#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g)
        _mm256_maskstore_pd(running_sums + 4 * g, lanes[g], sums[g]);
    kept += nkept;
    skipped += nt * count - nkept;
}

/**
 * The zero-skip weighted sum for every precision (`code` as in
 * dotBatchMultiAvx2). Queries run in tiles of kWsumQueryTile (the
 * scatter list is a fixed stack array); tiles are independent, so
 * tiling cannot change results. With a positive threshold,
 * weightedSumScan runs each tile's skip tests across queries in
 * vector lanes. Without one every row is kept, so each row is
 * accumulated into all of the tile's queries at once.
 */
template <class P, class... Code>
void
weightedSumSkipMultiAvx2(const float *e, size_t ne, size_t estride,
                         const typename P::Elem *rows, size_t count,
                         size_t n, size_t stride, Code... code,
                         float threshold, double *running_sums,
                         float *acc, size_t accstride, uint64_t &kept,
                         uint64_t &skipped)
{
    const P p{code...};
    if constexpr (P::kTwoPassSingleQuery) {
        if (ne == 1) {
            weightedSumTwoPass(p, e, rows, count, n, stride, threshold,
                               running_sums[0], acc, kept, skipped);
            return;
        }
    }
    float alpha[kWsumQueryTile];
    float *dst[kWsumQueryTile];
    for (size_t q0 = 0; q0 < ne; q0 += kWsumQueryTile) {
        const size_t q1 = std::min(q0 + kWsumQueryTile, ne);
        if (threshold > 0.f) {
            weightedSumScan(p, e + q0 * estride, q1 - q0, estride, rows,
                            count, n, stride, threshold,
                            running_sums + q0, acc + q0 * accstride,
                            accstride, kept, skipped);
            continue;
        }
        for (size_t q = q0; q < q1; ++q)
            dst[q - q0] = acc + q * accstride;
        for (size_t r = 0; r < count; ++r) {
            // Every row is kept, so the look-ahead is never wasted.
            if constexpr (P::kPrefetchRows > 0)
                prefetchRow<P>(rows + (r + P::kPrefetchRows) * stride, n);
            for (size_t q = q0; q < q1; ++q) {
                const float ev = e[q * estride + r];
                running_sums[q] += ev;
                alpha[q - q0] = ev;
            }
            accumulateRow(p, rows + r * stride, n, alpha, dst, q1 - q0);
        }
        kept += (q1 - q0) * count;
    }
}

/**
 * Vector e^x, Cephes-style: split x = n*ln2 + r with |r| <= ln2/2,
 * evaluate a degree-6 polynomial for e^r, scale by 2^n through the
 * float exponent field. Inputs above 88.376 resolve to +inf and below
 * -87.337 to 0 so the boundary behaviour matches std::exp (the scalar
 * path's denormal outputs flush to zero, a < 1.2e-38 absolute
 * difference).
 */
inline __m256
exp8(__m256 x)
{
    const __m256 hi = _mm256_set1_ps(88.3762626647950f);
    const __m256 lo = _mm256_set1_ps(-87.3365478515625f);
    const __m256 over = _mm256_cmp_ps(x, hi, _CMP_GT_OQ);
    const __m256 under = _mm256_cmp_ps(x, lo, _CMP_LT_OQ);

    __m256 xc = _mm256_min_ps(_mm256_max_ps(x, lo), hi);

    // n = round(x / ln2), computed as floor(x * log2e + 0.5).
    __m256 fx = _mm256_fmadd_ps(xc,
                                _mm256_set1_ps(1.44269504088896341f),
                                _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);

    // r = x - n*ln2, with ln2 split for extra precision.
    __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), xc);
    r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);

    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_fmadd_ps(y, _mm256_mul_ps(r, r), r);
    y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));

    // y *= 2^n via the exponent field.
    __m256i bits = _mm256_cvttps_epi32(fx);
    bits = _mm256_add_epi32(bits, _mm256_set1_epi32(127));
    bits = _mm256_slli_epi32(bits, 23);
    y = _mm256_mul_ps(y, _mm256_castsi256_ps(bits));

    y = _mm256_blendv_ps(
        y, _mm256_set1_ps(std::numeric_limits<float>::infinity()), over);
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(), under);
    // The clamp above maps NaN to `lo` (vmaxps returns its second
    // operand on NaN); blend NaN lanes back from the input, as std::exp.
    return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

void
expInplaceAvx2(float *x, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(x + i, exp8(_mm256_loadu_ps(x + i)));
    if (i < n) {
        // Tail through the same vector path so results do not depend
        // on where the 8-lane boundary falls.
        float buf[8];
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_storeu_ps(buf, exp8(_mm256_loadu_ps(buf)));
        std::memcpy(x + i, buf, (n - i) * sizeof(float));
    }
}

void
expShiftInplaceAvx2(float *x, size_t n, float shift)
{
    const __m256 sh = _mm256_set1_ps(shift);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            x + i, exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), sh)));
    if (i < n) {
        float buf[8];
        std::memcpy(buf, x + i, (n - i) * sizeof(float));
        _mm256_storeu_ps(buf,
                         exp8(_mm256_sub_ps(_mm256_loadu_ps(buf), sh)));
        std::memcpy(x + i, buf, (n - i) * sizeof(float));
    }
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
    // Reused packing scratch; the only allocation in the BLAS layer
    // (documented in kernels.hh). thread_local keeps gemm reentrant
    // across pool workers.
    thread_local std::vector<float> packbuf;

    for (size_t p0 = 0; p0 < k; p0 += kKc) {
        const size_t kc = std::min(kKc, k - p0);
        if (nf > 0) {
            packbuf.resize(kc * nf);
            packB(b + p0 * n, n, kc, nf, packbuf.data());
            size_t r = 0;
            for (; r + 4 <= m; r += 4) {
                for (size_t t = 0; t < nf / kNr; ++t)
                    micro4x16(a + r * k + p0, k,
                              packbuf.data() + t * kc * kNr, kc,
                              c + r * n + t * kNr, n);
            }
            for (; r < m; ++r) {
                for (size_t t = 0; t < nf / kNr; ++t)
                    micro1x16(a + r * k + p0,
                              packbuf.data() + t * kc * kNr, kc,
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

const KernelTable kAvx2Table = {
    "avx2",         dotAvx2,          axpyAvx2,
    scalAvx2,       sumAvx2,          maxElementAvx2,
    dotBatchMultiAvx2<F32Rows>,
    weightedSumSkipMultiAvx2<F32Rows>,
    dotBatchMultiAvx2<Bf16Rows>,
    weightedSumSkipMultiAvx2<Bf16Rows>,
    dotBatchMultiAvx2<I8Rows, float, float>,
    weightedSumSkipMultiAvx2<I8Rows, float, float>,
    chunkBoundBatchAvx2,
    gemmAvx2,       expInplaceAvx2,   expShiftInplaceAvx2,
};

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
