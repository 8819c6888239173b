/**
 * @file
 * The fused knowledge-base kernels of the SIMD tiers, written once over
 * a vector-width trait: dotBatchMulti (phase 1) and weightedSumSkipMulti
 * (phase 3) for every row-decode policy, with their register tiles,
 * lane reduction and zero-skip scan.
 *
 * Not an ordinary header. Each tier's translation unit (kernels_avx2.cc,
 * kernels_avx512.cc) includes it once, compiled with that tier's ISA
 * flags, and everything here lives in an anonymous namespace: a tier's
 * code then has internal linkage and the linker can never merge a copy
 * built with AVX-512 flags into the AVX2 path. For the same reason the
 * bodies call no inline function or template with external linkage
 * (std::min, std::fma, std::vector, bf16ToFloat, ...); check with `nm`,
 * at -O0 too, that a tier's object defines no weak symbol.
 *
 * The width trait V supplies (Ymm below; a wider tier defines its own
 * after this include):
 *  - phase 1: Vec, one register of kQ questions' 8-lane chains;
 *    kTileGroups (query groups per tile) and kTileRows; zero, loadQ
 *    (kQ questions' blocks from a packed buffer, or one question's),
 *    rowBlock (8 stored row elements, widened exactly into every
 *    question's half; one overload per element type whose dot the
 *    trait runs, see fusedTable), fma, half (one
 *    question's 8 lanes) and block (one 128-bit block); tree, hsum8x8
 *    over eight Vecs (see dotTile);
 *  - phase 3: AccVec of kAccLanes fp32 lanes with loadAcc, storeAcc,
 *    set1Acc, fmaAcc and widenAcc (exact, one overload per element
 *    type); the scan's kScanLanes questions per ScanD register, with
 *    ScanF (their fp32 e values), loadE, gatherE, storeE, transposeE,
 *    widenE, set1D, addD, mulD, lessMask, loadSums and storeSums.
 *
 * Every body keeps the canonical order of kernels.hh, so the tiers are
 * bit-identical to each other and to the scalar reference. The row
 * look-ahead (RowLookahead) only adds prefetch hints to the row tiles.
 */

#ifndef MNNFAST_BLAS_KERNELS_SIMD_HH
#define MNNFAST_BLAS_KERNELS_SIMD_HH

#if !defined(__AVX2__) || !defined(__FMA__)
#error "kernels_simd.hh needs a tier translation unit built with AVX2+FMA"
#endif

#include <immintrin.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "blas/kernels.hh" // kWsumQueryTile
#include "blas/kernels_detail.hh"
#include "util/logging.hh"

namespace mnnfast::blas::detail {
namespace {

inline size_t
minSize(size_t a, size_t b)
{
    return a < b ? a : b;
}

/** One single-rounded fp32 fma (std::fma is an external inline). */
inline float
fma1(float a, float b, float c)
{
    return __builtin_fmaf(a, b, c);
}

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
 * Query sum of the factored i8 dot: the canonical order with adds for
 * fmas (vertical 8-lane adds, hsum8, scalar tail).
 */
inline float
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

// --- Row-decode policies ----------------------------------------------
//
// dotBatchMulti and weightedSumSkipMulti are written once below, over
// one policy per storage precision (contract in kernels.hh): widen1
// turns a stored element into exact fp32 (the width trait's rowBlock
// and widenAcc widen whole blocks), fold / fold4 are the dot's
// epilogue for one or four sums, and dequant / dequant1 map a widened
// weighted-sum element through the precision's code. The traits switch
// on tile shapes that only the int8 sweeps need; the raw-storage
// policies leave them off. The row look-ahead is not a trait: every
// precision takes its distance from the caller (RowLookahead).

/** Identity code, no int8 tile shapes: shared by F32Rows and Bf16Rows. */
struct RawCode
{
    /** Row-tile height for a lone query's (nx == 1) AVX2 dot sweep. */
    static constexpr size_t kLoneQueryRows = 4;
    /** Single-query weighted sums scan skips first (see below). */
    static constexpr bool kTwoPassSingleQuery = false;

    float queryBias(const float *, size_t) const { return 0.f; }
    // Identity, not fma(1, s, 0): that would turn -0 into +0.
    float fold(float s, float) const { return s; }
    __m128 fold4(__m128 s, float) const { return s; }
    template <class V>
    typename V::AccVec dequant(typename V::AccVec v) const
    {
        return v;
    }
    float dequant1(float v) const { return v; }
};

struct F32Rows : RawCode
{
    using Elem = float;
    static float widen1(float v) { return v; }
};

struct Bf16Rows : RawCode
{
    using Elem = uint16_t;
    /** The 16-bit shift into the high half of a float: exact. */
    static float
    widen1(uint16_t v)
    {
        const uint32_t bits = uint32_t(v) << 16;
        float f;
        std::memcpy(&f, &bits, sizeof f);
        return f;
    }
};

/**
 * int8 rows under one affine code (value = scale * q + zero). The dot
 * is factored as fma(scale, rawdot, zero * qsum(x)), and each weighted
 * sum element is dequantized as fma(scale, q, zero).
 *
 * Tile shapes: a sweep retires 64 elements per cache line, so the
 * out-of-order window alone holds too few line fills in flight to
 * cover L3 latency (f32 turns lines over 4x faster). A lone AVX2 query
 * (nx == 1) therefore runs 8-row tiles (eight independent chains and
 * eight line streams), and a single-query weighted sum, whose skip
 * rate is high, resolves its skip decisions first and then streams
 * only the kept rows, looking ahead through their index list.
 */
struct I8Rows
{
    using Elem = int8_t;
    static constexpr size_t kLoneQueryRows = 8;
    static constexpr bool kTwoPassSingleQuery = true;

    float scale, zero;

    static float widen1(int8_t v) { return static_cast<float>(v); }

    float queryBias(const float *x, size_t n) const
    {
        return zero * querySum(x, n);
    }
    float fold(float s, float bias) const
    {
        return fma1(scale, s, bias);
    }
    __m128 fold4(__m128 s, float bias) const
    {
        return _mm_fmadd_ps(_mm_set1_ps(scale), s, _mm_set1_ps(bias));
    }
    template <class V>
    typename V::AccVec dequant(typename V::AccVec v) const
    {
        return V::fmaAcc(V::set1Acc(scale), v, V::set1Acc(zero));
    }
    float dequant1(float v) const { return fma1(scale, v, zero); }
};

/**
 * Prefetch one row (n elements) into L1. Hint-only: never changes
 * results. Callers pass only rows the sweep's caller owns: a row index
 * below the call's count plus RowLookahead::beyond (see
 * lookaheadLimit).
 */
template <class P>
inline void
prefetchRow(const typename P::Elem *row, size_t n)
{
    const char *p = reinterpret_cast<const char *>(row);
    for (size_t b = 0; b < n * sizeof(typename P::Elem); b += 64)
        _mm_prefetch(p + b, _MM_HINT_T0);
}

/**
 * The first row index a sweep's look-ahead may not touch: count plus
 * the rows the caller owns past the call, or 0 when the look-ahead is
 * off, so one `r + distance < limit` test per row covers both.
 */
inline size_t
lookaheadLimit(RowLookahead ahead, size_t count)
{
    return ahead.rows == 0 ? 0 : count + ahead.beyond;
}

// --- The 256-bit width trait ----------------------------------------------

/**
 * The 256-bit width trait: the AVX2 tier's, and the AVX-512 tier's for
 * a lone question's dot and for skip scans of up to four questions
 * (see dotBatchMultiSimd and weightedSumSkipMultiSimd).
 */
struct Ymm
{
    // Phase 1: one question's 8-lane chain per register.
    using Vec = __m256;
    static constexpr size_t kQ = 1;
    static constexpr size_t kTileGroups = 3;
    static constexpr size_t kTileRows = 4;

    static Vec zero() { return _mm256_setzero_ps(); }
    static Vec loadQ(const float *p) { return _mm256_loadu_ps(p); }
    static Vec rowBlock(const float *p) { return _mm256_loadu_ps(p); }
    /** Zero-extend to 32 bits and shift into the high half: exact. */
    static Vec
    rowBlock(const uint16_t *p)
    {
        const __m128i h =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
    }
    /** Sign-extend to 32 bits, then convert: exact for int8. */
    static Vec
    rowBlock(const int8_t *p)
    {
        const __m128i b =
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p));
        return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(b));
    }
    static Vec fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
    static __m256 half(Vec v, size_t) { return v; }
    static __m128
    block(Vec v, size_t b)
    {
        return b == 0 ? _mm256_castps256_ps128(v)
                      : _mm256_extractf128_ps(v, 1);
    }
    static Vec tree(const Vec (&v)[8]) { return hsum8x8(v); }

    // Phase 3: 8-lane accumulate, four questions per scan register.
    using AccVec = __m256;
    static constexpr size_t kAccLanes = 8;
    static AccVec loadAcc(const float *p) { return _mm256_loadu_ps(p); }
    static void storeAcc(float *p, AccVec v) { _mm256_storeu_ps(p, v); }
    static AccVec set1Acc(float v) { return _mm256_set1_ps(v); }
    static AccVec
    fmaAcc(AccVec a, AccVec b, AccVec c)
    {
        return _mm256_fmadd_ps(a, b, c);
    }
    template <class E>
    static AccVec
    widenAcc(const E *p)
    {
        return rowBlock(p);
    }

    using ScanF = __m128;
    using ScanD = __m256d;
    static constexpr size_t kScanLanes = 4;
    static ScanF loadE(const float *p) { return _mm_loadu_ps(p); }
    static ScanF
    gatherE(const float *const (&eq)[4], size_t r)
    {
        return _mm_setr_ps(eq[0][r], eq[1][r], eq[2][r], eq[3][r]);
    }
    static void storeE(float *p, ScanF v) { _mm_storeu_ps(p, v); }
    static void
    transposeE(ScanF (&c)[4])
    {
        _MM_TRANSPOSE4_PS(c[0], c[1], c[2], c[3]);
    }
    static ScanD widenE(ScanF v) { return _mm256_cvtps_pd(v); }
    static ScanD set1D(double v) { return _mm256_set1_pd(v); }
    static ScanD addD(ScanD a, ScanD b) { return _mm256_add_pd(a, b); }
    static ScanD mulD(ScanD a, ScanD b) { return _mm256_mul_pd(a, b); }
    static unsigned
    lessMask(ScanD a, ScanD b)
    {
        return unsigned(_mm256_movemask_pd(_mm256_cmp_pd(a, b, _CMP_LT_OQ)));
    }
    /** Load/store mask of the first `live` lanes. */
    static __m256i
    liveLanes(size_t live)
    {
        return _mm256_cmpgt_epi64(_mm256_set1_epi64x(int64_t(live)),
                                  _mm256_setr_epi64x(0, 1, 2, 3));
    }
    static ScanD
    loadSums(const double *p, size_t live)
    {
        return _mm256_maskload_pd(p, liveLanes(live));
    }
    static void
    storeSums(double *p, ScanD v, size_t live)
    {
        _mm256_maskstore_pd(p, liveLanes(live), v);
    }
};

// --- dotBatchMulti ------------------------------------------------------

/**
 * One NG-group x NR-row register tile of the canonical dot. A group is
 * V::kQ questions whose 8-lane chains share one register (xg[g] holds
 * their blocks side by side; xq and oq name the questions one by one),
 * and each widened row block is broadcast into every chain of the
 * register, so one row load feeds the whole tile. Each (question, row)
 * pair is ONE 8-lane fma chain over the body, hsum8's pairwise
 * reduction, an fma tail, then the policy's fold; pairs never share a
 * chain, so the tile shape never changes bits.
 *
 * Tiles of at least eight chains with whole 4-row groups reduce
 * through V::tree, which applies hsum8's order to eight registers at
 * once. Its result holds 2 * kQ blocks of four sums: block c * kQ + h
 * is half h of registers 4c..4c+3, i.e. four rows of one question. The
 * tail fma and the fold are elementwise, so those rows finish in one
 * __m128 and a lane computes exactly the scalar steps. An odd last
 * half-batch of registers is padded by repeating its neighbour. Other
 * tiles reduce each chain with hsum8: a half-empty tree made the lone
 * AVX2 f32 query's sweep slower.
 *
 * Row look-ahead: before its fmas, for each of its rows r + k the tile
 * prefetches row r + k + ahead if that lies below `limit`
 * (lookaheadLimit), so a sweep keeps about `ahead` rows of line fills
 * in flight, issued one tile's rows at a time among the fmas.
 */
template <class V, size_t NG, size_t NR, class P>
inline void
dotTile(const P &p, const float *const *xg, const float *const *xq,
        const float *bias, const typename P::Elem *rows, size_t stride,
        size_t n, float *const *oq, size_t r, size_t ahead, size_t limit)
{
    using Vec = typename V::Vec;
    constexpr size_t kQ = V::kQ, NQ = NG * kQ;
    const typename P::Elem *row[NR];
#pragma GCC unroll 8
    for (size_t k = 0; k < NR; ++k) {
        row[k] = rows + (r + k) * stride;
        if (r + k + ahead < limit)
            prefetchRow<P>(row[k] + ahead * stride, n);
    }
    Vec acc[NG][NR];
#pragma GCC unroll 4
    for (size_t g = 0; g < NG; ++g)
#pragma GCC unroll 8
        for (size_t k = 0; k < NR; ++k)
            acc[g][k] = V::zero();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        Vec xv[NG];
#pragma GCC unroll 4
        for (size_t g = 0; g < NG; ++g)
            xv[g] = V::loadQ(xg[g] + kQ * i);
#pragma GCC unroll 8
        for (size_t k = 0; k < NR; ++k) {
            const Vec rv = V::rowBlock(row[k] + i);
#pragma GCC unroll 4
            for (size_t g = 0; g < NG; ++g)
                acc[g][k] = V::fma(xv[g], rv, acc[g][k]);
        }
    }
    if constexpr (NR % 4 != 0 || NG * NR * kQ < 8) {
        float s[NQ][NR];
#pragma GCC unroll 8
        for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 4
            for (size_t k = 0; k < NR; ++k)
                s[q][k] = hsum8(V::half(acc[q / kQ][k], q % kQ));
        for (; i < n; ++i) {
#pragma GCC unroll 4
            for (size_t k = 0; k < NR; ++k) {
                const float rv = P::widen1(row[k][i]);
#pragma GCC unroll 8
                for (size_t q = 0; q < NQ; ++q)
                    s[q][k] = fma1(xq[q][i], rv, s[q][k]);
            }
        }
#pragma GCC unroll 8
        for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 4
            for (size_t k = 0; k < NR; ++k)
                oq[q][r + k] = p.fold(s[q][k], bias[q]);
    } else {
        // Registers in (group, row) order, reduced eight at a time.
        constexpr size_t kVecs = NG * NR, kGroups = NR / 4;
        __m128 s[NQ][kGroups];
#pragma GCC unroll 4
        for (size_t b = 0; b < kVecs; b += 8) {
            Vec v[8];
#pragma GCC unroll 8
            for (size_t j = 0; j < 8; ++j) {
                const size_t f = b + j < kVecs ? b + j : b + j - 4;
                v[j] = acc[f / NR][f % NR];
            }
            const Vec t = V::tree(v);
#pragma GCC unroll 2
            for (size_t c = 0; c < 2; ++c) {
                const size_t f = b + 4 * c;
                if (f >= kVecs)
                    break;
#pragma GCC unroll 2
                for (size_t h = 0; h < kQ; ++h)
                    s[f / NR * kQ + h][f % NR / 4] = V::block(t, c * kQ + h);
            }
        }
        for (; i < n; ++i) {
#pragma GCC unroll 2
            for (size_t g = 0; g < kGroups; ++g) {
                const __m128 rv = _mm_setr_ps(
                    P::widen1(row[4 * g][i]), P::widen1(row[4 * g + 1][i]),
                    P::widen1(row[4 * g + 2][i]),
                    P::widen1(row[4 * g + 3][i]));
#pragma GCC unroll 8
                for (size_t q = 0; q < NQ; ++q)
                    s[q][g] =
                        _mm_fmadd_ps(_mm_set1_ps(xq[q][i]), rv, s[q][g]);
            }
        }
#pragma GCC unroll 8
        for (size_t q = 0; q < NQ; ++q)
#pragma GCC unroll 2
            for (size_t g = 0; g < kGroups; ++g)
                _mm_storeu_ps(oq[q] + r + 4 * g, p.fold4(s[q][g], bias[q]));
    }
}

/**
 * The NG query groups starting at group g0 against every row: the
 * widest row tile first, then 4-row tiles, then single rows. A lone
 * question (nx == 1 with one question per register) takes the
 * policy's kLoneQueryRows. Every tile looks `ahead` rows ahead, below
 * `limit`.
 */
template <class V, size_t NG, class P>
void
dotQueries(const P &p, const float *xpack, size_t g0, const float *x,
           size_t nx, size_t xstride, const typename P::Elem *rows,
           size_t count, size_t n, size_t stride, float *out,
           size_t ostride, size_t ahead, size_t limit)
{
    constexpr size_t kQ = V::kQ, NQ = NG * kQ;
    const size_t n8 = n / 8 * 8;
    const float *xg[NG];
    const float *xq[NQ];
    float *oq[NQ];
    float bias[NQ];
    for (size_t g = 0; g < NG; ++g)
        xg[g] = xpack ? xpack + (g0 + g) * kQ * n8 : x + (g0 + g) * xstride;
    for (size_t q = 0; q < NQ; ++q) {
        // A padded slot repeats the last question: its chains compute
        // that question's bits again and store them over themselves.
        const size_t src = minSize(g0 * kQ + q, nx - 1);
        xq[q] = x + src * xstride;
        oq[q] = out + src * ostride;
        bias[q] = p.queryBias(xq[q], n);
    }
    constexpr size_t kRows = NQ == 1 ? P::kLoneQueryRows : V::kTileRows;
    size_t r = 0;
    for (; r + kRows <= count; r += kRows)
        dotTile<V, NG, kRows>(p, xg, xq, bias, rows, stride, n, oq, r,
                              ahead, limit);
    if constexpr (kRows > 4) {
        for (; r + 4 <= count; r += 4)
            dotTile<V, NG, 4>(p, xg, xq, bias, rows, stride, n, oq, r,
                              ahead, limit);
    }
    for (; r < count; ++r)
        dotTile<V, NG, 1>(p, xg, xq, bias, rows, stride, n, oq, r, ahead,
                          limit);
}

/**
 * 64-byte aligned float scratch that grows and never shrinks, for a
 * thread_local instance: the kernels' two allocations (kernels.hh).
 * Internal linkage with no std::vector, so a tier object defines no
 * weak symbol built with its ISA flags.
 */
struct AlignedScratch
{
    float *p = nullptr;
    size_t cap = 0;

    AlignedScratch() = default;
    AlignedScratch(const AlignedScratch &) = delete;
    AlignedScratch &operator=(const AlignedScratch &) = delete;
    ~AlignedScratch() { std::free(p); }

    float *
    get(size_t floats)
    {
        if (cap < floats) {
            std::free(p);
            const size_t bytes = (floats * sizeof(float) + 63) / 64 * 64;
            p = static_cast<float *>(std::aligned_alloc(64, bytes));
            if (!p)
                panic("kernel scratch: cannot allocate %zu bytes", bytes);
            cap = bytes / sizeof(float);
        }
        return p;
    }
};

/** The batched dot's packed-question scratch, one per thread. */
inline float *
packBuffer(size_t floats)
{
    thread_local AlignedScratch buf;
    return buf.get(floats);
}

/**
 * Interleave the 8-aligned bodies of nx questions in groups of kQ:
 * group g's block b is the kQ questions' elements 8b..8b+7 side by
 * side, so one aligned load fills a register. A short last group
 * repeats the last question.
 */
template <size_t kQ>
const float *
packQueries(const float *x, size_t nx, size_t xstride, size_t n)
{
    const size_t n8 = n / 8 * 8, groups = (nx + kQ - 1) / kQ;
    float *buf = packBuffer(groups * kQ * n8);
    for (size_t g = 0; g < groups; ++g)
        for (size_t h = 0; h < kQ; ++h) {
            const float *xq = x + minSize(g * kQ + h, nx - 1) * xstride;
            float *dst = buf + g * kQ * n8 + 8 * h;
            for (size_t i = 0; i < n8; i += 8)
                std::memcpy(dst + kQ * i, xq + i, 8 * sizeof(float));
        }
    return buf;
}

/**
 * The batched dot for every precision. `code` is the policy's
 * constructor arguments (i8: scale, zero; none for f32/bf16), placed
 * where the public signature has them. The ceil(nx / kQ) query groups
 * are spread evenly over as few tiles of at most V::kTileGroups groups
 * as cover them, widest first: with AVX2's 3-question tiles, 16
 * questions run as 3+3+3+3+2+2, and a lone question only when nx == 1.
 * With several questions per register a lone question would waste all
 * but one chain of each, and bf16 and int8 rows would widen a whole
 * register for one chain, so nx == 1 runs on Ymm instead. Only the
 * first query tile looks ahead: the rows it streams in are still
 * cache-resident for the others, and re-issuing the hints from the
 * second tile made cache-resident 16-question batches ~10 % slower.
 */
template <class V, class P, class... Code>
void
dotBatchMultiSimd(const float *x, size_t nx, size_t xstride,
                  const typename P::Elem *rows, size_t count, size_t n,
                  size_t stride, Code... code, float *out,
                  size_t ostride, RowLookahead ahead)
{
    if (nx == 0)
        return;
    constexpr size_t kQ = V::kQ, T = V::kTileGroups;
    static_assert(T >= 1 && T <= 4, "dotBatchMultiSimd: 1-4 groups a tile");
    const float *xpack = nullptr;
    if constexpr (kQ > 1) {
        if (nx == 1) {
            dotBatchMultiSimd<Ymm, P, Code...>(x, nx, xstride, rows, count,
                                               n, stride, code..., out,
                                               ostride, ahead);
            return;
        }
        xpack = packQueries<kQ>(x, nx, xstride, n);
    }
    const P p{code...};
    const size_t groups = (nx + kQ - 1) / kQ;
    const size_t tiles = (groups + T - 1) / T;
    size_t g0 = 0;
    for (size_t t = 0; t < tiles; ++t) {
        const size_t ng = groups / tiles + (t < groups % tiles);
        const size_t limit = t == 0 ? lookaheadLimit(ahead, count) : 0;
        const auto run = [&](auto tag) {
            dotQueries<V, decltype(tag)::value>(p, xpack, g0, x, nx, xstride,
                                                rows, count, n, stride, out,
                                                ostride, ahead.rows, limit);
        };
        switch (ng) {
        case 1:
            run(std::integral_constant<size_t, 1>{});
            break;
        case 2:
            if constexpr (T >= 2)
                run(std::integral_constant<size_t, 2>{});
            break;
        case 3:
            if constexpr (T >= 3)
                run(std::integral_constant<size_t, 3>{});
            break;
        default:
            if constexpr (T >= 4)
                run(std::integral_constant<size_t, 4>{});
            break;
        }
        g0 += ng;
    }
}

// --- weightedSumSkipMulti -----------------------------------------------

/**
 * Accumulate one kept row into nk <= NK accumulators: each
 * V::kAccLanes block is widened and dequantized once, then fma'd into
 * every dst[j] while it sits in a register; tail elements take the
 * same single-rounded fma. The update is elementwise, so neither the
 * vector width nor interleaving queries changes bits. (The arrays are
 * taken by reference so the compiler sees the NK bound and keeps the
 * weights in registers.)
 */
template <class V, size_t NK, class P>
inline void
accumulateRow(const P &p, const typename P::Elem *row, size_t n,
              const float (&alpha)[NK], float *const (&dst)[NK],
              size_t nk)
{
    size_t i = 0;
    for (; i + V::kAccLanes <= n; i += V::kAccLanes) {
        const auto rv = p.template dequant<V>(V::widenAcc(row + i));
        for (size_t j = 0; j < nk; ++j)
            V::storeAcc(dst[j] + i,
                        V::fmaAcc(V::set1Acc(alpha[j]), rv,
                                  V::loadAcc(dst[j] + i)));
    }
    for (; i < n; ++i) {
        const float ri = p.dequant1(P::widen1(row[i]));
        for (size_t j = 0; j < nk; ++j)
            dst[j][i] = fma1(alpha[j], ri, dst[j][i]);
    }
}

/**
 * Single-query two-pass sweep (P::kTwoPassSingleQuery): pass A is a
 * branchless scan that advances the running sum with exactly the
 * serial double adds and skip predicate of the scalar loop,
 * compacting the kept rows' indices and weights; pass B streams ONLY
 * the kept rows, prefetching `ahead` kept rows ahead through the index
 * list. A blind look-ahead would prefetch every row (the decision
 * isn't known yet), which at a 15% keep rate wastes ~6x the M_OUT
 * bandwidth. Kept rows are accumulated in the same ascending order
 * with the same arithmetic, so outputs are bit-identical to the scalar
 * loop.
 */
template <class V, class P>
void
weightedSumTwoPass(const P &p, const float *e,
                   const typename P::Elem *rows, size_t count, size_t n,
                   size_t stride, float threshold, double &running_sum,
                   float *acc, uint64_t &kept, uint64_t &skipped,
                   size_t ahead)
{
    constexpr size_t kBlock = 512;
    uint32_t idx[kBlock];
    float evk[kBlock];
    for (size_t b0 = 0; b0 < count; b0 += kBlock) {
        const size_t b1 = minSize(b0 + kBlock, count);
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
        // The look-ahead's first `ahead` kept rows, then one per row.
        const size_t limit = ahead == 0 ? 0 : nkept;
        for (size_t j = 0; j < minSize(ahead, limit); ++j)
            prefetchRow<P>(rows + idx[j] * stride, n);
        for (size_t j = 0; j < nkept; ++j) {
            if (j + ahead < limit)
                prefetchRow<P>(rows + idx[j + ahead] * stride, n);
            const float alpha[1] = {evk[j]};
            float *const dst[1] = {acc};
            accumulateRow<V>(p, rows + idx[j] * stride, n, alpha, dst, 1);
        }
    }
}

/**
 * The kept side of one scanned row: gather the queries whose bit is
 * set in `keep` (bit q = query q, whose e value is lane q % L of
 * ev[q / L]) in ascending order and accumulate the row into them;
 * returns how many kept it. Out of line, and fed by value so the
 * scan's e tile and decisions stay in registers: kept rows are rare,
 * and inlining this into every step of the unrolled scan multiplied
 * its code size for no speed.
 */
template <class V, class S, class P, class... F>
[[gnu::noinline]] size_t
keepRow(const P &p, unsigned keep, const typename P::Elem *row, size_t n,
        float *acc, size_t accstride, F... ev)
{
    alignas(64) float ef[kWsumQueryTile];
    size_t g = 0;
    (S::storeE(ef + S::kScanLanes * g++, ev), ...);
    float alpha[kWsumQueryTile];
    float *dst[kWsumQueryTile];
    size_t nk = 0;
    for (; keep != 0; keep &= keep - 1) {
        const size_t q = size_t(__builtin_ctz(keep));
        alpha[nk] = ef[q];
        dst[nk] = acc + q * accstride;
        ++nk;
    }
    accumulateRow<V>(p, row, n, alpha, dst, nk);
    return nk;
}

/**
 * The zero-skip scan of one query tile (nt <= kWsumQueryTile queries,
 * threshold > 0) in ceil(nt / L) groups of L = S::kScanLanes (S is the
 * scan's width trait, V the kept rows' accumulate width): group g's
 * running sums live in one ScanD register, and its e values arrive
 * L rows at a time through an L x L transpose of the e tile, so lane j
 * of a group performs query j's serial steps — the double add, the
 * double product and `<` — in row order. Decisions therefore match
 * the scalar loop exactly, NaN and inf included. A partial last group
 * (nt % L != 0) points its dead lanes at a live query's e row and
 * masks them out of the decisions and the running-sum store; groups
 * past the last are skipped by a loop-invariant branch, so one
 * register-resident body serves every tile size. Kept rows go
 * through keepRow to accumulateRow, as in the all-kept loop; rows
 * are not prefetched (the decision precedes the first touch).
 */
template <class V, class S, class P>
void
weightedSumScan(const P &p, const float *e, size_t nt, size_t estride,
                const typename P::Elem *rows, size_t count, size_t n,
                size_t stride, float threshold, double *running_sums,
                float *acc, size_t accstride, uint64_t &kept,
                uint64_t &skipped)
{
    using ScanF = typename S::ScanF;
    using ScanD = typename S::ScanD;
    constexpr size_t L = S::kScanLanes, G = kWsumQueryTile / L;
    static_assert(G * L == kWsumQueryTile && kWsumQueryTile <= 16,
                  "whole groups cover a query tile");
    const size_t ng = (nt + L - 1) / L;
    const unsigned live = (1u << nt) - 1; // bit q = query q is live
    const ScanD thr = S::set1D(double(threshold));
    const float *eq[G][L];
    size_t glive[G]; // live lanes of group g
    ScanD sums[G];
#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g) {
        glive[g] = minSize(nt, L * g + L) - minSize(nt, L * g);
        for (size_t j = 0; j < L; ++j)
            eq[g][j] = e + minSize(L * g + j, nt - 1) * estride;
        sums[g] = S::loadSums(running_sums + L * g, glive[g]);
    }

    uint64_t nkept = 0;
    // Skip-test row r with e columns ev[g] (lane j = query L * g + j).
    const auto scanRow = [&](const ScanF (&ev)[G], size_t r) {
        unsigned skip = 0;
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            if (g >= ng)
                break;
            const ScanD ed = S::widenE(ev[g]);
            sums[g] = S::addD(sums[g], ed);
            skip |= S::lessMask(ed, S::mulD(thr, sums[g])) << (L * g);
        }
        if (const unsigned keep = ~skip & live) {
            nkept += [&]<size_t... g>(std::index_sequence<g...>) {
                return keepRow<V, S>(p, keep, rows + r * stride, n, acc,
                                  accstride, ev[g]...);
            }(std::make_index_sequence<G>{});
        }
    };

    size_t r = 0;
    for (; r + L <= count; r += L) {
        ScanF t[L][G] = {};
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            if (g >= ng)
                break;
            ScanF c[L];
#pragma GCC unroll 8
            for (size_t j = 0; j < L; ++j)
                c[j] = S::loadE(eq[g][j] + r);
            S::transposeE(c);
#pragma GCC unroll 8
            for (size_t k = 0; k < L; ++k)
                t[k][g] = c[k];
        }
#pragma GCC unroll 8
        for (size_t k = 0; k < L; ++k)
            scanRow(t[k], r + k);
    }
    for (; r < count; ++r) {
        ScanF t[G] = {};
#pragma GCC unroll 4
        for (size_t g = 0; g < G; ++g) {
            if (g >= ng)
                break;
            t[g] = S::gatherE(eq[g], r);
        }
        scanRow(t, r);
    }

#pragma GCC unroll 4
    for (size_t g = 0; g < G; ++g)
        S::storeSums(running_sums + L * g, sums[g], glive[g]);
    kept += nkept;
    skipped += nt * count - nkept;
}

/**
 * The zero-skip weighted sum for every precision (`code` as in
 * dotBatchMultiSimd). Queries run in tiles of kWsumQueryTile (the
 * scatter list is a fixed stack array); tiles are independent, so
 * tiling cannot change results. With a positive threshold,
 * weightedSumScan runs each tile's skip tests across queries in
 * vector lanes, four per register for tiles of up to four queries and
 * V::kScanLanes otherwise. Without one every row is kept, so each row
 * is accumulated into all of the tile's queries at once, and the first
 * query tile looks `ahead.rows` rows ahead (RowLookahead; the scan
 * does not, since its decision precedes the first touch).
 */
template <class V, class P, class... Code>
void
weightedSumSkipMultiSimd(const float *e, size_t ne, size_t estride,
                         const typename P::Elem *rows, size_t count,
                         size_t n, size_t stride, Code... code,
                         float threshold, double *running_sums,
                         float *acc, size_t accstride, uint64_t &kept,
                         uint64_t &skipped, RowLookahead ahead)
{
    const P p{code...};
    if constexpr (P::kTwoPassSingleQuery) {
        if (ne == 1) {
            weightedSumTwoPass<V>(p, e, rows, count, n, stride, threshold,
                                  running_sums[0], acc, kept, skipped,
                                  ahead.rows);
            return;
        }
    }
    float alpha[kWsumQueryTile];
    float *dst[kWsumQueryTile];
    for (size_t q0 = 0; q0 < ne; q0 += kWsumQueryTile) {
        const size_t q1 = minSize(q0 + kWsumQueryTile, ne);
        if (threshold > 0.f) {
            // Four questions or fewer fill a 256-bit scan register; a
            // wider one would spend its transposes on dead lanes.
            if (q1 - q0 <= Ymm::kScanLanes)
                weightedSumScan<V, Ymm>(p, e + q0 * estride, q1 - q0,
                                        estride, rows, count, n, stride,
                                        threshold, running_sums + q0,
                                        acc + q0 * accstride, accstride,
                                        kept, skipped);
            else
                weightedSumScan<V, V>(p, e + q0 * estride, q1 - q0,
                                      estride, rows, count, n, stride,
                                      threshold, running_sums + q0,
                                      acc + q0 * accstride, accstride,
                                      kept, skipped);
            continue;
        }
        for (size_t q = q0; q < q1; ++q)
            dst[q - q0] = acc + q * accstride;
        // Every row is kept, so the look-ahead is never wasted.
        const size_t limit = q0 == 0 ? lookaheadLimit(ahead, count) : 0;
        for (size_t r = 0; r < count; ++r) {
            if (r + ahead.rows < limit)
                prefetchRow<P>(rows + (r + ahead.rows) * stride, n);
            for (size_t q = q0; q < q1; ++q) {
                const float ev = e[q * estride + r];
                running_sums[q] += ev;
                alpha[q - q0] = ev;
            }
            accumulateRow<V>(p, rows + r * stride, n, alpha, dst, q1 - q0);
        }
        kept += (q1 - q0) * count;
    }
}

/**
 * A tier's table: the fused kernels of every precision instantiated for
 * width trait V, the other entries taken from `base` (the AVX2 tier's
 * reductions, exp and gemm serve every SIMD tier). A paired-question
 * trait (kQ > 1) keeps base's bf16 dot: on the bf16 shard nodes the
 * pair tile's throughput swung ~2x from run to run where the 256-bit
 * tile's stayed within ~10 % (DESIGN.md §5).
 */
template <class V>
constexpr KernelTable
fusedTable(KernelTable base, const char *name)
{
    base.name = name;
    base.dotBatchMulti = dotBatchMultiSimd<V, F32Rows>;
    base.weightedSumSkipMulti = weightedSumSkipMultiSimd<V, F32Rows>;
    if constexpr (V::kQ == 1)
        base.dotBatchMultiBf16 = dotBatchMultiSimd<V, Bf16Rows>;
    base.weightedSumSkipMultiBf16 = weightedSumSkipMultiSimd<V, Bf16Rows>;
    base.dotBatchMultiI8 = dotBatchMultiSimd<V, I8Rows, float, float>;
    base.weightedSumSkipMultiI8 =
        weightedSumSkipMultiSimd<V, I8Rows, float, float>;
    return base;
}

} // namespace
} // namespace mnnfast::blas::detail

#endif // MNNFAST_BLAS_KERNELS_SIMD_HH
