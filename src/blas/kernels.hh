/**
 * @file
 * Dense linear-algebra kernels.
 *
 * The paper's baseline MemNN is built on OpenBLAS; this library
 * provides the equivalent primitives from scratch so the repository is
 * self-contained and so both dataflows (layer-at-a-time vs. fused
 * column chunks) run on the *same* kernels — the measured differences
 * then come from dataflow, not from kernel quality differences.
 *
 * Every primitive has a portable scalar reference (namespace
 * blas::scalar, always compiled) and SIMD tiers — AVX2+FMA and AVX-512,
 * whose fused kernels share one body over a vector-width trait — and
 * the widest tier the host CPU supports is selected once at startup.
 * The environment variable MNNFAST_KERNELS=scalar|avx2|avx512 caps the
 * tier (it never raises it; any other value is fatal), which pins
 * debugging runs across hosts and lets one host check every tier
 * against the others. See DESIGN.md ("Kernel architecture & dispatch")
 * for the dispatch policy and the micro-kernel shapes.
 *
 * Conventions: all matrices are row-major, dimensions are given as
 * (rows, cols), and vectors are contiguous float arrays. Kernels never
 * allocate, with two exceptions, both thread-local buffers that grow
 * and are reused across calls: gemm packs B panels (kc x n floats),
 * and the AVX-512 dotBatchMulti packs its queries (about nx x n
 * floats).
 */

#ifndef MNNFAST_BLAS_KERNELS_HH
#define MNNFAST_BLAS_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace mnnfast::blas {

/** Dot product of two length-n vectors. */
float dot(const float *x, const float *y, size_t n);

/** y += alpha * x over length-n vectors. */
void axpy(float alpha, const float *x, float *y, size_t n);

/** x *= alpha over a length-n vector. */
void scal(float alpha, float *x, size_t n);

/** Set a length-n vector to zero. */
void zero(float *x, size_t n);

/** Copy a length-n vector. */
void copy(const float *src, float *dst, size_t n);

/** Sum of a length-n vector's elements. */
float sum(const float *x, size_t n);

/**
 * Largest element of a non-empty length-n vector. A NaN anywhere
 * gives a quiet NaN, on every tier.
 */
float maxElement(const float *x, size_t n);

/*
 * The fused batched kernels: dotBatchMulti (phase 1) and
 * weightedSumSkipMulti (phase 3), one pair per storage precision of
 * the matrix rows — fp32, bf16 (uint16_t) and int8 under an affine
 * code (scale, zero). Queries, e values and outputs are always fp32.
 *
 * Decode-policy contract. Each implementation (the scalar reference,
 * the SIMD tiers' shared body) writes each kernel once, over
 * a row-decode policy per precision that supplies:
 *  - widen: a stored element to fp32, exactly (bf16: a 16-bit shift;
 *    int8: sign-extend and convert; fp32: as-is);
 *  - the epilogue: identity for fp32 and bf16. For int8 it is the
 *    affine fold. A dot is out = fma(scale, rawdot, zero * qsum(x_q)),
 *    with qsum the canonical order below with adds for fmas. A
 *    weighted-sum element is dequantized as fma(scale, q, zero)
 *    before it is accumulated.
 *
 * Canonical order. Each (query, row) dot is ONE chain of eight fp32
 * fma lanes over the 8-aligned body (lane j holds the elements
 * i % 8 == j), the fixed pairwise lane reduction
 * ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then an fma per tail
 * element. Each kept weighted-sum row updates each accumulator
 * element with one single-rounded fma. The skip test and running
 * sums are per-(query, row) scalar double arithmetic on the e values
 * — rows never enter it — so skip decisions are identical across
 * precisions and tiers.
 *
 * Every tier implements exactly these orders, so for every precision
 * the scalar, AVX2 and AVX-512 tiers are bit-identical to each other
 * (property-tested), and results never depend on how queries are
 * tiled, how a row sweep is split into calls or how far its row
 * look-ahead (RowLookahead) reaches. Rows in different
 * int8 quantization chunks need separate calls: the knowledge base's
 * row sweeps (core::KnowledgeBase::dotMin, weightedSumMout) make them
 * and carry the look-ahead across each split (DESIGN.md §10).
 */

/**
 * Software row look-ahead of a fused row sweep: a hint that never
 * changes results. Each row tile of the sweep prefetches into L1 the
 * rows `rows` ahead of its own, one cache line at a time: at each
 * 64-byte step of its k-loop the tile prefetches that line of each of
 * its rows' look-ahead rows, and the lines past its last whole body
 * line after the loop. The stream's line fills are thus paced by the
 * arithmetic that consumes lines; a burst of every line before the
 * fmas fills the line-fill buffers and stalls them. A batch of several
 * query tiles issues it from the first only (the rows are
 * cache-resident for the others). It never touches a row at or past
 * count + `beyond`: `beyond` is how many rows past the call's last
 * row the caller owns and will sweep next — an engine's rest of the
 * chunk plus the next chunk it streams — and 0 confines the look-ahead
 * to the call. rows == 0 turns it off. A weighted sum with a positive
 * threshold decides each row before its first touch, so it looks ahead
 * only in int8's single-question sweep, `rows` kept rows ahead within
 * the call (a skipped row is never read).
 */
struct RowLookahead
{
    size_t rows = 0;
    size_t beyond = 0;
};

/**
 * The look-ahead of an int8 kernel call that names none: a sweep
 * retires 64 elements per cache line, so the out-of-order window alone
 * holds too few line fills to cover the memory latency (fp32 turns
 * lines over 4x faster, and its calls default to none).
 */
inline constexpr RowLookahead kI8CallLookahead{8, 0};

/**
 * Query-blocked batched dot products: a tile of `nx` query rows
 * against a strip of `count` matrix rows,
 *
 *   out[q * ostride + r] = dot(x + q * xstride, rows + r * stride, n)
 *
 * for q in [0, nx), r in [0, count) — a small packed GEMM shaped for
 * the column engine's phase 1. The AVX2 tier register-tiles 3
 * queries x 4 rows (triples, then pairs; a lone query only when
 * nx == 1); the AVX-512 tier holds two queries' chains per zmm and
 * tiles 4 such pairs x 8 rows. Each 8-wide row load feeds every query
 * in the tile, so the per-query M_IN load traffic drops accordingly.
 * The AVX-512 tier interleaves the queries into a thread-local packed
 * buffer (grown, never shrunk) once per call. With `ahead` on, the
 * first query tile streams the rows in, its row look-ahead issued
 * line by line through each row tile's k-loop (RowLookahead); a
 * 24-question ring step is three such query tiles on AVX-512 (12
 * pairs), so the others read the rows from cache. The engine-level
 * strip blocking on top keeps a row strip cache-resident across the
 * whole batch, which is what amortizes the KB stream over concurrent
 * queries. Requires stride >= n and xstride >= n; out rows must not
 * alias the inputs.
 */
void dotBatchMulti(const float *x, size_t nx, size_t xstride,
                   const float *rows, size_t count, size_t n,
                   size_t stride, float *out, size_t ostride,
                   RowLookahead ahead = {});

/**
 * Query-blocked fused zero-skip weighted sum over a strip of rows (the
 * column engine's phase-3 kernel). For each row r (ascending) and
 * each query q (ascending), with e_qr = e[q * estride + r]:
 *
 *   running_sums[q] += e_qr
 *   if threshold > 0 and e_qr < threshold * running_sums[q]:
 *       ++skipped                                  // acc[q] untouched
 *   else:
 *       ++kept; acc[q * accstride] += e_qr * row   // vectorized
 *
 * Fusing the conservative skip test with the accumulation means a
 * skipped row costs one compare — its M_OUT row is never read — which
 * is what makes zero-skipping profitable on a bandwidth-bound machine.
 * A kept row is loaded once and accumulated into every keeping
 * query's accumulator while it is register/L1-hot, so per-query M_OUT
 * traffic shrinks by the batch size. A threshold of 0 keeps every
 * row. Any ne is accepted (the SIMD tiers work in query tiles of
 * kWsumQueryTile, and with threshold > 0 run the skip tests of four
 * queries per vector, or eight on AVX-512 for tiles of more than four,
 * each lane replaying the scalar double steps above). Requires stride >= n and
 * accstride >= n; e rows and acc rows must not alias.
 */
void weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                          const float *rows, size_t count, size_t n,
                          size_t stride, float threshold,
                          double *running_sums, float *acc,
                          size_t accstride, uint64_t &kept,
                          uint64_t &skipped, RowLookahead ahead = {});

/**
 * Largest query tile one pass of the SIMD weighted sum handles (its
 * kept-set scatter list is a fixed stack array); exposed so engines
 * can align their own blocking with the kernel's.
 */
inline constexpr size_t kWsumQueryTile = 16;

/** dotBatchMulti over bf16 rows: half the fp32 row bytes. */
void dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                       const uint16_t *rows, size_t count, size_t n,
                       size_t stride, float *out, size_t ostride,
                       RowLookahead ahead = {});

/** weightedSumSkipMulti over bf16 rows. */
void weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                              const uint16_t *rows, size_t count,
                              size_t n, size_t stride, float threshold,
                              double *running_sums, float *acc,
                              size_t accstride, uint64_t &kept,
                              uint64_t &skipped, RowLookahead ahead = {});

/**
 * dotBatchMulti over int8 rows that share one affine code: stored
 * elements q dequantize as scale*q + zero (see core::KnowledgeBase),
 * a quarter of the fp32 row bytes.
 */
void dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                     const int8_t *rows, size_t count, size_t n,
                     size_t stride, float scale, float zero, float *out,
                     size_t ostride, RowLookahead ahead = kI8CallLookahead);

/** weightedSumSkipMulti over int8 rows that share one affine code. */
void weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                            const int8_t *rows, size_t count, size_t n,
                            size_t stride, float scale, float zero,
                            float threshold, double *running_sums,
                            float *acc, size_t accstride,
                            uint64_t &kept, uint64_t &skipped,
                            RowLookahead ahead = kI8CallLookahead);

/**
 * Encode n floats under the int8 affine code the I8 kernels decode
 * (core::KnowledgeBase's ingest):
 *
 *   q[e] = clamp(rne((x[e] - zero) * inv_scale), -128, 127)
 *
 * with rne the round-to-nearest-even of the default FP environment
 * (lrintf's). A product that is NaN, infinite or outside the int32
 * range encodes as -128: the x86 "integer indefinite" that both
 * cvtps2dq and lrintf return for NaN and infinities, then clamped.
 * One subtract and one multiply per element, no fma, so every tier
 * writes the same bytes.
 */
void quantizeI8(const float *x, size_t n, float zero, float inv_scale,
                int8_t *q);

/**
 * Fused max-inner-product bound over chunk-summary envelopes (the
 * routed engine's coarse-selection kernel): for a tile of `nx` query
 * rows and `count` per-dimension [lo, hi] envelope pairs,
 *
 *   out[q * ostride + c] =
 *       sum_d max(x_qd * hi[c * stride + d], x_qd * lo[c * stride + d])
 *
 * Because max(x*hi, x*lo) >= x*m for every m in [lo, hi] (regardless
 * of the sign of x), out[q][c] upper-bounds the inner product of x_q
 * with every row the envelope covers — the max-inner-product bound
 * core::ChunkSummaryIndex builds chunk routing on.
 *
 * Accumulation contract: the canonical order above, each lane adding
 * (a > b) ? a : b of the two single-rounded products instead of an
 * fma, and a scalar tail. The scalar select replicates vmaxps operand
 * semantics, so scalar and AVX2 are bit-identical to each other and
 * results never depend on how a sweep is split into calls. Requires
 * stride >= n and xstride >= n; out must not alias the inputs.
 */
void chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                     const float *lo, const float *hi, size_t count,
                     size_t n, size_t stride, float *out,
                     size_t ostride);

/**
 * Matrix-vector product: y = A * x.
 * A is (rows x cols) row-major; x has cols elements; y has rows.
 * Dispatches to dotBatchMulti with one query, so the x vector is
 * reused across rows.
 */
void gemv(const float *a, size_t rows, size_t cols,
          const float *x, float *y);

/**
 * Transposed matrix-vector product: y = A^T * x.
 * A is (rows x cols) row-major; x has rows elements; y has cols.
 * Implemented as accumulating row-scaled adds so A is still walked
 * sequentially (cache friendly for row-major storage).
 */
void gemvT(const float *a, size_t rows, size_t cols,
           const float *x, float *y);

/**
 * General matrix multiply: C = A * B (+ C if accumulate).
 * A is (m x k), B is (k x n), C is (m x n), all row-major.
 * The AVX2 backend packs B into 16-wide column panels and runs a
 * register-tiled 4x16 FMA micro-kernel; the scalar backend uses the
 * original 4-row strip blocking.
 */
void gemm(const float *a, const float *b, float *c,
          size_t m, size_t k, size_t n, bool accumulate = false);

/**
 * Elementwise e^x over a length-n vector, in place; NaN stays NaN.
 * Unshifted, so logits above ~88.7 overflow to inf: the paper's
 * softmax as printed, kept for BaselineEngine and the FPGA model.
 */
void expInplace(float *x, size_t n);

/**
 * Elementwise exponential shifted by a power of two, in place:
 * x_i <- e^{x_i} * 2^{-k} for an integer-valued k. Each result is
 * e^r * 2^(n_i - k) with x_i = n_i ln 2 + r, and e^r depends on x_i
 * alone, so results under two shifts differ by exactly 2^(k' - k)
 * wherever both are normal floats. The max-subtracted softmax inner
 * loop, and the column engine's phase 2 with its running shift: it
 * rescales earlier partial sums by such a power of two, exactly, so
 * where chunk boundaries fall cannot change a result bit. Exponents
 * n_i - k beyond [-126, 127] give 0 or +inf; NaN stays NaN.
 */
void expShiftInplace(float *x, size_t n, float k);

/**
 * The expShiftInplace shift for values whose maximum is m:
 * round(m log2 e), which puts the largest result in [2^-0.5, 2^0.5]
 * and every other below it.
 */
float expShiftFor(float m);

/**
 * Numerically-stable softmax over a length-n vector, in place:
 * x_i <- e^{x_i - max(x)} / sum_j e^{x_j - max(x)}.
 *
 * This is the paper's three-phase formulation (exp, sum, normalize)
 * with the standard max-subtraction guard.
 */
void softmax(float *x, size_t n);

/**
 * True when a SIMD tier is active (the CPU supports AVX2+FMA and
 * MNNFAST_KERNELS does not cap the tier at scalar).
 */
bool simdActive();

/** Name of the active kernel tier: "avx512", "avx2" or "scalar". */
const char *kernelBackendName();

/**
 * Portable reference implementations. Always compiled; the public
 * kernels above dispatch to either these or a SIMD tier. Exposed
 * so property tests can compare the two paths directly and so callers
 * can pin the reference path independently of the dispatch decision.
 * zero/copy/gemv/gemvT/softmax have no SIMD-specific variant (they are
 * memset/memcpy or compositions of dispatched primitives) and so have
 * no entry here.
 */
namespace scalar {

float dot(const float *x, const float *y, size_t n);
void axpy(float alpha, const float *x, float *y, size_t n);
void scal(float alpha, float *x, size_t n);
float sum(const float *x, size_t n);
float maxElement(const float *x, size_t n);
void dotBatchMulti(const float *x, size_t nx, size_t xstride,
                   const float *rows, size_t count, size_t n,
                   size_t stride, float *out, size_t ostride);
void weightedSumSkipMulti(const float *e, size_t ne, size_t estride,
                          const float *rows, size_t count, size_t n,
                          size_t stride, float threshold,
                          double *running_sums, float *acc,
                          size_t accstride, uint64_t &kept,
                          uint64_t &skipped);
void dotBatchMultiBf16(const float *x, size_t nx, size_t xstride,
                       const uint16_t *rows, size_t count, size_t n,
                       size_t stride, float *out, size_t ostride);
void weightedSumSkipMultiBf16(const float *e, size_t ne, size_t estride,
                              const uint16_t *rows, size_t count,
                              size_t n, size_t stride, float threshold,
                              double *running_sums, float *acc,
                              size_t accstride, uint64_t &kept,
                              uint64_t &skipped);
void dotBatchMultiI8(const float *x, size_t nx, size_t xstride,
                     const int8_t *rows, size_t count, size_t n,
                     size_t stride, float scale, float zero, float *out,
                     size_t ostride);
void weightedSumSkipMultiI8(const float *e, size_t ne, size_t estride,
                            const int8_t *rows, size_t count, size_t n,
                            size_t stride, float scale, float zero,
                            float threshold, double *running_sums,
                            float *acc, size_t accstride,
                            uint64_t &kept, uint64_t &skipped);
void quantizeI8(const float *x, size_t n, float zero, float inv_scale,
                int8_t *q);
void chunkBoundBatch(const float *x, size_t nx, size_t xstride,
                     const float *lo, const float *hi, size_t count,
                     size_t n, size_t stride, float *out,
                     size_t ostride);
void gemm(const float *a, const float *b, float *c,
          size_t m, size_t k, size_t n, bool accumulate);
void expInplace(float *x, size_t n);
void expShiftInplace(float *x, size_t n, float k);

} // namespace scalar

} // namespace mnnfast::blas

#endif // MNNFAST_BLAS_KERNELS_HH
