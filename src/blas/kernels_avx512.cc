/**
 * @file
 * AVX-512 kernel tier: the fused kernels of kernels_simd.hh over the
 * 512-bit width trait below, and phase 2 at 16 lanes (maxElement,
 * expShiftInplace, expInplace); every other entry comes from the AVX2
 * tier.
 *
 * Compiled with -mavx512f -mavx512vl -mavx512bw -mavx512dq -mfma on
 * x86-64 (src/CMakeLists.txt), a nullptr stub elsewhere. Nothing here
 * runs unless avx512Kernels() returned a table, which requires the
 * host CPU to report those features at startup.
 *
 * Shapes: a zmm holds two questions' 8-lane chains for one row, the
 * questions interleaved once per call into a packed [q0 block | q1
 * block] buffer and each row block broadcast into both halves (f32,
 * bf16 and int8 rows alike). Tiles are 4 pairs x 8 rows (32
 * accumulators): a 4 x 4 tile is faster on cache-resident rows, but on
 * the engine's streamed strips the 8-row tile won end to end. An odd
 * last question is padded with a repeat, and a lone question runs on
 * the 256-bit trait. The bf16 pair tile is compute-bound where it
 * serves: a shard node rides all its in-flight requests on one scan
 * (net::ShardNode), so a chunk step carries ~32 questions rather than
 * one 8-question batch near its stream time, whose time swung with the
 * host's memory (DESIGN.md §5). The weighted sum
 * accumulates 16 lanes at a time and, for tiles of more than four
 * questions, scans the skip tests of eight questions per __m512d.
 *
 * Phase 2 equals the AVX2 tier bit for bit. The shifted exp runs
 * exp8's operations lane for lane on 16 lanes, with a masked tail in
 * place of AVX2's buffer copy. maxElement runs four 16-lane chains: a
 * nonzero maximum has one bit pattern whatever the order, so only a
 * zero maximum, whose sign the order picks, is left to the AVX2 tier's
 * maxElement. On a 24 x 1024 logit tile (a served ring step) the two
 * take about half the 8-lane time (EXPERIMENTS.md).
 */

#include "blas/kernels_detail.hh"

#if defined(__AVX512F__) && defined(__AVX512VL__) &&                     \
    defined(__AVX512BW__) && defined(__AVX512DQ__) && defined(__FMA__)

// GCC 12's AVX-512 intrinsic headers warn about their own
// _mm512_undefined_* self-initialisation (GCC PR 105593); silence
// that inside the headers only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include "blas/kernels_simd.hh"

namespace mnnfast::blas::detail {
namespace {

/** The 512-bit width trait of the shared fused kernels. */
struct Zmm
{
    // Phase 1: two questions' 8-lane chains per register.
    using Vec = __m512;
    static constexpr size_t kQ = 2;
    static constexpr size_t kTileGroups = 4;
    static constexpr size_t kTileRows = 8;

    static Vec zero() { return _mm512_setzero_ps(); }
    /** A packed pair's block: the buffer is 64-byte aligned. */
    static Vec loadQ(const float *p) { return _mm512_load_ps(p); }
    /**
     * Row blocks into both halves: f32 by vbroadcastf32x8; bf16 and
     * int8 broadcast their stored bytes first (a load-port broadcast:
     * 16 bytes for bf16, 8 for int8) and widen all 16 lanes at once, so
     * no lane shuffle follows.
     */
    static Vec
    rowBlock(const float *p)
    {
        return _mm512_broadcast_f32x8(_mm256_loadu_ps(p));
    }
    /** Zero-extend to 32 bits and shift into the high half: exact. */
    static Vec
    rowBlock(const uint16_t *p)
    {
        const __m256i h = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
        return _mm512_castsi512_ps(
            _mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
    }
    static Vec
    rowBlock(const int8_t *p)
    {
        const __m128i b = _mm_broadcastq_epi64(
            _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
        return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(b));
    }
    static Vec fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
    static __m256
    half(Vec v, size_t h)
    {
        return h == 0 ? _mm512_castps512_ps256(v)
                      : _mm512_extractf32x8_ps(v, 1);
    }
    static __m128
    block(Vec v, size_t b)
    {
        switch (b) {
        case 0:
            return _mm512_castps512_ps128(v);
        case 1:
            return _mm512_extractf32x4_ps(v, 1);
        case 2:
            return _mm512_extractf32x4_ps(v, 2);
        default:
            return _mm512_extractf32x4_ps(v, 3);
        }
    }
    /**
     * hsum8x8's adds on both halves of eight registers: lane k of block
     * j sums half j % 2 of v[k + 4 * (j / 2)], with hsum8's operands in
     * hsum8's order.
     */
    static Vec
    tree(const Vec (&v)[8])
    {
        // lo + hi of every half: s[k] = [v[k] h0, v[k] h1, v[k+4] h0,
        // v[k+4] h1], one 128-bit block each.
        Vec s[4];
#pragma GCC unroll 4
        for (size_t k = 0; k < 4; ++k)
            s[k] = _mm512_add_ps(
                _mm512_shuffle_f32x4(v[k], v[k + 4], _MM_SHUFFLE(2, 0, 2, 0)),
                _mm512_shuffle_f32x4(v[k], v[k + 4], _MM_SHUFFLE(3, 1, 3, 1)));
        const Vec t01 = _mm512_add_ps(
            _mm512_shuffle_ps(s[0], s[1], _MM_SHUFFLE(1, 0, 1, 0)),
            _mm512_shuffle_ps(s[0], s[1], _MM_SHUFFLE(3, 2, 3, 2)));
        const Vec t23 = _mm512_add_ps(
            _mm512_shuffle_ps(s[2], s[3], _MM_SHUFFLE(1, 0, 1, 0)),
            _mm512_shuffle_ps(s[2], s[3], _MM_SHUFFLE(3, 2, 3, 2)));
        return _mm512_add_ps(
            _mm512_shuffle_ps(t01, t23, _MM_SHUFFLE(2, 0, 2, 0)),
            _mm512_shuffle_ps(t01, t23, _MM_SHUFFLE(3, 1, 3, 1)));
    }

    // Phase 3: 16-lane accumulate, eight questions per scan register.
    using AccVec = __m512;
    static constexpr size_t kAccLanes = 16;
    static AccVec loadAcc(const float *p) { return _mm512_loadu_ps(p); }
    static void storeAcc(float *p, AccVec v) { _mm512_storeu_ps(p, v); }
    static AccVec set1Acc(float v) { return _mm512_set1_ps(v); }
    static AccVec
    fmaAcc(AccVec a, AccVec b, AccVec c)
    {
        return _mm512_fmadd_ps(a, b, c);
    }
    static AccVec widenAcc(const float *p) { return _mm512_loadu_ps(p); }
    static AccVec
    widenAcc(const uint16_t *p)
    {
        const __m256i h =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        return _mm512_castsi512_ps(
            _mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
    }
    static AccVec
    widenAcc(const int8_t *p)
    {
        const __m128i b =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(b));
    }

    using ScanF = __m256;
    using ScanD = __m512d;
    static constexpr size_t kScanLanes = 8;
    static ScanF loadE(const float *p) { return _mm256_loadu_ps(p); }
    static ScanF
    gatherE(const float *const (&eq)[8], size_t r)
    {
        return _mm256_setr_ps(eq[0][r], eq[1][r], eq[2][r], eq[3][r],
                              eq[4][r], eq[5][r], eq[6][r], eq[7][r]);
    }
    static void storeE(float *p, ScanF v) { _mm256_storeu_ps(p, v); }
    /** 8 x 8 transpose: c[k] lane j <- c[j] lane k. */
    static void
    transposeE(ScanF (&c)[8])
    {
        __m256 t[8], u[8];
#pragma GCC unroll 4
        for (size_t k = 0; k < 8; k += 2) {
            t[k] = _mm256_unpacklo_ps(c[k], c[k + 1]);
            t[k + 1] = _mm256_unpackhi_ps(c[k], c[k + 1]);
        }
#pragma GCC unroll 2
        for (size_t k = 0; k < 8; k += 4) {
            u[k] = _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(1, 0, 1, 0));
            u[k + 1] =
                _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(3, 2, 3, 2));
            u[k + 2] =
                _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(1, 0, 1, 0));
            u[k + 3] =
                _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(3, 2, 3, 2));
        }
#pragma GCC unroll 4
        for (size_t k = 0; k < 4; ++k) {
            c[k] = _mm256_permute2f128_ps(u[k], u[k + 4], 0x20);
            c[k + 4] = _mm256_permute2f128_ps(u[k], u[k + 4], 0x31);
        }
    }
    static ScanD widenE(ScanF v) { return _mm512_cvtps_pd(v); }
    static ScanD set1D(double v) { return _mm512_set1_pd(v); }
    static ScanD addD(ScanD a, ScanD b) { return _mm512_add_pd(a, b); }
    static ScanD mulD(ScanD a, ScanD b) { return _mm512_mul_pd(a, b); }
    static unsigned
    lessMask(ScanD a, ScanD b)
    {
        return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
    }
    static ScanD
    loadSums(const double *p, size_t live)
    {
        return _mm512_maskz_loadu_pd(__mmask8((1u << live) - 1), p);
    }
    static void
    storeSums(double *p, ScanD v, size_t live)
    {
        _mm512_mask_storeu_pd(p, __mmask8((1u << live) - 1), v);
    }
};

// --- Phase 2 at 16 lanes ------------------------------------------------

/**
 * maxElement over 16 lanes in four independent chains. Every element
 * equal to a nonzero maximum has the maximum's bits, so the order of
 * the maxima cannot change a nonzero result; a NaN anywhere gives the
 * quiet NaN, as on every tier. Only a zero maximum, whose sign is that
 * of the zero the order picks last, is left to the AVX2 tier's
 * maxElement, so the result equals the AVX2 tier's bit for bit.
 */
float
maxElementAvx512(const float *x, size_t n)
{
    const __m512 x0 = _mm512_set1_ps(x[0]);
    __m512 acc[4] = {x0, x0, x0, x0};
    __mmask16 nan = 0;
    size_t i = 0;
    for (; i + 64 <= n; i += 64) {
#pragma GCC unroll 4
        for (size_t c = 0; c < 4; ++c) {
            const __m512 v = _mm512_loadu_ps(x + i + 16 * c);
            acc[c] = _mm512_max_ps(acc[c], v);
            nan |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
        }
    }
    for (; i < n; i += 16) {
        // Lanes past the end repeat x[0], which is already in every
        // lane's maximum.
        const __mmask16 live =
            n - i >= 16 ? __mmask16(0xffff) : __mmask16((1u << (n - i)) - 1);
        const __m512 v = _mm512_mask_loadu_ps(x0, live, x + i);
        acc[0] = _mm512_max_ps(acc[0], v);
        nan |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    }
    if (nan != 0)
        return __builtin_nanf("");
    const float m = _mm512_reduce_max_ps(_mm512_max_ps(
        _mm512_max_ps(acc[0], acc[1]), _mm512_max_ps(acc[2], acc[3])));
    return m != 0.f ? m : avx2Kernels()->maxElement(x, n);
}

/**
 * exp8 (kernels_avx2.cc) at 16 lanes: its operations lane for lane —
 * roundscale toward -inf for its floor, mask blends for its blendv — so
 * every lane's result has exp8's bits.
 */
inline __m512
exp16(__m512 x, __m512 k)
{
    // n = round(x / ln2), computed as floor(x * log2e + 0.5).
    const __m512 fx = _mm512_roundscale_ps(
        _mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504088896341f),
                        _mm512_set1_ps(0.5f)),
        _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);

    // r = x - n*ln2, with ln2 split for extra precision.
    __m512 r = _mm512_fnmadd_ps(fx, _mm512_set1_ps(0.693359375f), x);
    r = _mm512_fnmadd_ps(fx, _mm512_set1_ps(-2.12194440e-4f), r);

    __m512 y = _mm512_set1_ps(1.9875691500e-4f);
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(1.3981999507e-3f));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(8.3334519073e-3f));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(4.1665795894e-2f));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(1.6666665459e-1f));
    y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(5.0000001201e-1f));
    y = _mm512_fmadd_ps(y, _mm512_mul_ps(r, r), r);
    y = _mm512_add_ps(y, _mm512_set1_ps(1.0f));

    // y *= 2^(n - k) via the exponent field.
    const __m512 lo = _mm512_set1_ps(-126.f), hi = _mm512_set1_ps(127.f);
    const __m512 e = _mm512_sub_ps(fx, k);
    const __mmask16 over = _mm512_cmp_ps_mask(e, hi, _CMP_GT_OQ);
    const __mmask16 under = _mm512_cmp_ps_mask(e, lo, _CMP_NGE_UQ);
    __m512i bits =
        _mm512_cvttps_epi32(_mm512_min_ps(_mm512_max_ps(e, lo), hi));
    bits = _mm512_add_epi32(bits, _mm512_set1_epi32(127));
    bits = _mm512_slli_epi32(bits, 23);
    y = _mm512_mul_ps(y, _mm512_castsi512_ps(bits));

    y = _mm512_mask_blend_ps(over, y, _mm512_set1_ps(__builtin_inff()));
    y = _mm512_mask_blend_ps(under, y, _mm512_setzero_ps());
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), y,
                                x);
}

void
expShiftInplaceAvx512(float *x, size_t n, float k)
{
    const __m512 kv = _mm512_set1_ps(k);
    size_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(x + i, exp16(_mm512_loadu_ps(x + i), kv));
    if (i < n) {
        // The tail through the same lanes, masked: results do not
        // depend on where a 16-lane boundary falls.
        const __mmask16 live = __mmask16((1u << (n - i)) - 1);
        _mm512_mask_storeu_ps(
            x + i, live, exp16(_mm512_maskz_loadu_ps(live, x + i), kv));
    }
}

void
expInplaceAvx512(float *x, size_t n)
{
    expShiftInplaceAvx512(x, n, 0.f);
}

} // namespace

const KernelTable *
avx512Kernels()
{
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512vl") ||
        !__builtin_cpu_supports("avx512bw") ||
        !__builtin_cpu_supports("avx512dq"))
        return nullptr;
    const KernelTable *avx2 = avx2Kernels();
    if (!avx2)
        return nullptr;
    static const KernelTable table = [&] {
        KernelTable t = fusedTable<Zmm>(*avx2, "avx512");
        t.maxElement = maxElementAvx512;
        t.expInplace = expInplaceAvx512;
        t.expShiftInplace = expShiftInplaceAvx512;
        return t;
    }();
    return &table;
}

} // namespace mnnfast::blas::detail

#else

namespace mnnfast::blas::detail {

const KernelTable *
avx512Kernels()
{
    return nullptr;
}

} // namespace mnnfast::blas::detail

#endif
