/**
 * @file
 * AVX-512 kernel tier: the fused kernels of kernels_simd.hh over the
 * 512-bit width trait below; every other entry comes from the AVX2
 * tier.
 *
 * Compiled with -mavx512f -mavx512vl -mavx512bw -mavx512dq -mfma on
 * x86-64 (src/CMakeLists.txt), a nullptr stub elsewhere. Nothing here
 * runs unless avx512Kernels() returned a table, which requires the
 * host CPU to report those features at startup.
 *
 * Shapes: a zmm holds two questions' 8-lane chains for one row, the
 * questions interleaved once per call into a packed [q0 block | q1
 * block] buffer and each row block broadcast into both halves (f32 and
 * int8 rows; the bf16 dot stays on the AVX2 tier's tile). Tiles
 * are 4 pairs x 8 rows (32 accumulators): a 4 x 4 tile is faster on
 * cache-resident rows, but on the engine's streamed strips the 8-row
 * tile won end to end. An odd last question is padded with a repeat,
 * and a lone question runs on the 256-bit trait. The weighted sum
 * accumulates 16 lanes at a time and, for tiles of more than four
 * questions, scans the skip tests of eight questions per __m512d.
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
     * Row blocks into both halves: f32 by vbroadcastf32x8; int8
     * broadcasts its stored bytes first (a load-port broadcast) and
     * widens all 16 lanes at once, so no lane shuffle follows. The bf16
     * dot is the AVX2 tier's (fusedTable).
     */
    static Vec
    rowBlock(const float *p)
    {
        return _mm512_broadcast_f32x8(_mm256_loadu_ps(p));
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
    static const KernelTable table = fusedTable<Zmm>(*avx2, "avx512");
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
