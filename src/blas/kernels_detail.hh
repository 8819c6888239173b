/**
 * @file
 * Internal kernel-backend table shared between the dispatch layer
 * (kernels.cc) and the SIMD translation units. Not installed; include
 * only from src/blas.
 */

#ifndef MNNFAST_BLAS_KERNELS_DETAIL_HH
#define MNNFAST_BLAS_KERNELS_DETAIL_HH

#include <cstddef>
#include <cstdint>

#include "blas/kernels.hh" // RowLookahead

namespace mnnfast::blas::detail {

/** One full set of kernel entry points (see kernels.hh for contracts). */
struct KernelTable
{
    const char *name;
    float (*dot)(const float *, const float *, size_t);
    void (*axpy)(float, const float *, float *, size_t);
    void (*scal)(float, float *, size_t);
    float (*sum)(const float *, size_t);
    float (*maxElement)(const float *, size_t);
    void (*dotBatchMulti)(const float *, size_t, size_t, const float *,
                          size_t, size_t, size_t, float *, size_t,
                          RowLookahead);
    void (*weightedSumSkipMulti)(const float *, size_t, size_t,
                                 const float *, size_t, size_t, size_t,
                                 float, double *, float *, size_t,
                                 uint64_t &, uint64_t &, RowLookahead);
    void (*dotBatchMultiBf16)(const float *, size_t, size_t,
                              const uint16_t *, size_t, size_t, size_t,
                              float *, size_t, RowLookahead);
    void (*weightedSumSkipMultiBf16)(const float *, size_t, size_t,
                                     const uint16_t *, size_t, size_t,
                                     size_t, float, double *, float *,
                                     size_t, uint64_t &, uint64_t &,
                                     RowLookahead);
    void (*dotBatchMultiI8)(const float *, size_t, size_t,
                            const int8_t *, size_t, size_t, size_t,
                            float, float, float *, size_t, RowLookahead);
    void (*weightedSumSkipMultiI8)(const float *, size_t, size_t,
                                   const int8_t *, size_t, size_t,
                                   size_t, float, float, float,
                                   double *, float *, size_t,
                                   uint64_t &, uint64_t &, RowLookahead);
    void (*chunkBoundBatch)(const float *, size_t, size_t,
                            const float *, const float *, size_t,
                            size_t, size_t, float *, size_t);
    void (*gemm)(const float *, const float *, float *, size_t, size_t,
                 size_t, bool);
    void (*expInplace)(float *, size_t);
    void (*expShiftInplace)(float *, size_t, float);
    void (*quantizeI8)(const float *, size_t, float, float, int8_t *);
};

/**
 * The AVX2+FMA tier, or nullptr when the translation unit was built
 * without AVX2 support or the host CPU lacks the features. Defined in
 * kernels_avx2.cc (which is compiled with -mavx2 -mfma on x86-64 and
 * degrades to a nullptr stub elsewhere).
 */
const KernelTable *avx2Kernels();

/**
 * The AVX-512 tier (F/VL/BW/DQ), or nullptr likewise: the AVX2 table
 * with its fused kernels replaced by 512-bit instantiations. Defined
 * in kernels_avx512.cc.
 */
const KernelTable *avx512Kernels();

} // namespace mnnfast::blas::detail

#endif // MNNFAST_BLAS_KERNELS_DETAIL_HH
