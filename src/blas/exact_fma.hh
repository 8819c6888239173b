/**
 * @file
 * Inline single-rounded float fma for the scalar backend.
 *
 * The scalar translation unit is built for the baseline ISA, so
 * std::fma(float, float, float) there is a call into libm's fmaf. On a
 * CPU without FMA — where the scalar backend is the dispatch fallback —
 * glibc computes it in software, 15-30x slower than this. This gives the
 * same bits inline and without FMA hardware: the product of two floats
 * is exact in double, the double sum is rounded to odd, and the final
 * conversion to float rounds to nearest. Round-to-odd at 53 bits
 * followed by rounding to 24 bits equals a single rounding of the exact
 * result (53 >= 24 + 2), so there is no double-rounding error — ties,
 * subnormal results and overflow to infinity included.
 */

#ifndef MNNFAST_BLAS_EXACT_FMA_HH
#define MNNFAST_BLAS_EXACT_FMA_HH

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace mnnfast::blas {

/** a * b + c with one rounding, bit-identical to std::fma. */
inline float
exactFma(float a, float b, float c)
{
    const double p = double(a) * double(b); // exact: 48 of 53 bits
    const double s = p + double(c);
    // TwoSum: err is the exact rounding error of s (no overflow: both
    // operands are far below DBL_MAX).
    const double pv = s - double(c);
    const double err = (p - pv) + (double(c) - (s - pv));
    // Round to odd without branches (the skip-free inner loops would
    // mispredict half the time): truncate s toward zero — one ulp down
    // in magnitude when the exact value lies inside s — then set the
    // last bit when inexact. An infinite or NaN s (err is then NaN) is
    // left alone.
    const uint64_t inexact = (err != 0.0) & (std::fabs(s) <= DBL_MAX);
    const uint64_t inside = inexact & ((err < 0.0) != (s < 0.0));
    uint64_t bits;
    std::memcpy(&bits, &s, sizeof bits);
    bits = (bits - inside) | inexact;
    double odd;
    std::memcpy(&odd, &bits, sizeof odd);
    return static_cast<float>(odd);
}

} // namespace mnnfast::blas

#endif // MNNFAST_BLAS_EXACT_FMA_HH
