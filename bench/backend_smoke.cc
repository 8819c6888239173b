/**
 * @file
 * Cross-process kernel-tier smoke: runs the fused knowledge-base
 * kernels of every storage precision — the phase-1 batched dot, the
 * phase-3 zero-skip weighted sum and the routing bound sweep — on
 * fixed inputs and prints every output's bits in hex. Run it once per
 * tier cap (MNNFAST_KERNELS=scalar, avx2, avx512) and diff the "score"
 * lines: every tier must agree bit for bit (blas/kernels.hh, canonical
 * accumulation order). tests/backend_smoke.sh does exactly that.
 *
 * Usage: backend_smoke
 * Output: "backend <name>", then one
 * "score <kernel> <precision> nq=<n> <index> <hex32>" line per output
 * element (and per zero-skip counter).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "blas/kernels.hh"
#include "util/bf16.hh"
#include "util/rng.hh"

using namespace mnnfast;

namespace {

constexpr size_t kRows = 37; // not a multiple of any tile or strip
constexpr size_t kDim = 100; // not a multiple of the 8-lane width
constexpr float kScale = 0.02f, kZero = -0.3f; // i8 affine code

struct Block
{
    std::vector<float> f32, lo, hi;
    std::vector<uint16_t> bf16;
    std::vector<int8_t> i8;
};

Block
makeBlock()
{
    XorShiftRng rng(11);
    Block b;
    for (size_t i = 0; i < kRows * kDim; ++i) {
        const float v = rng.uniformRange(-1.f, 1.f);
        b.f32.push_back(v);
        b.bf16.push_back(bf16FromFloat(v));
        b.i8.push_back(static_cast<int8_t>(int(rng.below(255)) - 127));
        const float w = rng.uniformRange(-1.f, 1.f);
        b.lo.push_back(v < w ? v : w);
        b.hi.push_back(v < w ? w : v);
    }
    return b;
}

void
print(const char *kernel, const char *prec, size_t nq,
      const std::vector<float> &v)
{
    for (size_t i = 0; i < v.size(); ++i) {
        uint32_t bits;
        std::memcpy(&bits, &v[i], sizeof bits);
        std::printf("score %s %s nq=%zu %zu %08x\n", kernel, prec, nq, i,
                    bits);
    }
}

/** Phase-1 scores of every row for nq questions (nq x kRows). */
std::vector<float>
dot(const Block &b, const char *prec, const std::vector<float> &x,
    size_t nq)
{
    std::vector<float> t(nq * kRows);
    if (std::strcmp(prec, "f32") == 0)
        blas::dotBatchMulti(x.data(), nq, kDim, b.f32.data(), kRows, kDim,
                            kDim, t.data(), kRows);
    else if (std::strcmp(prec, "bf16") == 0)
        blas::dotBatchMultiBf16(x.data(), nq, kDim, b.bf16.data(), kRows,
                                kDim, kDim, t.data(), kRows);
    else
        blas::dotBatchMultiI8(x.data(), nq, kDim, b.i8.data(), kRows,
                              kDim, kDim, kScale, kZero, t.data(), kRows);
    return t;
}

/** The phase-3 weighted sum of every row into acc (nq x kDim). */
void
wsum(const Block &b, const char *prec, const std::vector<float> &e,
     size_t nq, float th, std::vector<float> &acc, uint64_t &kept,
     uint64_t &skipped)
{
    std::vector<double> sums(nq);
    if (std::strcmp(prec, "f32") == 0)
        blas::weightedSumSkipMulti(e.data(), nq, kRows, b.f32.data(),
                                   kRows, kDim, kDim, th, sums.data(),
                                   acc.data(), kDim, kept, skipped);
    else if (std::strcmp(prec, "bf16") == 0)
        blas::weightedSumSkipMultiBf16(e.data(), nq, kRows, b.bf16.data(),
                                       kRows, kDim, kDim, th, sums.data(),
                                       acc.data(), kDim, kept, skipped);
    else
        blas::weightedSumSkipMultiI8(e.data(), nq, kRows, b.i8.data(),
                                     kRows, kDim, kDim, kScale, kZero, th,
                                     sums.data(), acc.data(), kDim, kept,
                                     skipped);
}

} // namespace

int
main()
{
    std::printf("backend %s\n", blas::kernelBackendName());
    const Block b = makeBlock();
    XorShiftRng rng(12);

    // Every dot tile path of every tier (the lone query; AVX2's pairs
    // and triples; AVX-512's one to four pairs, an odd last question
    // padded) with every row-tile remainder (kRows = 37), and every
    // weighted-sum path (the skip scan's full and partial 4- and
    // 8-query groups, int8's two-pass single query, the all-kept loop)
    // runs at least once.
    for (size_t nq : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                      size_t{5}, size_t{7}, size_t{8}, size_t{9},
                      size_t{15}, size_t{16}}) {
        std::vector<float> x(nq * kDim);
        for (float &v : x)
            v = rng.uniformRange(-1.f, 1.f);
        for (const char *prec : {"f32", "bf16", "i8"}) {
            const std::vector<float> t = dot(b, prec, x, nq);
            print("dot", prec, nq, t);

            // Peaked positive weights, so a 5% threshold both keeps
            // and skips rows.
            std::vector<float> e(nq * kRows);
            for (size_t i = 0; i < e.size(); ++i)
                e[i] = (t[i] > 0.f ? 1.f + t[i] * t[i] : 0.001f);
            for (float th : {0.f, 0.05f}) {
                const char *name = th > 0.f ? "wsum_skip" : "wsum";
                std::vector<float> acc(nq * kDim);
                uint64_t kept = 0, skipped = 0;
                wsum(b, prec, e, nq, th, acc, kept, skipped);
                print(name, prec, nq, acc);
                std::printf("score %s %s nq=%zu kept %llu skipped %llu\n",
                            name, prec, nq,
                            static_cast<unsigned long long>(kept),
                            static_cast<unsigned long long>(skipped));
            }
        }
        std::vector<float> s(nq * kRows);
        blas::chunkBoundBatch(x.data(), nq, kDim, b.lo.data(),
                              b.hi.data(), kRows, kDim, kDim, s.data(),
                              kRows);
        print("bound", "f32", nq, s);
    }
    return 0;
}
