#include "core/baseline_engine.hh"

#include <algorithm>
#include <cmath>

#include "blas/kernels.hh"
#include "runtime/kernel_tuner.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"

namespace mnnfast::core {

namespace {

/**
 * Rows per dynamically-claimed block in step 1. Small enough that the
 * cursor balances work, large enough that the batched dot kernel and
 * the atomic claim amortize.
 */
constexpr size_t kStep1Grain = 64;

} // namespace

BaselineEngine::BaselineEngine(const KnowledgeBase &kb,
                               const EngineConfig &cfg)
    : kb(kb), cfg(cfg), pool(cfg.threads)
{}

void
BaselineEngine::inferBatch(const float *u, size_t nq, float *o)
{
    const size_t ns = kb.size();
    const size_t ed = kb.dim();
    mnn_assert(ns > 0, "inference over an empty knowledge base");

    tin.resize(nq * ns);
    pexp.resize(nq * ns);
    p.resize(nq * ns);
    counterGroup["intermediate_bytes"].reset();
    counterGroup["intermediate_bytes"].add(3 * nq * ns * sizeof(float));

    PhaseTimer timer;

    // Step 1: inner product across M_IN rows. Each claimed row block
    // is one query-blocked dotBatchMulti call: the register tile
    // reuses every M_IN load across the question batch, writing the
    // block's T_IN column strip for all questions at once. Rows are
    // claimed dynamically: every element is computed independently,
    // so scheduling cannot change the result.
    // The plan's strip doubles as the dynamic claim grain when it is
    // larger than the fixed default (row blocks are independent, so
    // the grain never affects results; a whole-chunk strip, 0, leaves
    // the default). A configured stripRows wins.
    const size_t strip =
        cfg.stripRows > 0
            ? cfg.stripRows
            : runtime::kernelPlan(precisionName(kb.precision()), nq)
                  .stripRows;
    const size_t grain = std::max(kStep1Grain, strip);

    timer.start();
    switch (kb.precision()) {
      case Precision::F32: {
        const float *min = kb.minData();
        runtime::parallelForDynamic(
            pool, ns, grain, [&](size_t, runtime::Range r) {
                blas::dotBatchMulti(u, nq, ed, min + r.begin * ed,
                                    r.size(), ed, ed,
                                    tin.data() + r.begin, ns);
            });
        break;
      }
      case Precision::BF16: {
        const uint16_t *min = kb.minData16();
        runtime::parallelForDynamic(
            pool, ns, grain, [&](size_t, runtime::Range r) {
                blas::dotBatchMultiBf16(u, nq, ed, min + r.begin * ed,
                                        r.size(), ed, ed,
                                        tin.data() + r.begin, ns);
            });
        break;
      }
      case Precision::I8: {
        // One kernel call per quantization group inside each claimed
        // block, so every call carries a single (scale, zero) pair.
        const int8_t *min = kb.minData8();
        runtime::parallelForDynamic(
            pool, ns, grain, [&](size_t, runtime::Range r) {
                for (size_t g0 = r.begin; g0 < r.end;) {
                    const size_t g1 = std::min(r.end, kb.i8GroupEnd(g0));
                    blas::dotBatchMultiI8(u, nq, ed, min + g0 * ed,
                                          g1 - g0, ed, ed,
                                          kb.minScale(g0), kb.minZero(g0),
                                          tin.data() + g0, ns);
                    g0 = g1;
                }
            });
        break;
      }
    }
    timer.stop();
    times.innerProduct += timer.seconds();
    counterGroup["flops_inner"].add(2ull * nq * ns * ed);

    // Step 2: softmax in the paper's three lock-step phases, each a
    // full pass over an nq x ns buffer.
    timer.clear();
    timer.start();
    for (size_t q = 0; q < nq; ++q) {
        float *t_row = tin.data() + q * ns;
        float *e_row = pexp.data() + q * ns;
        float *p_row = p.data() + q * ns;

        // Phase 2-1: elementwise exponential into P_exp (vectorized;
        // elementwise, so dynamic scheduling is result-neutral).
        runtime::parallelFor(pool, ns, [&](runtime::Range r) {
            std::copy(t_row + r.begin, t_row + r.end,
                      e_row + r.begin);
            blas::expInplace(e_row + r.begin, r.size());
        });
        // Phase 2-2a: reduce.
        const float s = blas::sum(e_row, ns);
        // Phase 2-2b: normalize into P (ns divisions per question —
        // the cost the lazy softmax moves to O(ed)).
        const float inv = 1.0f / s;
        runtime::parallelFor(pool, ns, [&](runtime::Range r) {
            std::copy(e_row + r.begin, e_row + r.end,
                      p_row + r.begin);
            blas::scal(inv, p_row + r.begin, r.size());
        });
        counterGroup["div_ops"].add(ns);
    }
    timer.stop();
    times.softmax += timer.seconds();

    // Step 3: weighted sum o_q = sum_i p_qi * mout_i, parallelized
    // across row ranges with per-range partial outputs.
    timer.clear();
    timer.start();
    {
        const size_t parts =
            std::max<size_t>(1, pool.threadCount() ? pool.threadCount()
                                                   : 1);
        // Per-part accumulators from the persistent arena: at a
        // steady batch size the claims replay the same layout over
        // the retained block, so no allocation hits the hot path.
        scratch.reset();
        float *partial = scratch.floats(parts * nq * ed);
        blas::zero(partial, parts * nq * ed);
        switch (kb.precision()) {
          case Precision::F32: {
            const float *mout = kb.moutData();
            runtime::parallelForParts(
                pool, ns, parts, [&](size_t part, runtime::Range r) {
                    float *acc = partial + part * nq * ed;
                    for (size_t i = r.begin; i < r.end; ++i) {
                        const float *row = mout + i * ed;
                        for (size_t q = 0; q < nq; ++q)
                            blas::axpy(p[q * ns + i], row, acc + q * ed,
                                       ed);
                    }
                });
            break;
          }
          case Precision::BF16: {
            // The fused bf16 kernel with threshold 0 is exactly the
            // dense weighted sum (nothing skips); its running sums are
            // write-only here, claimed per part so parts stay
            // independent.
            const uint16_t *mout = kb.moutData16();
            double *sums = scratch.doubles(parts * nq);
            std::fill(sums, sums + parts * nq, 0.0);
            runtime::parallelForParts(
                pool, ns, parts, [&](size_t part, runtime::Range r) {
                    uint64_t kept = 0, skipped = 0;
                    blas::weightedSumSkipMultiBf16(
                        p.data() + r.begin, nq, ns, mout + r.begin * ed,
                        r.size(), ed, ed, 0.f, sums + part * nq,
                        partial + part * nq * ed, ed, kept, skipped);
                });
            break;
          }
          case Precision::I8: {
            // Same fused-with-threshold-0 trick as bf16, split at
            // quantization-group boundaries like step 1.
            const int8_t *mout = kb.moutData8();
            double *sums = scratch.doubles(parts * nq);
            std::fill(sums, sums + parts * nq, 0.0);
            runtime::parallelForParts(
                pool, ns, parts, [&](size_t part, runtime::Range r) {
                    uint64_t kept = 0, skipped = 0;
                    for (size_t g0 = r.begin; g0 < r.end;) {
                        const size_t g1 =
                            std::min(r.end, kb.i8GroupEnd(g0));
                        blas::weightedSumSkipMultiI8(
                            p.data() + g0, nq, ns, mout + g0 * ed,
                            g1 - g0, ed, ed, kb.moutScale(g0),
                            kb.moutZero(g0), 0.f, sums + part * nq,
                            partial + part * nq * ed, ed, kept,
                            skipped);
                        g0 = g1;
                    }
                });
            break;
          }
        }
        blas::zero(o, nq * ed);
        for (size_t part = 0; part < parts; ++part)
            blas::axpy(1.0f, partial + part * nq * ed, o, nq * ed);
    }
    timer.stop();
    times.weightedSum += timer.seconds();
    // Account the step-3 accumulators alongside the spilled buffers.
    counterGroup["intermediate_bytes"].add(scratch.capacityBytes());
    counterGroup["flops_wsum"].add(2ull * nq * ns * ed);
    counterGroup["rows_kept"].add(nq * ns);
}

} // namespace mnnfast::core
