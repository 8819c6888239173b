#include "core/column_engine.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "blas/kernels.hh"
#include "runtime/parallel_for.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::core {

namespace {

/**
 * The strip is the reuse unit of the query-blocked sweep: its
 * M_IN/M_OUT rows stay cache-resident while every question in the
 * batch consumes them, so DRAM traffic per chunk is paid once per
 * batch. The strip row count comes from the constant plan table
 * (runtime::kPlanTable, per precision and single/multi-question
 * batch): the whole chunk, or a multiple of the kernels' 4-row
 * register group, so no strip ends in a row tail. Strip boundaries
 * never change results: the kernels fix each (query, row) pair's
 * accumulation order however a sweep is split (bit-identity).
 * Streaming is the kernels' row look-ahead (blas::RowLookahead), at
 * the plan's distance: each row tile prefetches the rows that far
 * ahead of itself, across strip and chunk boundaries, so the stream's
 * line fills overlap the arithmetic instead of preceding it in a burst.
 */

/** Oversubscription factor for the automatic group count. */
constexpr size_t kAutoGroupsPerWorker = 4;

/**
 * 2^d for an integer-valued d <= 0: the exact factor between two
 * running shifts (0 once it leaves the double range, as for d = -inf,
 * the shift of a partial that saw no row; NaN stays NaN).
 */
double
pow2(float d)
{
    if (!(d >= -1074.f))
        return std::isnan(d) ? d : 0.0;
    return std::ldexp(1.0, static_cast<int>(d));
}

} // namespace

ColumnEngine::ColumnEngine(const KnowledgeBase &kb, const EngineConfig &cfg)
    : kb(kb), cfg(cfg), pool(cfg.threads)
{
    if (this->cfg.chunkSize == 0)
        fatal("column engine chunk size must be nonzero");
    switch (this->cfg.routePolicy) {
      case RoutePolicy::None:
        break;
      case RoutePolicy::TopK:
        if (this->cfg.routeTopK == 0)
            fatal("RoutePolicy::TopK requires routeTopK > 0");
        break;
      case RoutePolicy::BoundThreshold:
        if (!(this->cfg.routeBoundThreshold >= 0.f
              && this->cfg.routeBoundThreshold <= 1.f))
            fatal("RoutePolicy::BoundThreshold requires "
                  "routeBoundThreshold in [0, 1], got %g",
                  static_cast<double>(this->cfg.routeBoundThreshold));
        break;
    }
    // A chunk can never be larger than the KB, so clamp up front: the
    // scratch tiles, the reported chunk geometry, and chunkSize() all
    // reflect what actually runs. An empty KB is left alone so that
    // construction stays legal (inferBatch over it still panics).
    if (kb.size() > 0)
        this->cfg.chunkSize = std::min(this->cfg.chunkSize, kb.size());
    workerArenas.resize(std::max<size_t>(1, pool.threadCount()));
}

const char *
ColumnEngine::name() const
{
    const bool routed = routingActive();
    if (cfg.skipThreshold > 0.f && cfg.streaming)
        return routed ? "mnnfast+routed" : "mnnfast";
    if (cfg.streaming)
        return routed ? "column+streaming+routed" : "column+streaming";
    if (cfg.skipThreshold > 0.f)
        return routed ? "column+zskip+routed" : "column+zskip";
    return routed ? "column+routed" : "column";
}

const std::vector<runtime::Range> &
ColumnEngine::chunkGroups(size_t n_chunks)
{
    // A pure function of the chunk count and configuration, so which
    // worker claims which group can never change the merged result
    // (see header). Cached: the KB size is fixed for the engine's
    // lifetime in the serving loop, so this recomputes only if the KB
    // grows between calls.
    if (groupCache.empty() || groupCacheChunks != n_chunks) {
        const size_t workers = std::max<size_t>(1, pool.threadCount());
        const size_t want_groups =
            cfg.scheduleGroups > 0
                ? cfg.scheduleGroups
                : (workers > 1 ? workers * kAutoGroupsPerWorker : 1);
        groupCache =
            runtime::splitRange(n_chunks, std::min(n_chunks, want_groups));
        groupCacheChunks = n_chunks;
    }
    return groupCache;
}

void
ColumnEngine::processChunks(const float *u, size_t nq, size_t row_begin,
                            size_t row_end,
                            const runtime::KernelPlan &plan, Partial &out,
                            size_t worker, uint64_t &kept,
                            uint64_t &skipped,
                            runtime::ScratchArena &scratch,
                            const uint8_t *sel, size_t sel_stride,
                            uint64_t &routed_rows,
                            uint64_t &bypassed) const
{
    const size_t ed = kb.dim();
    const size_t chunk = cfg.chunkSize;
    // The knowledge base's two row sweeps (kb.dotMin, kb.weightedSumMout)
    // pick the fused kernels of its storage precision and, for int8,
    // split kernel calls at quantization-group ends and carry the
    // look-ahead across each split; everything here (strips,
    // look-ahead reach, scratch, merge) is precision-agnostic.
    const size_t ahead_rows = cfg.streaming ? plan.lookaheadRows : 0;
    // Call granularity never changes results: the per-(question, row)
    // accumulation order is call-split invariant.
    const size_t strip =
        plan.stripRows == runtime::kWholeChunk ? chunk : plan.stripRows;
    const float th = cfg.skipThreshold;

    // Chunk-local e-value tile, the only per-question temporary:
    // t[q * chunk + i] is the (exponentiated) score of chunk row i for
    // question q. Claimed from this worker's persistent arena (the
    // caller reset it before this group's claims) — steady state is a
    // pure bump-pointer rewind. Under routing, row q of the tile
    // belongs to the q-th *selected* question of the current chunk.
    float *t = scratch.floats(nq * chunk);
    // Compacted sub-batch buffers for partially selected chunks:
    // gathered question vectors and accumulator state for the
    // selected questions only, scattered back after the chunk.
    float *u_sub = nullptr, *acc_sub = nullptr, *runmax_sub = nullptr;
    double *psum_sub = nullptr;
    uint32_t *qsel = nullptr;
    if (sel) {
        u_sub = scratch.floats(nq * ed);
        acc_sub = scratch.floats(nq * ed);
        runmax_sub = scratch.floats(nq);
        psum_sub = scratch.doubles(nq);
        qsel = reinterpret_cast<uint32_t *>(
            scratch.bytes(nq * sizeof(uint32_t)));
    }
    const size_t first_chunk = row_begin / chunk;
    Timer phase_timer;

    for (size_t c0 = row_begin; c0 < row_end; c0 += chunk) {
        const size_t c1 = std::min(c0 + chunk, row_end);
        const size_t len = c1 - c0;

        // Routing: gather this chunk's selected questions. A chunk no
        // question selected is bypassed outright — its rows are never
        // streamed, prefetched or observed.
        size_t nb = nq;
        if (sel) {
            const size_t ci = c0 / chunk - first_chunk;
            nb = 0;
            for (size_t q = 0; q < nq; ++q)
                if (sel[q * sel_stride + ci])
                    qsel[nb++] = static_cast<uint32_t>(q);
            if (nb == 0) {
                ++bypassed;
                continue;
            }
            routed_rows += len * nb;
        }

        // Streaming: the kernels' row look-ahead may run past a call
        // into the rest of this chunk and on into the next one, which
        // this group streams next. Under routing, a next chunk no
        // question selected is out of its reach (its bytes will never
        // be read).
        size_t next_len =
            ahead_rows > 0 && c1 < row_end ? std::min(chunk, row_end - c1)
                                           : 0;
        if (sel && next_len > 0) {
            const size_t nci = c1 / chunk - first_chunk;
            bool any = false;
            for (size_t q = 0; q < nq && !any; ++q)
                any = sel[q * sel_stride + nci] != 0;
            if (!any)
                next_len = 0;
        }
        // The look-ahead of a strip that ends at chunk row `end`.
        const auto ahead = [&](size_t end) {
            return blas::RowLookahead{ahead_rows, len - end + next_len};
        };

        // Partial selection runs the identical three phases over a
        // compacted question sub-batch: gather the selected questions'
        // query vectors and accumulator state, run the kernels at the
        // sub-batch size, scatter back. Exact per question — the
        // kernels' per-(question, row) accumulation order does not
        // depend on which other questions share the call.
        const float *uu = u;
        float *acc = out.o;
        double *psum = out.psum;
        float *runmax = out.runmax;
        const bool compact = sel && nb < nq;
        if (compact) {
            for (size_t j = 0; j < nb; ++j) {
                const size_t q = qsel[j];
                blas::copy(u + q * ed, u_sub + j * ed, ed);
                blas::copy(out.o + q * ed, acc_sub + j * ed, ed);
                psum_sub[j] = out.psum[q];
                runmax_sub[j] = out.runmax[q];
            }
            uu = u_sub;
            acc = acc_sub;
            psum = psum_sub;
            runmax = runmax_sub;
        }

        // Phase 1: inner products, query-blocked. Each strip of M_IN
        // rows is loaded once and swept through the whole question
        // batch by the register-tiled kernel (a small packed GEMM);
        // the strip stays L1-resident across the batch, so the chunk
        // streams from memory once per batch, not once per question.
        phase_timer.reset();
        for (size_t s0 = 0; s0 < len; s0 += strip) {
            const size_t s1 = std::min(s0 + strip, len);
            kb.dotMin(uu, nb, c0 + s0, c0 + s1, t + s0, chunk, ahead(s1));
        }
        out.tInner += phase_timer.seconds();

        // Phase 2 (partial softmax): exponential shifted by the
        // running max + running sum. When the chunk raises the
        // running shift, the accumulators are rescaled first — by an
        // exact power of two (see header) — so no e-value exceeds
        // ~1.4 and large logits cannot overflow.
        phase_timer.reset();
        for (size_t q = 0; q < nb; ++q) {
            float *tq = t + q * chunk;
            const float k = std::max(
                runmax[q], blas::expShiftFor(blas::maxElement(tq, len)));
            if (k > runmax[q]) {
                const double rescale = pow2(runmax[q] - k);
                psum[q] *= rescale;
                blas::scal(static_cast<float>(rescale), acc + q * ed, ed);
                runmax[q] = k;
            }
            blas::expShiftInplace(tq, len, k);
        }
        out.tSoftmax += phase_timer.seconds();

        // Phase 3: fused weighted sum with optional zero-skipping,
        // query-blocked like phase 1 — a kept M_OUT row is loaded once
        // and accumulated into every question that keeps it. The skip
        // test stays per-(question,row): the kernel folds e into each
        // question's running sum before testing e < th * S_running, so
        // the test is conservative (see header) and decisions are
        // identical to the per-question sweep; skipped rows never
        // touch M_OUT or the accumulator for that question. Under
        // zero-skip most of M_OUT is never read, and which rows will
        // be is unknown until the skip test, so only a dense sweep
        // looks ahead across rows (kernels.hh, RowLookahead).
        phase_timer.reset();
        for (size_t s0 = 0; s0 < len; s0 += strip) {
            const size_t s1 = std::min(s0 + strip, len);
            kb.weightedSumMout(t + s0, nb, chunk, c0 + s0, c0 + s1, th,
                               psum, acc, kept, skipped, ahead(s1));
        }
        out.tWsum += phase_timer.seconds();

        if (compact) {
            for (size_t j = 0; j < nb; ++j) {
                const size_t q = qsel[j];
                blas::copy(acc_sub + j * ed, out.o + q * ed, ed);
                out.psum[q] = psum_sub[j];
                out.runmax[q] = runmax_sub[j];
            }
        }

        if (cfg.chunkObserver)
            cfg.chunkObserver(worker, c0 / chunk);
    }
}

const uint8_t *
ColumnEngine::selectGroup(const float *u, size_t nq,
                          runtime::Range chunks,
                          const runtime::KernelPlan &plan,
                          runtime::ScratchArena &scratch) const
{
    const size_t ed = kb.dim();
    const size_t n_g = chunks.end - chunks.begin;
    float *scores = scratch.floats(nq * n_g);
    uint8_t *sel = scratch.bytes(nq * n_g);

    // Coarse scoring: the fused bound kernel over this group's chunk
    // summaries, strip-swept with the "bound" plan. Strip boundaries
    // cannot change scores (per-(question, chunk) pairs are
    // independent).
    const float *lo = routeIndex->loData() + chunks.begin * ed;
    const float *hi = routeIndex->hiData() + chunks.begin * ed;
    const size_t strip =
        plan.stripRows == runtime::kWholeChunk ? n_g : plan.stripRows;
    for (size_t s0 = 0; s0 < n_g; s0 += strip) {
        const size_t s1 = std::min(s0 + strip, n_g);
        blas::chunkBoundBatch(u, nq, ed, lo + s0 * ed, hi + s0 * ed,
                              s1 - s0, ed, ed, scores + s0, n_g);
    }

    if (cfg.routePolicy == RoutePolicy::TopK) {
        const size_t k = std::min(cfg.routeTopK, n_g);
        if (k >= n_g) {
            std::fill(sel, sel + nq * n_g, uint8_t(1));
            return sel;
        }
        // Exact top-k per question under the total order (score desc,
        // chunk index asc) — the tie-break makes the selected *set* a
        // pure function of the scores, independent of how
        // nth_element permutes within partitions.
        uint32_t *idx = reinterpret_cast<uint32_t *>(
            scratch.bytes(n_g * sizeof(uint32_t)));
        for (size_t q = 0; q < nq; ++q) {
            const float *s = scores + q * n_g;
            uint8_t *m = sel + q * n_g;
            std::fill(m, m + n_g, uint8_t(0));
            for (size_t c = 0; c < n_g; ++c)
                idx[c] = static_cast<uint32_t>(c);
            std::nth_element(idx, idx + k, idx + n_g,
                             [s](uint32_t a, uint32_t b) {
                                 return s[a] != s[b] ? s[a] > s[b]
                                                     : a < b;
                             });
            for (size_t c = 0; c < k; ++c)
                m[idx[c]] = 1;
        }
    } else {
        // BoundThreshold: keep chunks whose bound is within ln(th) of
        // the group's best bound. th = 0 gives cut = -inf and keeps
        // every chunk (exact attention).
        const float lnth = std::log(cfg.routeBoundThreshold);
        for (size_t q = 0; q < nq; ++q) {
            const float *s = scores + q * n_g;
            uint8_t *m = sel + q * n_g;
            float gmax = s[0];
            for (size_t c = 1; c < n_g; ++c)
                gmax = std::max(gmax, s[c]);
            const float cut = gmax + lnth;
            for (size_t c = 0; c < n_g; ++c)
                m[c] = s[c] >= cut ? uint8_t(1) : uint8_t(0);
        }
    }
    return sel;
}

ColumnEngine::RunTotals
ColumnEngine::runGroups(const float *u, size_t nq)
{
    const size_t ns = kb.size();
    const size_t ed = kb.dim();
    mnn_assert(ns > 0, "inference over an empty knowledge base");

    const size_t workers = std::max<size_t>(1, pool.threadCount());
    const size_t n_chunks = (ns + cfg.chunkSize - 1) / cfg.chunkSize;
    const auto &groups = chunkGroups(n_chunks);
    // One plan lookup per pass, outside the worker loops.
    const runtime::KernelPlan plan =
        runtime::kernelPlan(precisionName(kb.precision()), nq);

    // Routing: make sure the chunk-summary index snapshot covers the
    // current KB (lazy build; rebuilt only when the KB grew). Resolved
    // on the caller thread, before workers start.
    const bool routed = routingActive();
    runtime::KernelPlan bound_plan{};
    if (routed) {
        if (!routeIndex || routeIndexRows != ns) {
            routeIndex =
                std::make_unique<ChunkSummaryIndex>(kb, cfg.chunkSize);
            routeIndexRows = ns;
        }
        bound_plan = runtime::kernelPlan("bound", nq);
    }

    // Group partials live in the persistent arena: the previous
    // call's spans are dead, so rewind and claim fresh ones. At a
    // steady batch size the claims replay the same layout over the
    // same retained block — no allocation.
    partialArena.reset();
    partials.resize(groups.size());
    groupViews.resize(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
        Partial &p = partials[g];
        p.o = partialArena.floats(nq * ed);
        p.psum = partialArena.doubles(nq);
        p.runmax = partialArena.floats(nq);
        blas::zero(p.o, nq * ed);
        std::fill(p.psum, p.psum + nq, 0.0);
        std::fill(p.runmax, p.runmax + nq,
                  -std::numeric_limits<float>::infinity());
        p.tInner = p.tSoftmax = p.tWsum = 0.0;
        groupViews[g] = {p.o, p.psum, p.runmax};
    }

    // Per-worker slots, indexed by the unique worker/part id, so the
    // hot path needs no merge lock.
    keptPerWorker.assign(workers, 0);
    skippedPerWorker.assign(workers, 0);
    routedPerWorker.assign(workers, 0);
    bypassedPerWorker.assign(workers, 0);

    auto runGroup = [&](size_t worker, size_t g) {
        const runtime::Range cr = groups[g];
        runtime::ScratchArena &scratch = workerArenas[worker];
        // Any span a previous group claimed on this worker is dead by
        // now; steady state is a pure bump-pointer rewind.
        scratch.reset();
        // Selection is per chunk group: shard s of a ShardedEngine
        // sees exactly group s's rows, so group-local selection is
        // what makes routing compose with sharding bit-identically.
        const uint8_t *sel =
            routed ? selectGroup(u, nq, cr, bound_plan, scratch)
                   : nullptr;
        processChunks(u, nq, cr.begin * cfg.chunkSize,
                      std::min(ns, cr.end * cfg.chunkSize), plan,
                      partials[g], worker, keptPerWorker[worker],
                      skippedPerWorker[worker], scratch, sel,
                      cr.end - cr.begin, routedPerWorker[worker],
                      bypassedPerWorker[worker]);
    };

    runtime::parallelForDynamic(
        pool, groups.size(), 1, [&](size_t worker, runtime::Range r) {
            for (size_t g = r.begin; g < r.end; ++g)
                runGroup(worker, g);
        });

    RunTotals totals;
    totals.nChunks = n_chunks;
    for (size_t w = 0; w < workers; ++w) {
        totals.kept += keptPerWorker[w];
        totals.skipped += skippedPerWorker[w];
        totals.routedRows += routedPerWorker[w];
        totals.bypassed += bypassedPerWorker[w];
    }
    return totals;
}

double
foldPartials(const PartialView *parts, size_t nParts, size_t q,
             size_t ed, float *oq, float *runMax)
{
    float gmax = -std::numeric_limits<float>::infinity();
    for (size_t i = 0; i < nParts; ++i)
        gmax = std::max(gmax, parts[i].runMax[q]);
    double s = 0.0;
    blas::zero(oq, ed);
    for (size_t i = 0; i < nParts; ++i) {
        const PartialView &p = parts[i];
        if (p.expSum[q] == 0.0)
            continue;
        const double scale = pow2(p.runMax[q] - gmax);
        s += p.expSum[q] * scale;
        blas::axpy(static_cast<float>(scale), p.o + q * ed, oq, ed);
    }
    *runMax = gmax;
    return s;
}

void
mergeStreamPartials(const PartialView *parts, size_t nParts, size_t nq,
                    size_t ed, float *o)
{
    // The lazy softmax division: O(ed) divisions per question instead
    // of O(ns).
    for (size_t q = 0; q < nq; ++q) {
        float gmax;
        const double s = foldPartials(parts, nParts, q, ed, o + q * ed,
                                      &gmax);
        blas::scal(static_cast<float>(1.0 / s), o + q * ed, ed);
    }
}

void
ColumnEngine::inferBatch(const float *u, size_t nq, float *o)
{
    Timer timer;
    const RunTotals totals = runGroups(u, nq);
    // Group order is fixed by the config, never by which worker ran a
    // group (see header), so the merge is deterministic.
    mergeStreamPartials(groupViews.data(), groupViews.size(), nq,
                        kb.dim(), o);
    // The partial entry point defers the division to the gather.
    counterGroup["div_ops"].add(nq * kb.dim());
    recordRunStats(totals, nq, timer.seconds());
}

void
ColumnEngine::inferPartial(const float *u, size_t nq, StreamPartial &out)
{
    const size_t ed = kb.dim();
    Timer timer;
    const RunTotals totals = runGroups(u, nq);

    out.nq = nq;
    out.o.resize(nq * ed);
    out.expSum.resize(nq);
    out.runMax.resize(nq);
    // The same fold as inferBatch, minus the division, which the
    // gather applies after the cross-shard merge. With a single group
    // this is a bit-exact copy of its accumulators (scale 2^0 = 1,
    // 0 + x and 1 * x are exact), the property the sharded
    // bit-identity guarantee rests on.
    for (size_t q = 0; q < nq; ++q)
        out.expSum[q] =
            foldPartials(groupViews.data(), groupViews.size(), q, ed,
                         out.o.data() + q * ed, &out.runMax[q]);

    recordRunStats(totals, nq, timer.seconds());
}

void
ColumnEngine::recordRunStats(const RunTotals &totals, size_t nq,
                             double wall_seconds)
{
    // Attribute phase times. With workers, per-group phase seconds
    // overlap in wall-clock; dividing by the worker count gives the
    // effective contribution (exact in the inline/1-thread case used
    // for the Fig. 9a breakdown).
    const size_t workers = std::max<size_t>(1, pool.threadCount());
    double t_inner = 0.0, t_soft = 0.0, t_wsum = 0.0;
    for (const Partial &p : partials) {
        t_inner += p.tInner;
        t_soft += p.tSoftmax;
        t_wsum += p.tWsum;
    }
    const double denom = static_cast<double>(workers);
    times.innerProduct += t_inner / denom;
    times.softmax += t_soft / denom;
    times.weightedSum += t_wsum / denom;
    times.other += std::max(0.0, wall_seconds
                                 - (t_inner + t_soft + t_wsum) / denom);

    // The honest scratch footprint: every arena's retained capacity —
    // chunk tiles on each worker plus all groups' partials.
    size_t scratch_bytes = partialArena.capacityBytes();
    for (const runtime::ScratchArena &a : workerArenas)
        scratch_bytes += a.capacityBytes();
    counterGroup["intermediate_bytes"].reset();
    counterGroup["intermediate_bytes"].add(scratch_bytes);

    counterGroup["chunks_processed"].add(totals.nChunks);
    counterGroup["rows_kept"].add(totals.kept);
    counterGroup["rows_skipped"].add(totals.skipped);
    if (routingActive()) {
        // Inner-product flops reflect the pairs actually streamed;
        // the coarse sweep's own cost (~4 flops per dimension per
        // scored (question, chunk) pair: two muls, a max, an add) is
        // reported separately so savings stay honest.
        counterGroup["flops_inner"].add(2ull * totals.routedRows
                                        * kb.dim());
        counterGroup["rows_routed"].add(totals.routedRows);
        counterGroup["chunks_bypassed"].add(totals.bypassed);
        counterGroup["flops_route"].add(4ull * nq * totals.nChunks
                                        * kb.dim());
    } else {
        counterGroup["flops_inner"].add(2ull * nq * kb.size()
                                        * kb.dim());
    }
    counterGroup["flops_wsum"].add(2ull * totals.kept * kb.dim());
}

} // namespace mnnfast::core
