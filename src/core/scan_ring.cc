#include "core/scan_ring.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "blas/kernels.hh"
#include "runtime/kernel_tuner.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::core {

namespace {

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

template <typename T>
size_t
capacityBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

size_t
partialBytes(const StreamPartial &p)
{
    return capacityBytes(p.o) + capacityBytes(p.expSum)
           + capacityBytes(p.runMax);
}

/** One chunk's rows [begin, end) and the row count of the chunk the
 *  pass streams after it (0: none, or out of look-ahead reach). */
struct ChunkSpan
{
    size_t begin = 0;
    size_t end = 0;
    size_t nextLen = 0;
};

/** Chunk c of an ns-row knowledge base, reaching into chunk c + 1
 *  when `next`. */
ChunkSpan
chunkSpan(size_t c, size_t chunk, size_t ns, bool next)
{
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, ns);
    return {begin, end, next ? std::min(end + chunk, ns) - end : 0};
}

/**
 * One chunk of the column dataflow over a knowledge base at one
 * batch's kernel plan: phase 1, and phases 2 and 3 with the routing
 * sub-batch compaction, so the running shift, the exp and the
 * weighted sum live in one place.
 *
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
class ChunkSweep
{
  public:
    /** `nq` picks the kernel plan (single- or multi-question). */
    ChunkSweep(const KnowledgeBase &kb, const EngineConfig &cfg,
               size_t nq)
        : kb(kb), th(cfg.skipThreshold)
    {
        // The knowledge base's two row sweeps (kb.dotMin,
        // kb.weightedSumMout) pick the fused kernels of its storage
        // precision and, for int8, split kernel calls at quantization-
        // group ends and carry the look-ahead across each split;
        // everything here (strips, look-ahead reach, compaction) is
        // precision-agnostic.
        const runtime::KernelPlan plan =
            runtime::kernelPlan(precisionName(kb.precision()), nq);
        strip = plan.stripRows == runtime::kWholeChunk ? cfg.chunkSize
                                                       : plan.stripRows;
        aheadRows = cfg.streaming ? plan.lookaheadRows : 0;
    }

    /**
     * Phase 1: t[j * tstride + (r - rows.begin)] = u_j . M_IN[r] for
     * the nb questions of `u` (contiguous) and every row of `rows`.
     */
    void
    logits(const float *u, size_t nb, ChunkSpan rows, float *t,
           size_t tstride, PhaseSeconds &times) const
    {
        // Each strip of M_IN rows is loaded once and swept through the
        // whole question batch by the register-tiled kernel (a small
        // packed GEMM); the strip stays L1-resident across the batch,
        // so the chunk streams from memory once per batch, not once per
        // question.
        Timer timer;
        for (size_t s0 = rows.begin; s0 < rows.end; s0 += strip) {
            const size_t s1 = std::min(s0 + strip, rows.end);
            kb.dotMin(u, nb, s0, s1, t + (s0 - rows.begin), tstride,
                      ahead(rows, s1));
        }
        times.inner += timer.seconds();
    }

    /**
     * Phases 2 and 3 of chunk `rows` for nb questions of `acc`: row j
     * of `t` (stride tstride, exponentiated in place) holds the
     * logits of question sel[j]. When nb is fewer than acc's
     * questions, their state is gathered into `sub` (room for nb
     * questions), advanced and scattered back — exact per question,
     * since the kernels' per-(question, row) order does not depend on
     * which questions share a call.
     */
    void
    accumulate(ChunkSpan rows, float *t, size_t tstride, size_t nb,
               const uint32_t *sel, StreamPartial &acc,
               StreamPartial &sub, ScanTotals &totals) const
    {
        const size_t ed = kb.dim();
        const size_t len = rows.end - rows.begin;
        const bool compact = nb < acc.nq;
        if (compact) {
            for (size_t j = 0; j < nb; ++j) {
                const size_t q = sel[j];
                blas::copy(acc.o.data() + q * ed, sub.o.data() + j * ed,
                           ed);
                sub.expSum[j] = acc.expSum[q];
                sub.runMax[j] = acc.runMax[q];
            }
        }
        StreamPartial &st = compact ? sub : acc;
        float *o = st.o.data();
        double *sums = st.expSum.data();
        float *shift = st.runMax.data();

        // Phase 2 (partial softmax): exponential shifted by the running
        // max + running sum. When the chunk raises the running shift,
        // the accumulators are rescaled first — by an exact power of
        // two (see column_engine.hh) — so no e-value exceeds ~1.4 and
        // large logits cannot overflow.
        Timer timer;
        for (size_t j = 0; j < nb; ++j) {
            float *tj = t + j * tstride;
            const float k = std::max(
                shift[j], blas::expShiftFor(blas::maxElement(tj, len)));
            if (k > shift[j]) {
                const double rescale = pow2(shift[j] - k);
                sums[j] *= rescale;
                blas::scal(static_cast<float>(rescale), o + j * ed, ed);
                shift[j] = k;
            }
            blas::expShiftInplace(tj, len, k);
        }
        totals.times.softmax += timer.seconds();

        // Phase 3: fused weighted sum with optional zero-skipping,
        // query-blocked like phase 1 — a kept M_OUT row is loaded once
        // and accumulated into every question that keeps it. The skip
        // test stays per-(question,row): the kernel folds e into each
        // question's running sum before testing e < th * S_running, so
        // the test is conservative (see column_engine.hh) and decisions
        // are identical to the per-question sweep; skipped rows never
        // touch M_OUT or the accumulator for that question. Under
        // zero-skip most of M_OUT is never read, and which rows will
        // be is unknown until the skip test, so only a dense sweep
        // looks ahead across rows (kernels.hh, RowLookahead).
        timer.reset();
        for (size_t s0 = rows.begin; s0 < rows.end; s0 += strip) {
            const size_t s1 = std::min(s0 + strip, rows.end);
            kb.weightedSumMout(t + (s0 - rows.begin), nb, tstride, s0, s1,
                               th, sums, o, totals.kept, totals.skipped,
                               ahead(rows, s1));
        }
        totals.times.wsum += timer.seconds();

        if (compact) {
            for (size_t j = 0; j < nb; ++j) {
                const size_t q = sel[j];
                blas::copy(sub.o.data() + j * ed, acc.o.data() + q * ed,
                           ed);
                acc.expSum[q] = sub.expSum[j];
                acc.runMax[q] = sub.runMax[j];
            }
        }
    }

  private:
    /** The look-ahead of a strip of `rows` that ends at row `end`: it
     *  may run past a call into the rest of this chunk and on into the
     *  next one the pass streams. */
    blas::RowLookahead
    ahead(ChunkSpan rows, size_t end) const
    {
        return {aheadRows, rows.end - end + rows.nextLen};
    }

    const KnowledgeBase &kb;
    size_t strip;     ///< rows per kernel call
    size_t aheadRows; ///< plan look-ahead (0 without streaming)
    float th;         ///< zero-skip threshold
};

/**
 * Routing selection for the chunks of `index` (one chunk group):
 * score each chunk's bound for the nq questions of `u` and apply
 * cfg's policy, writing the nq x (chunk count) mask to `sel`. A
 * question's row of the mask does not depend on the other questions.
 * Temporaries are claimed from `scratch`.
 */
void
selectChunks(const ChunkSummaryIndex &index, const EngineConfig &cfg,
             const float *u, size_t nq, uint8_t *sel,
             runtime::ScratchArena &scratch)
{
    const size_t ed = index.dim();
    const size_t n_g = index.chunks();
    float *scores = scratch.floats(nq * n_g);

    // Coarse scoring: the fused bound kernel over the group's chunk
    // summaries, strip-swept with the "bound" plan. Strip boundaries
    // cannot change scores (per-(question, chunk) pairs are
    // independent).
    const runtime::KernelPlan plan = runtime::kernelPlan("bound", nq);
    const float *lo = index.loData();
    const float *hi = index.hiData();
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
            return;
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
}

} // namespace

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
foldStreamPartials(const PartialView *parts, size_t nParts, size_t nq,
                   size_t ed, StreamPartial &out)
{
    out.nq = nq;
    out.o.resize(nq * ed);
    out.expSum.resize(nq);
    out.runMax.resize(nq);
    for (size_t q = 0; q < nq; ++q)
        out.expSum[q] = foldPartials(parts, nParts, q, ed,
                                     out.o.data() + q * ed,
                                     &out.runMax[q]);
}

size_t
ScanRider::retainedBytes() const
{
    return partialBytes(partial) + capacityBytes(sel);
}

ScanRing::ScanRing(const KnowledgeBase &kb, const EngineConfig &cfg,
                   size_t first_chunk)
    : kb(kb), cfg(cfg), firstChunk(first_chunk)
{
    if (kb.size() == 0)
        fatal("scan ring needs a non-empty knowledge base");
    this->cfg.chunkSize = effectiveChunkSize(cfg, kb.size());
    nChunks = (kb.size() + this->cfg.chunkSize - 1) / this->cfg.chunkSize;
    if (cfg.routePolicy != RoutePolicy::None)
        index = std::make_unique<ChunkSummaryIndex>(kb, this->cfg.chunkSize);
}

void
ScanRing::attach(ScanRider &r)
{
    mnn_assert(r.nq > 0, "scan rider without questions");
    const size_t ed = kb.dim();
    if (riders.empty())
        cursor = 0; // an idle ring restarts at its first chunk
    r.joinedAt = cursor;
    r.left = nChunks;
    r.keptFloats = 0;
    r.kept.clear();

    StreamPartial &p = r.partial;
    p.nq = r.nq;
    p.o.assign(r.nq * ed, 0.f);
    p.expSum.assign(r.nq, 0.0);
    p.runMax.assign(r.nq, -std::numeric_limits<float>::infinity());
    if (index) {
        r.sel.resize(r.nq * nChunks);
        scratch.reset();
        selectChunks(*index, cfg, r.u, r.nq, r.sel.data(), scratch);
        // Room to compact any sub-batch of r's questions.
        if (sub.nq < r.nq) {
            sub.nq = r.nq;
            sub.o.resize(r.nq * ed);
            sub.expSum.resize(r.nq);
            sub.runMax.resize(r.nq);
        }
    }
    riders.push_back(&r);
}

bool
ScanRing::reachesNext(size_t c, ScanRider *const *rs, size_t n) const
{
    // Not across the wrap, and under routing not into a chunk none of
    // `rs` selected (its bytes will never be read).
    bool next = cfg.streaming && c + 1 < nChunks;
    if (next && index) {
        next = false;
        for (size_t i = 0; i < n && !next; ++i)
            for (size_t q = 0; q < rs[i]->nq && !next; ++q)
                next = rs[i]->sel[q * nChunks + c + 1] != 0;
    }
    return next;
}

size_t
ScanRing::select(const ScanRider &r, size_t c, uint32_t *q) const
{
    size_t n = 0;
    for (size_t j = 0; j < r.nq; ++j)
        if (!index || r.sel[j * nChunks + c])
            q[n++] = static_cast<uint32_t>(j);
    return n;
}

void
ScanRing::step(size_t worker, std::vector<ScanRider *> &done)
{
    mnn_assert(!riders.empty(), "step of an idle scan ring");
    const size_t ed = kb.dim();
    const size_t chunk = cfg.chunkSize;
    const size_t c = cursor;
    const ChunkSpan rows =
        chunkSpan(c, chunk, kb.size(),
                  reachesNext(c, riders.data(), riders.size()));
    const size_t len = rows.end - rows.begin;

    // The questions that stream this chunk, rider by rider, for the
    // chunk's one phase-1 call.
    size_t total = 0;
    for (const ScanRider *r : riders)
        total += r->nq;
    qsel.resize(total);
    nbOf.resize(riders.size());
    size_t nb = 0;
    for (size_t i = 0; i < riders.size(); ++i) {
        nbOf[i] = select(*riders[i], c, qsel.data() + nb);
        nb += nbOf[i];
    }
    // A lone rider that streams all of its questions is read in place;
    // otherwise the streaming questions are gathered into one tile.
    const float *u = riders[0]->u;
    if (riders.size() > 1 || nb < riders[0]->nq) {
        uTile.resize(nb * ed);
        for (size_t i = 0, j = 0; i < riders.size(); ++i)
            for (size_t k = 0; k < nbOf[i]; ++k, ++j)
                std::memcpy(uTile.data() + j * ed,
                            riders[i]->u + qsel[j] * ed,
                            ed * sizeof(float));
        u = uTile.data();
    }

    // A chunk no rider selected is bypassed: never streamed.
    const ChunkSweep sweep(kb, cfg, std::max<size_t>(nb, 1));
    ++totals.steps;
    totals.questionsStreamed += nb;
    if (nb > 0) {
        tile.resize(nb * chunk);
        sweep.logits(u, nb, rows, tile.data(), chunk, totals.times);
        if (index)
            totals.routedRows += nb * len;
    } else {
        ++totals.bypassed;
    }

    // Phases 2-3 now for riders past their wrap (or that joined at
    // chunk 0); the others keep this chunk's logits for the replay.
    size_t off = 0;
    for (size_t i = 0; i < riders.size(); ++i) {
        ScanRider &r = *riders[i];
        const size_t n = nbOf[i];
        float *t = tile.data() + off * chunk;
        if (r.joinedAt == 0 || c < r.joinedAt) {
            if (n > 0)
                sweep.accumulate(rows, t, chunk, n, qsel.data() + off,
                                 r.partial, sub, totals);
        } else {
            ScanRider::KeptTile k{nullptr, 0};
            if (n > 0) {
                k = keep(n * len);
                for (size_t j = 0; j < n; ++j)
                    std::memcpy(k.logits + j * len, t + j * chunk,
                                len * sizeof(float));
            }
            r.kept.push_back(k);
            r.keptFloats += n * len;
            totals.keptChunks += n;
        }
        off += n;
    }

    if (cfg.chunkObserver && nb > 0)
        cfg.chunkObserver(worker, firstChunk + c);
    cursor = c + 1 == nChunks ? 0 : c + 1;

    // Riders whose revolution ended here finish their kept chunks and
    // leave, the others keep their attach order.
    size_t kept = 0;
    for (ScanRider *r : riders) {
        if (--r->left > 0) {
            riders[kept++] = r;
            continue;
        }
        if (r->joinedAt > 0)
            replay(*r);
        done.push_back(r);
    }
    riders.resize(kept);
}

void
ScanRing::replay(ScanRider &r)
{
    ScanRider *const self = &r;
    const ChunkSweep sweep(kb, cfg, r.nq);
    for (size_t c = r.joinedAt; c < nChunks; ++c) {
        const ChunkSpan rows = chunkSpan(c, cfg.chunkSize, kb.size(),
                                         reachesNext(c, &self, 1));
        const size_t n = select(r, c, qsel.data());
        if (n > 0)
            sweep.accumulate(rows, r.kept[c - r.joinedAt].logits,
                             rows.end - rows.begin, n, qsel.data(),
                             r.partial, sub, totals);
    }
    // The tiles go back to their pages; a page with no live tile left
    // is free (the current one is bumped from its start again).
    for (const ScanRider::KeptTile &k : r.kept) {
        if (!k.logits)
            continue;
        KeptPage &p = pages[k.page];
        if (--p.live > 0)
            continue;
        p.used = 0;
        if (k.page != current)
            freePages.push_back(k.page);
    }
    r.kept.clear();
}

ScanRider::KeptTile
ScanRing::keep(size_t n)
{
    // Tiles start on cache lines.
    constexpr size_t kLineFloats = kCacheLineBytes / sizeof(float);
    n = (n + kLineFloats - 1) / kLineFloats * kLineFloats;
    if (pages.empty()
        || pages[current].floats.size() - pages[current].used < n) {
        // The current page is full for this tile: it stays in use
        // until its tiles are replayed, or is free if it has none.
        if (!pages.empty() && pages[current].live == 0)
            freePages.push_back(current);
        size_t best = freePages.size();
        for (size_t i = 0; i < freePages.size(); ++i) {
            const size_t cap = pages[freePages[i]].floats.size();
            if (cap >= n
                && (best == freePages.size()
                    || cap < pages[freePages[best]].floats.size()))
                best = i;
        }
        if (best < freePages.size()) {
            current = freePages[best];
            freePages[best] = freePages.back();
            freePages.pop_back();
        } else {
            constexpr size_t kPageFloats = kHugePageBytes / sizeof(float);
            current = pages.size();
            pages.emplace_back();
            pages.back().floats.allocate(
                (n + kPageFloats - 1) / kPageFloats * kPageFloats);
        }
    }
    KeptPage &p = pages[current];
    float *t = p.floats.data() + p.used;
    p.used += n;
    ++p.live;
    return {t, current};
}

ScanTotals
ScanRing::takeTotals()
{
    const ScanTotals t = totals;
    totals = {};
    return t;
}

size_t
ScanRing::scratchBytes() const
{
    return capacityBytes(uTile) + capacityBytes(tile) + capacityBytes(qsel)
           + capacityBytes(nbOf) + partialBytes(sub)
           + scratch.capacityBytes();
}

size_t
ScanRing::keptBytes() const
{
    size_t bytes = 0;
    for (const KeptPage &p : pages)
        bytes += p.floats.size() * sizeof(float);
    return bytes;
}

} // namespace mnnfast::core
