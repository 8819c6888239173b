#include "core/scan_ring.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "blas/kernels.hh"
#include "util/logging.hh"

namespace mnnfast::core {

ScanRing::ScanRing(const KnowledgeBase &kb, const EngineConfig &cfg,
                   size_t first_chunk)
    : kb(kb), cfg(cfg), firstChunk(first_chunk)
{
    if (cfg.chunkSize == 0)
        fatal("scan ring chunk size must be nonzero");
    if (kb.size() == 0)
        fatal("scan ring needs a non-empty knowledge base");
    // Clamped as ColumnEngine clamps it, so the ring's chunks are the
    // engine's.
    this->cfg.chunkSize = std::min(cfg.chunkSize, kb.size());
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
    r.keptAt.clear();
    // Only the logits actually kept are written: the buffer is left
    // uninitialised, so untouched pages cost no memory.
    if (cursor > 0)
        r.logits.reset(
            new float[r.nq * (kb.size() - cursor * cfg.chunkSize)]);

    StreamPartial &p = r.partial;
    p.nq = r.nq;
    p.o.assign(r.nq * ed, 0.f);
    p.expSum.assign(r.nq, 0.0);
    p.runMax.assign(r.nq, -std::numeric_limits<float>::infinity());
    if (index) {
        r.sel.resize(r.nq * nChunks);
        scratch.reset();
        selectChunks(*index, cfg, r.u, r.nq, {0, nChunks}, r.sel.data(),
                     scratch);
    }
    if (subSum.size() < r.nq) {
        subO.resize(r.nq * ed);
        subSum.resize(r.nq);
        subMax.resize(r.nq);
    }
    riders.push_back(&r);
}

ChunkSpan
ScanRing::span(size_t c, const std::vector<ScanRider *> &rs) const
{
    const size_t chunk = cfg.chunkSize;
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, kb.size());
    // The look-ahead reaches into the next chunk only if it is
    // streamed next: not across the wrap, and under routing not into a
    // chunk none of `rs` selected.
    bool next = cfg.streaming && c + 1 < nChunks;
    if (next && index) {
        next = false;
        for (size_t i = 0; i < rs.size() && !next; ++i)
            for (size_t q = 0; q < rs[i]->nq && !next; ++q)
                next = rs[i]->sel[q * nChunks + c + 1] != 0;
    }
    return {begin, end,
            next ? std::min(end + chunk, kb.size()) - end : 0};
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
ScanRing::accumulate(const ChunkSweep &sweep, ChunkSpan rows, float *t,
                     size_t tstride, size_t n, const uint32_t *sel,
                     ScanRider &r)
{
    StreamPartial &p = r.partial;
    const AccumState acc{p.o.data(), p.expSum.data(), p.runMax.data()};
    const AccumState sub{subO.data(), subSum.data(), subMax.data()};
    uint64_t kept = 0, skipped = 0; // not reported
    PhaseSeconds times;             // not reported
    sweep.accumulate(rows, t, tstride, n, n < r.nq ? sel : nullptr, acc,
                     sub, kept, skipped, times);
}

void
ScanRing::step(size_t worker, std::vector<ScanRider *> &done)
{
    mnn_assert(!riders.empty(), "step of an idle scan ring");
    const size_t ed = kb.dim();
    const size_t chunk = cfg.chunkSize;
    const size_t c = cursor;
    const ChunkSpan rows = span(c, riders);
    const size_t len = rows.end - rows.begin;

    // Gather the questions that stream this chunk, rider by rider, for
    // the chunk's one phase-1 call.
    size_t total = 0;
    for (const ScanRider *r : riders)
        total += r->nq;
    qsel.resize(total);
    nbOf.resize(riders.size());
    uTile.resize(total * ed);
    size_t nb = 0;
    for (size_t i = 0; i < riders.size(); ++i) {
        const ScanRider &r = *riders[i];
        nbOf[i] = select(r, c, qsel.data() + nb);
        for (size_t j = 0; j < nbOf[i]; ++j)
            std::memcpy(uTile.data() + (nb + j) * ed,
                        r.u + qsel[nb + j] * ed, ed * sizeof(float));
        nb += nbOf[i];
    }

    // A chunk no rider selected is bypassed: never streamed.
    const ChunkSweep sweep(kb, cfg, std::max<size_t>(nb, 1));
    if (nb > 0) {
        tile.resize(nb * chunk);
        PhaseSeconds times; // not reported
        sweep.logits(uTile.data(), nb, rows, tile.data(), chunk, times);
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
                accumulate(sweep, rows, t, chunk, n, qsel.data() + off, r);
        } else {
            r.keptAt.push_back(r.keptFloats);
            for (size_t j = 0; j < n; ++j)
                std::memcpy(r.logits.get() + r.keptFloats + j * len,
                            t + j * chunk, len * sizeof(float));
            r.keptFloats += n * len;
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
    const std::vector<ScanRider *> self{&r};
    const ChunkSweep sweep(kb, cfg, r.nq);
    for (size_t c = r.joinedAt; c < nChunks; ++c) {
        const ChunkSpan rows = span(c, self);
        const size_t n = select(r, c, qsel.data());
        if (n > 0)
            accumulate(sweep, rows,
                       r.logits.get() + r.keptAt[c - r.joinedAt],
                       rows.end - rows.begin, n, qsel.data(), r);
    }
    r.logits.reset();
}

} // namespace mnnfast::core
