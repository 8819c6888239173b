#include "core/column_engine.hh"

#include <algorithm>

#include "runtime/parallel_for.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace mnnfast::core {

ColumnEngine::ColumnEngine(const KnowledgeBase &kb, const EngineConfig &cfg)
    : kb(kb), cfg(cfg), pool(cfg.threads)
{
    // A chunk can never be larger than the KB, so clamp up front: the
    // reported chunk geometry and chunkSize() reflect what actually
    // runs. An empty KB leaves it alone so that construction stays
    // legal (inferBatch over it still panics).
    this->cfg.chunkSize = effectiveChunkSize(cfg, kb.size());
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

ScanTotals
ColumnEngine::runGroups(const float *u, size_t nq)
{
    mnn_assert(kb.size() > 0, "inference over an empty knowledge base");

    // The group partition is a pure function of the chunk count and
    // configuration, so which worker claims which group can never
    // change the merged result (see header). Built on the caller
    // thread, before workers start; a changed KB moves the rows the
    // views alias and the summaries routing scores.
    if (!partition || builtFor != kb.generation()) {
        groups.clear();
        partition.emplace(kb, cfg.chunkSize, chunkGroupCount(cfg));
        for (size_t g = 0; g < partition->shardCount(); ++g)
            groups.emplace_back(partition->shard(g), cfg,
                                partition->rows(g).begin
                                    / partition->chunkSize());
        groupViews.resize(groups.size());
        builtFor = kb.generation();
    }

    // Each group's ring is idle, so its rider joins at the group's
    // first chunk, keeps no logits, and is done when the ring is idle
    // again.
    runtime::parallelForDynamic(
        pool, groups.size(), 1, [&](size_t worker, runtime::Range r) {
            for (size_t g = r.begin; g < r.end; ++g) {
                Group &grp = groups[g];
                grp.rider.u = u;
                grp.rider.nq = nq;
                grp.ring.attach(grp.rider);
                while (!grp.ring.idle())
                    grp.ring.step(worker, grp.done);
                grp.done.clear();
            }
        });

    ScanTotals totals;
    for (size_t g = 0; g < groups.size(); ++g) {
        totals += groups[g].ring.takeTotals();
        groupViews[g] = groups[g].rider.partial.view();
    }
    return totals;
}

void
ColumnEngine::inferBatch(const float *u, size_t nq, float *o)
{
    Timer timer;
    const ScanTotals totals = runGroups(u, nq);
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
    Timer timer;
    const ScanTotals totals = runGroups(u, nq);
    // The same fold as inferBatch, minus the division.
    foldStreamPartials(groupViews.data(), groupViews.size(), nq,
                       kb.dim(), out);
    recordRunStats(totals, nq, timer.seconds());
}

void
ColumnEngine::recordRunStats(const ScanTotals &totals, size_t nq,
                             double wall_seconds)
{
    // Attribute phase times. With workers, per-group phase seconds
    // overlap in wall-clock; dividing by the worker count gives the
    // effective contribution (exact in the inline/1-thread case used
    // for the Fig. 9a breakdown).
    const double denom =
        static_cast<double>(std::max<size_t>(1, pool.threadCount()));
    const PhaseSeconds &t = totals.times;
    times.innerProduct += t.inner / denom;
    times.softmax += t.softmax / denom;
    times.weightedSum += t.wsum / denom;
    times.other += std::max(0.0, wall_seconds
                                 - (t.inner + t.softmax + t.wsum) / denom);

    // The honest scratch footprint: every ring's retained step scratch
    // and kept-logit pool plus every group's partial.
    size_t scratch_bytes = 0;
    for (const Group &g : groups)
        scratch_bytes += g.ring.scratchBytes() + g.ring.keptBytes()
                         + g.rider.retainedBytes();
    counterGroup["intermediate_bytes"].reset();
    counterGroup["intermediate_bytes"].add(scratch_bytes);

    const size_t n_chunks = (kb.size() + cfg.chunkSize - 1) / cfg.chunkSize;
    counterGroup["chunks_processed"].add(n_chunks);
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
        counterGroup["flops_route"].add(4ull * nq * n_chunks * kb.dim());
    } else {
        counterGroup["flops_inner"].add(2ull * nq * kb.size()
                                        * kb.dim());
    }
    counterGroup["flops_wsum"].add(2ull * totals.kept * kb.dim());
}

} // namespace mnnfast::core
