/**
 * @file
 * The column-based MnnFast inference dataflow (paper Fig. 5b),
 * query-blocked across the batch.
 *
 * The knowledge base is processed in chunks of `chunkSize` sentences.
 * For each chunk the engine computes the inner products, applies the
 * exponential, and immediately accumulates the weighted sum — the
 * softmax division is deferred to a single final pass over the ed-
 * sized output ("lazy softmax"), so per-question temporaries shrink
 * from O(ns) to O(chunkSize) and every chunk's M_IN/M_OUT rows are
 * touched exactly once while hot.
 *
 * The exponential is shifted by a running maximum, so large logits
 * cannot overflow. The shift is kept on a power-of-two lattice: the
 * running shift k = round(max log2 e) and every e-value is
 * e^x * 2^-k (blas::expShiftInplace). When a chunk raises a
 * question's k, its exp-sum and accumulator are first multiplied by
 * 2^(k_old - k_new), which is exact, and e^x * 2^-k depends on k only
 * through that exact factor. So the shift never changes a result bit
 * (outside the denormal range): the output is invariant to chunk
 * size and strip split, as an unshifted sum would be. This keeps the
 * single pass; the paper's unshifted form (Fig. 5 as printed) lives
 * on in BaselineEngine and the FPGA model.
 *
 * The dataflow is *query-blocked*: each chunk is swept in small row
 * strips, and every strip is driven through the whole question batch
 * before the sweep advances — phase 1 is one KnowledgeBase::dotMin
 * sweep per strip (a packed GEMM whose register tile reuses each M_IN
 * load across queries) and phase 3 is one weightedSumMout sweep per
 * strip (a kept M_OUT row is loaded once and axpy'd into every
 * question's accumulator). A strip therefore streams from DRAM once
 * per *batch* rather than once per question, which is the serving
 * model's t(n) = base + n*per assumption made real. Streaming is the
 * kernels' row look-ahead (blas::RowLookahead): each row tile of a
 * sweep prefetches the rows a plan-table distance ahead of itself,
 * from the batch's first query tile only, so the stream's line fills
 * overlap the tile's fmas — once per row, independent of the batch
 * size — and reach across strip and chunk boundaries into the next
 * chunk the group streams.
 *
 * Skip decisions in phase 3 are per-(question, row) serial double
 * arithmetic inside the kernels. The AVX2 backend runs four questions'
 * tests side by side in vector lanes, each lane doing its question's
 * scalar steps, so the SIMD and scalar backends make identical
 * decisions and the query-blocked sweep is bit-identical to the
 * per-question path (see kernels.hh).
 *
 * Parallel execution decomposes the chunks into a fixed sequence of
 * contiguous chunk *groups* (cfg.scheduleGroups; default 4x workers):
 * a ShardedKnowledgeBase of the KB with the groups as its shards, so
 * the partition is the one sharding uses. Each group is a ScanRing
 * over its shard view (scan_ring.hh), and a pass is one ride per
 * group, each on an idle ring: it joins at the group's first chunk,
 * keeps no logits, and leaves its accumulators in the group's rider.
 * The riders' partials are merged in group order, so results are
 * bit-identical whichever worker ran a group and whenever it ran.
 * Workers claim groups off a shared cursor, which keeps them all busy
 * when zero-skipping makes per-chunk cost data-dependent; the claim
 * order affects wall-clock only. The rings and riders persist, so
 * repeated inferBatch calls at a steady batch size perform no heap
 * allocation; the partition, rings and routing summaries are rebuilt
 * when the KB changes (KnowledgeBase::generation).
 *
 * Options on top of the plain column dataflow:
 *  - streaming:     the paper's data streaming — the kernels' row
 *                   look-ahead prefetches rows a fixed distance ahead
 *                   of the compute; off, no row is prefetched.
 *  - skipThreshold: zero-skipping — drop weighted-sum rows whose
 *                   probability is provably below the threshold. The
 *                   single-pass test `e_i < th * S_running` is
 *                   conservative: S_running <= S_final, so every
 *                   skipped row satisfies p_i < th exactly; some rows
 *                   below threshold are kept (never the reverse), so
 *                   accuracy can only be better than the paper's
 *                   post-hoc skip at equal threshold.
 *  - routePolicy:   coarse-then-fine candidate selection (DESIGN.md
 *                   §11). Each group's ring builds a ChunkSummaryIndex
 *                   that gives every chunk a per-dimension [lo, hi]
 *                   envelope; before a group streams, the fused
 *                   chunkBoundBatch kernel scores each chunk's max-
 *                   inner-product upper bound for every question, and
 *                   the policy (top-k or bound-threshold, per group
 *                   — see RoutePolicy) picks the candidate set.
 *                   Chunks no question selected are bypassed entirely
 *                   (no stream, no look-ahead, no observer); chunks a
 *                   strict subset
 *                   selected run the same three phases over a
 *                   *compacted* question sub-batch (gather the
 *                   selected questions' state, run the kernels at the
 *                   sub-batch size, scatter back) — exact per
 *                   question, because the kernels fix a per-
 *                   (question, row) accumulation order that is
 *                   independent of which other questions share the
 *                   call. Selection only decides which chunks stream;
 *                   it never changes the value a streamed chunk
 *                   contributes, so a selection that keeps every
 *                   chunk (k >= group chunks, or threshold 0) is
 *                   bit-identical to RoutePolicy::None.
 */

#ifndef MNNFAST_CORE_COLUMN_ENGINE_HH
#define MNNFAST_CORE_COLUMN_ENGINE_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "core/config.hh"
#include "core/engine.hh"
#include "core/scan_ring.hh"
#include "core/sharded_knowledge_base.hh"
#include "runtime/kernel_tuner.hh"
#include "runtime/thread_pool.hh"

namespace mnnfast::core {

/** Column-based (chunked, lazy-softmax) engine. See file header. */
class ColumnEngine : public InferenceEngine
{
  public:
    /**
     * @param kb  Knowledge base; must outlive the engine.
     * @param cfg Engine tunables (chunk size, streaming, skipping,
     *            threads, chunk groups, routing), checked by
     *            effectiveChunkSize, which also clamps the chunk size
     *            to the KB size at construction.
     */
    ColumnEngine(const KnowledgeBase &kb, const EngineConfig &cfg);

    void inferBatch(const float *u, size_t nq, float *o) override;

    /**
     * Run the same chunked pass as inferBatch but stop before the
     * lazy-softmax division, leaving the merged state in `out`
     * (buffers resized as needed; reused capacity makes the steady
     * state allocation-free). This is a shard node's half of
     * cluster inference: partials from engines over disjoint shards
     * merge exactly (see StreamPartial), and the front end applies
     * the single deferred division.
     *
     * When this engine's group decomposition has exactly one group
     * (scheduleGroups = 1), `out` *is* that group's accumulator state
     * bit-for-bit — so an engine over shard view s reproduces chunk
     * group s of a ShardedEngine (see sharded_engine.hh).
     */
    void inferPartial(const float *u, size_t nq, StreamPartial &out);

    const char *name() const override;

    /** The effective chunk size after clamping to the KB size. */
    size_t chunkSize() const { return cfg.chunkSize; }

  private:
    /** True when a coarse selection policy is configured. */
    bool routingActive() const
    {
        return cfg.routePolicy != RoutePolicy::None;
    }

    /**
     * The shared pass: one ride of (u, nq) per chunk group, scheduled
     * across the pool, leaving the group partials in the riders (and
     * their views in `groupViews`); returns the rings' totals.
     * inferBatch merges the partials with the final division;
     * inferPartial folds them into a StreamPartial.
     */
    ScanTotals runGroups(const float *u, size_t nq);

    /** Phase-time/counter accounting shared by both entry points. */
    void recordRunStats(const ScanTotals &totals, size_t nq,
                        double wall_seconds);

    /** One chunk group: its ring, the pass's rider, the ring's
     *  finished-rider list. */
    struct Group
    {
        Group(const KnowledgeBase &rows, const EngineConfig &cfg,
              size_t first_chunk)
            : ring(rows, cfg, first_chunk)
        {}
        ScanRing ring;
        ScanRider rider;
        std::vector<ScanRider *> done;
    };

    const KnowledgeBase &kb;
    EngineConfig cfg;
    runtime::ThreadPool pool;

    // The chunk groups, built on the first pass over a non-empty KB and
    // rebuilt when its generation changes (the views alias its rows).
    std::optional<ShardedKnowledgeBase> partition;
    std::deque<Group> groups;
    std::vector<PartialView> groupViews; ///< riders' partials
    uint64_t builtFor = 0; ///< kb.generation() of `partition`
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_COLUMN_ENGINE_HH
