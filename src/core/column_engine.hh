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
 * All engine scratch lives in persistent runtime::ScratchArena
 * instances — one per worker slot for the chunk-local e-value tiles,
 * one for the per-group partial accumulators — so repeated
 * inferBatch calls at a steady batch size perform no heap allocation
 * (arena spans are recycled by reset(), never freed).
 *
 * Parallel execution decomposes the chunks into a fixed sequence of
 * contiguous chunk *groups* (cfg.scheduleGroups; default 4x workers).
 * Each group accumulates into its own partial slot and the slots are
 * merged in group order, so results are bit-identical whichever worker
 * ran a group and whenever it ran. Workers claim groups off a shared
 * cursor, which keeps them all busy when zero-skipping makes
 * per-chunk cost data-dependent; the claim order affects wall-clock
 * only.
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
 *                   §11). A lazily built ChunkSummaryIndex gives every
 *                   chunk a per-dimension [lo, hi] envelope; before a
 *                   chunk group streams, the fused chunkBoundBatch
 *                   kernel scores each chunk's max-inner-product upper
 *                   bound for every question, and the policy (top-k or
 *                   bound-threshold, per group — see RoutePolicy)
 *                   picks the candidate set. Chunks no question
 *                   selected are bypassed entirely (no stream, no
 *                   look-ahead, no observer); chunks a strict subset
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
#include <memory>
#include <vector>

#include "core/chunk_summary_index.hh"
#include "core/config.hh"
#include "core/engine.hh"
#include "runtime/kernel_tuner.hh"
#include "runtime/parallel_for.hh"
#include "runtime/scratch_arena.hh"
#include "runtime/thread_pool.hh"

namespace mnnfast::core {

/**
 * Read-only view of one partial's state for nq questions, before the
 * lazy-softmax division: per question a weighted-sum accumulator and
 * an exp-sum, both scaled by 2^-runMax, where runMax is the running
 * shift round(max logit * log2 e) (see the file header; -inf only for
 * a question that saw no row). Views let the one merge read
 * ColumnEngine's arena-resident group partials and StreamPartials
 * alike, without copies.
 */
struct PartialView
{
    const float *o;       ///< nq x ed weighted-sum accumulators
    const double *expSum; ///< nq exp sums
    const float *runMax;  ///< nq running shifts
};

/**
 * The merged state of one engine pass over (a shard of) the knowledge
 * base, *before* the lazy-softmax division (see PartialView).
 * Partials from disjoint sentence ranges merge with exact
 * power-of-two scales:
 *
 *   k  = max(k_a, k_b)
 *   S  = S_a * 2^(k_a - k) + S_b * 2^(k_b - k)
 *   o  = o_a * 2^(k_a - k) + o_b * 2^(k_b - k)
 *
 * Produced by ColumnEngine::inferPartial and by a ScanRing ride
 * (scan_ring.hh), merged by mergeStreamPartials in canonical shard
 * order.
 */
struct StreamPartial
{
    std::vector<float> o;       ///< nq x ed weighted-sum accumulators
    std::vector<double> expSum; ///< nq running exp sums
    std::vector<float> runMax;  ///< nq running shifts
    size_t nq = 0;              ///< questions this partial covers

    PartialView view() const
    {
        return {o.data(), expSum.data(), runMax.data()};
    }
};

/**
 * The one partial merge. Folds question q of `parts`, in the order
 * given, into the undivided accumulator `oq` (ed floats, overwritten)
 * with the algebra above, stores the merged shift in `*runMax`, and
 * returns the merged exp sum. A partial whose exp sum is 0 saw no row
 * for q and is skipped. ColumnEngine merges its chunk groups with it
 * (a ShardedEngine's groups are its shards), LiveServer's sharded scan
 * its rings' partials and net::ClusterFrontEnd its shard nodes'
 * partials, so every layer replays the same operation sequence.
 */
double foldPartials(const PartialView *parts, size_t nParts, size_t q,
                    size_t ed, float *oq, float *runMax);

/**
 * Fold every question of `parts` (foldPartials) into `o` (nq x ed)
 * and apply the single deferred lazy-softmax division. The order of
 * `parts` must be canonical (group or shard order) for bit-identity.
 */
void mergeStreamPartials(const PartialView *parts, size_t nParts,
                         size_t nq, size_t ed, float *o);

/** Writable accumulation state of nq questions (see PartialView). */
struct AccumState
{
    float *o = nullptr;       ///< nq x ed weighted-sum accumulators
    double *expSum = nullptr; ///< nq exp sums
    float *runMax = nullptr;  ///< nq running shifts
};

/** Seconds spent in each phase of the chunked pass. */
struct PhaseSeconds
{
    double inner = 0.0;   ///< phase 1: inner products
    double softmax = 0.0; ///< phase 2: shifted exp and rescale
    double wsum = 0.0;    ///< phase 3: weighted sum
};

/** One chunk's rows [begin, end) and the row count of the chunk the
 *  pass streams after it (0: none, or out of look-ahead reach). */
struct ChunkSpan
{
    size_t begin = 0;
    size_t end = 0;
    size_t nextLen = 0;
};

/**
 * One chunk of the column dataflow over a knowledge base at one
 * batch's kernel plan: phase 1, and phases 2 and 3 with the routing
 * sub-batch compaction. ColumnEngine's group walk and the serving
 * scan rings (scan_ring.hh) run every chunk through it, so the
 * running shift, the exp and the weighted sum live in one place.
 * Strips and look-ahead follow the plan; neither changes a bit.
 */
class ChunkSweep
{
  public:
    /** `nq` picks the kernel plan (single- or multi-question). */
    ChunkSweep(const KnowledgeBase &kb, const EngineConfig &cfg,
               size_t nq);

    /**
     * Phase 1: t[j * tstride + (r - rows.begin)] = u_j . M_IN[r] for
     * the nb questions of `u` (contiguous) and every row of `rows`.
     */
    void logits(const float *u, size_t nb, ChunkSpan rows, float *t,
                size_t tstride, PhaseSeconds &times) const;

    /**
     * Phases 2 and 3 of chunk `rows` for nb questions of `acc`: row j
     * of `t` (stride tstride, exponentiated in place) holds the
     * logits of question sel[j], or of question j when `sel` is null.
     * With `sel`, that state is gathered into `sub` (room for nb
     * questions), advanced and scattered back — exact per question,
     * since the kernels' per-(question, row) order does not depend on
     * which questions share a call.
     */
    void accumulate(ChunkSpan rows, float *t, size_t tstride, size_t nb,
                    const uint32_t *sel, const AccumState &acc,
                    const AccumState &sub, uint64_t &kept,
                    uint64_t &skipped, PhaseSeconds &times) const;

  private:
    /** The look-ahead of a strip of `rows` that ends at row `end`. */
    blas::RowLookahead ahead(ChunkSpan rows, size_t end) const;

    const KnowledgeBase &kb;
    size_t strip;     ///< rows per kernel call
    size_t aheadRows; ///< plan look-ahead (0 without streaming)
    float th;         ///< zero-skip threshold
};

/**
 * Routing selection for the chunks [chunks.begin, chunks.end) of
 * `index` (one chunk group): score each chunk's bound for the nq
 * questions of `u` and apply cfg's policy, writing the nq x (chunk
 * count) mask to `sel`. A question's row of the mask does not depend
 * on the other questions. Temporaries are claimed from `scratch`.
 */
void selectChunks(const ChunkSummaryIndex &index, const EngineConfig &cfg,
                  const float *u, size_t nq, runtime::Range chunks,
                  uint8_t *sel, runtime::ScratchArena &scratch);

/** Column-based (chunked, lazy-softmax) engine. See file header. */
class ColumnEngine : public InferenceEngine
{
  public:
    /**
     * @param kb  Knowledge base; must outlive the engine.
     * @param cfg Engine tunables (chunk size, streaming, skipping,
     *            threads, chunk groups, routing). The chunk size is
     *            clamped to the KB size at construction (when the KB
     *            is non-empty) and must be nonzero.
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
    /**
     * Per-group accumulation state for a span of chunks. The buffers
     * are arena spans claimed at the start of each inferBatch (valid
     * for that call only); the struct itself is reused across calls.
     */
    struct Partial
    {
        AccumState acc{};   ///< nq questions' accumulators
        PhaseSeconds times; ///< this group's phase seconds
    };

    /**
     * Stream the chunks of rows [row_begin, row_end) into `out`.
     * `sel`, when non-null, is this group's routing mask —
     * sel[q * sel_stride + ci] for group-local chunk ci — and
     * `routed_rows` / `bypassed` accumulate the (question, row) pairs
     * actually streamed and the chunks skipped outright. The caller
     * resets `scratch` before any claims tied to this group.
     */
    void processChunks(const float *u, size_t nq, size_t row_begin,
                       size_t row_end, const ChunkSweep &sweep,
                       Partial &out, size_t worker, uint64_t &kept,
                       uint64_t &skipped, runtime::ScratchArena &scratch,
                       const uint8_t *sel, size_t sel_stride,
                       uint64_t &routed_rows, uint64_t &bypassed) const;

    /** True when a coarse selection policy is configured. */
    bool routingActive() const
    {
        return cfg.routePolicy != RoutePolicy::None;
    }

    /** Group decomposition for the current KB size (cached). */
    const std::vector<runtime::Range> &chunkGroups(size_t n_chunks);

    /** Zero-skip and routing totals of one pass over the groups. */
    struct RunTotals
    {
        uint64_t kept = 0;
        uint64_t skipped = 0;
        size_t nChunks = 0;
        /** (question, row) pairs streamed in phase 1 (routing only). */
        uint64_t routedRows = 0;
        /** Chunks bypassed because no question selected them. */
        uint64_t bypassed = 0;
    };

    /**
     * The shared pass: schedule every chunk group across the pool,
     * leaving per-group accumulators in `partials` (and their views
     * in `groupViews`). inferBatch merges them with the final
     * division; inferPartial folds them into a StreamPartial.
     */
    RunTotals runGroups(const float *u, size_t nq);

    /** Phase-time/counter accounting shared by both entry points. */
    void recordRunStats(const RunTotals &totals, size_t nq,
                        double wall_seconds);

    const KnowledgeBase &kb;
    EngineConfig cfg;
    runtime::ThreadPool pool;

    // Persistent serving-loop state: sized once (or on KB growth),
    // recycled every call — see "scratch arena" in the file header.
    std::vector<runtime::ScratchArena> workerArenas; ///< chunk tiles
    runtime::ScratchArena partialArena;              ///< group partials
    std::vector<Partial> partials;
    std::vector<PartialView> groupViews; ///< partials, for the merge
    std::vector<uint64_t> keptPerWorker;
    std::vector<uint64_t> skippedPerWorker;
    std::vector<uint64_t> routedPerWorker;
    std::vector<uint64_t> bypassedPerWorker;
    std::vector<runtime::Range> groupCache;
    size_t groupCacheChunks = 0; ///< n_chunks groupCache was built for

    // Coarse routing state: the chunk-summary index, built lazily on
    // the first routed pass and rebuilt when the KB grows (the index
    // is a snapshot of routeIndexRows rows).
    std::unique_ptr<ChunkSummaryIndex> routeIndex;
    size_t routeIndexRows = 0;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_COLUMN_ENGINE_HH
