/**
 * @file
 * Configuration types shared by the inference engines.
 */

#ifndef MNNFAST_CORE_CONFIG_HH
#define MNNFAST_CORE_CONFIG_HH

#include <cstddef>
#include <functional>

namespace mnnfast::core {

/** Which inference dataflow to run. */
enum class EngineKind {
    /** Layer-at-a-time with full intermediate vectors (paper Fig 5a). */
    Baseline,
    /** Column-based lazy-softmax chunking (paper Fig 5b). */
    Column,
    /** Column-based plus chunk streaming (prefetch). */
    ColumnStreaming,
    /** Column + streaming + zero-skipping: full MnnFast. */
    MnnFast,
};

/** Human-readable engine name. */
const char *engineKindName(EngineKind kind);

/**
 * Coarse-then-fine candidate selection over KB chunks (DESIGN.md §11).
 *
 * When enabled, the column engine builds a core::ChunkSummaryIndex
 * over M_IN (lazily, rebuilt when the KB changes) and scores every chunk
 * per question with the envelope's max-inner-product upper bound
 * before streaming; only selected (question, chunk) pairs run the
 * fused phase-1..3 kernels. Selection is *per chunk group* (the same
 * fixed group decomposition the scheduler uses), which is what makes
 * routing compose bit-identically with sharding: a shard node's
 * engine over ShardedKnowledgeBase::shard(s) sees exactly group s's
 * rows of a ShardedEngine and therefore makes exactly group s's
 * selection. With threads = 0 and scheduleGroups defaulted, one group
 * spans the whole KB and selection is global.
 */
enum class RoutePolicy {
    /** Stream every chunk (exact attention; the default). */
    None,
    /**
     * Per question, stream the routeTopK highest-bound chunks of each
     * chunk group (ties broken toward the lower chunk index). k >=
     * group chunk count streams everything — bit-identical to None.
     */
    TopK,
    /**
     * Per question, stream chunks whose bound is within
     * ln(routeBoundThreshold) of the group's best bound — i.e. chunks
     * that could still hold a row with softmax weight at least
     * routeBoundThreshold times the (bound-estimated) max. Threshold
     * 0 keeps every chunk — bit-identical to None.
     */
    BoundThreshold,
};

/** Human-readable routing-policy name. */
const char *routePolicyName(RoutePolicy policy);

/** Tunables of a single inference engine instance. */
struct EngineConfig
{
    /** Sentences per chunk (column-based engines). Paper: 1000. */
    size_t chunkSize = 1000;
    /**
     * Zero-skipping threshold on the normalized probability; 0
     * disables skipping. Paper: 0.1.
     */
    float skipThreshold = 0.0f;
    /**
     * The paper's data streaming: the fused kernels' row tiles
     * prefetch the rows the plan table's look-ahead distance ahead of
     * themselves (runtime::kPlanTable, blas::RowLookahead), across
     * strips and into the next chunk. M_IN is always looked ahead;
     * M_OUT row by row only when skipThreshold is 0, since under
     * zero-skip most of it is never read (a single-question int8
     * sweep looks ahead through its kept rows instead). Off, the
     * column engine prefetches nothing.
     */
    bool streaming = false;
    /**
     * Number of worker threads (0 = run inline on the caller).
     * Column engines parallelize across chunks; the baseline engine
     * parallelizes each layer step across rows, as in the paper's
     * PThread implementation.
     */
    size_t threads = 0;
    /**
     * Number of chunk groups the column engine decomposes the KB into
     * (clamped to the chunk count). 0 = auto: 4x the worker count, so
     * dynamic scheduling has slack to rebalance while per-group merge
     * state stays small. Must be equal between two runs for their
     * outputs to be bit-identical.
     */
    size_t scheduleGroups = 0;
    /**
     * Optional instrumentation hook, invoked from worker threads once
     * per processed chunk with the executing worker slot (unique among
     * concurrent workers) and the global chunk index. Used by tests to
     * observe scheduling behaviour and by callers that want progress
     * reporting; must be thread-safe. Leave empty to disable.
     */
    std::function<void(size_t worker, size_t chunk)> chunkObserver;
    /**
     * Coarse-then-fine candidate selection policy (see RoutePolicy).
     * None streams the full KB; TopK/BoundThreshold score chunks with
     * the summary-index bound and stream only candidates. Routing
     * composes with every other knob (precision, zskip, streaming,
     * threads, chunk groups, sharding).
     */
    RoutePolicy routePolicy = RoutePolicy::None;
    /**
     * Chunks streamed per question *per chunk group* under
     * RoutePolicy::TopK. 0 under TopK is a configuration error
     * (fatal at construction); values >= the group's chunk count
     * stream everything.
     */
    size_t routeTopK = 0;
    /**
     * Relative bound threshold in [0, 1] under
     * RoutePolicy::BoundThreshold: a chunk streams iff its bound
     * score >= group best bound + ln(threshold). 1 keeps only chunks
     * tied with the best bound; 0 keeps everything (ln 0 = -inf —
     * exact attention); values outside [0, 1] are fatal at
     * construction.
     */
    float routeBoundThreshold = 0.0f;
};

/**
 * The chunk size an engine over `rows` rows runs: cfg.chunkSize
 * clamped to the row count, since a chunk is never larger than the KB
 * (zero rows leave it alone). The one check of an engine config's
 * chunk and routing knobs: a zero chunk size, routeTopK 0 under TopK
 * and a routeBoundThreshold outside [0, 1] under BoundThreshold are
 * fatal. ColumnEngine and ScanRing call it at construction.
 */
size_t effectiveChunkSize(const EngineConfig &cfg, size_t rows);

/**
 * The chunk groups a ColumnEngine over `cfg` partitions its KB into
 * (a ShardedKnowledgeBase clamps the count to the chunk count):
 * cfg.scheduleGroups, or when that is 0, 4x cfg.threads with two or
 * more threads and 1 otherwise. LiveServer's replicated mode
 * partitions its scan by the same count, so its answers are the
 * engine's bits.
 */
size_t chunkGroupCount(const EngineConfig &cfg);

} // namespace mnnfast::core

#endif // MNNFAST_CORE_CONFIG_HH
