/**
 * @file
 * Scatter/gather inference over a sharded knowledge base (paper §6):
 * one ColumnEngine per shard streams its partition and produces a
 * StreamPartial (running shift, rescaled exp-sum, rescaled weighted
 * sum); the gather side merges the partials in canonical shard order
 * with mergeStreamPartials, which applies the single deferred
 * lazy-softmax division.
 *
 * Bit-identity guarantee: a ShardedEngine over S shards produces
 * *bit-identical* outputs to a single ColumnEngine over the whole KB
 * configured with scheduleGroups = S (any thread count). The argument
 * has three legs:
 *
 *  1. ShardedKnowledgeBase uses the same splitRange decomposition as
 *     ColumnEngine::chunkGroups, so shard s covers exactly chunk
 *     group s — the same rows, swept with the same chunk size and the
 *     same plan-table strips, so every kernel call sees identical
 *     operands. Zero-skip decisions depend only on the group-local
 *     running sum, which starts at zero per group in both layouts.
 *  2. Each per-shard engine runs with scheduleGroups = 1, so its
 *     StreamPartial is that single group's accumulator state
 *     bit-for-bit (see ColumnEngine::inferPartial).
 *  3. The gather and ColumnEngine::inferBatch's group merge are the
 *     same function, mergeStreamPartials, over partials in the same
 *     order — so the merges agree by construction.
 *
 * Which worker streams which shard, and when, therefore never changes
 * the result — exactly the property that lets a serving layer scatter
 * one batch across its worker pool.
 *
 * Coarse routing (cfg.routePolicy, DESIGN.md §11) composes with this
 * guarantee because selection is *per chunk group*: shard s's engine
 * builds its ChunkSummaryIndex over exactly chunk group s's rows and
 * scores/selects over that group alone — precisely the selection the
 * single engine with scheduleGroups = S makes for group s. Leg 1
 * above then extends row-for-row to the routed sweep: both layouts
 * bypass the same chunks and compact the same question sub-batches.
 *
 * Per-shard engines keep their own counters (read through
 * shardEngine(s) for per-shard attribution, e.g. rows skipped per
 * partition); this engine drains them into its aggregate CounterGroup
 * after every batch, so counters() reports whole-KB totals exactly
 * like a single engine.
 */

#ifndef MNNFAST_CORE_SHARDED_ENGINE_HH
#define MNNFAST_CORE_SHARDED_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/column_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "runtime/thread_pool.hh"

namespace mnnfast::core {

/** Scatter/gather engine over a ShardedKnowledgeBase. See header. */
class ShardedEngine : public InferenceEngine
{
  public:
    /**
     * @param skb Shard partition; must outlive the engine (as must
     *            its parent KB). The partition's chunk size should
     *            match cfg.chunkSize for the bit-identity guarantee —
     *            mismatches are fatal.
     * @param cfg Engine tunables. cfg.threads sizes this engine's
     *            scatter pool (0 = shards run inline, sequentially);
     *            per-shard engines always run single-threaded with
     *            scheduleGroups = 1. Pool workers claim shards
     *            dynamically (wall-clock only).
     */
    ShardedEngine(const ShardedKnowledgeBase &skb,
                  const EngineConfig &cfg);

    void inferBatch(const float *u, size_t nq, float *o) override;

    const char *name() const override;

    /** Effective shard count (== skb.shardCount()). */
    size_t shardCount() const { return engines.size(); }

    /** The per-shard engine (for per-shard counter attribution). */
    const ColumnEngine &shardEngine(size_t s) const;

    /** The shard partition this engine scatters over. */
    const ShardedKnowledgeBase &sharding() const { return skb; }

  private:
    /** Merge shard partials in shard order and divide; see header. */
    void gather(size_t nq, float *o);

    const ShardedKnowledgeBase &skb;
    EngineConfig cfg;
    runtime::ThreadPool pool;
    std::vector<std::unique_ptr<ColumnEngine>> engines;
    std::vector<StreamPartial> parts; ///< slot s = shard s (reused)
    std::vector<PartialView> views;   ///< parts, for the merge
    std::string displayName;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_SHARDED_ENGINE_HH
