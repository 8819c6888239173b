/**
 * @file
 * Scatter/gather inference over a sharded knowledge base (paper §6),
 * in process: a ColumnEngine over the partition's parent KB whose
 * chunk groups are the shards. Its group walk is the scatter and its
 * group merge the gather, so in process the sharded answer is the
 * grouped engine's by construction, for any thread count.
 *
 * The out-of-process scatter needs an argument: one net::ShardNode
 * per shard runs a single-group ColumnEngine over its view
 * skb.shard(s), and a front end merges their partials in shard order.
 * That merge is bit-identical to this engine's answer:
 *
 *  1. ShardedKnowledgeBase uses ColumnEngine::chunkGroups' splitRange
 *     decomposition, so shard view s is chunk group s: the same rows,
 *     chunks and strips, so every kernel call sees identical operands,
 *     and zero-skip's group-local running sum starts at zero in both.
 *  2. Each shard-view engine runs with scheduleGroups = 1, so its
 *     partial is that single group's accumulator state bit-for-bit
 *     (see ColumnEngine::inferPartial).
 *  3. The front end's gather and ColumnEngine::inferBatch's group
 *     merge are the same function over partials in the same order.
 *
 * LiveServer's sharded mode rests on the same three legs: its scan
 * rings (scan_ring.hh) stream the shard views, a ring's partial is
 * the view's single-group accumulator state whatever chunk a batch
 * joined at, and the rides merge in shard order.
 *
 * Coarse routing (DESIGN.md §11) composes with this: selection is
 * per chunk group, so shard view s selects over exactly group s's
 * chunks, and leg 1 extends row-for-row to the routed sweep.
 */

#ifndef MNNFAST_CORE_SHARDED_ENGINE_HH
#define MNNFAST_CORE_SHARDED_ENGINE_HH

#include "core/column_engine.hh"
#include "core/sharded_knowledge_base.hh"

namespace mnnfast::core {

/** A ColumnEngine whose chunk groups are the shards. See header. */
class ShardedEngine : public ColumnEngine
{
  public:
    /**
     * @param skb Shard partition; its parent KB must outlive the
     *            engine. Its chunk size must be cfg.chunkSize (after
     *            clamping to the KB size), or the shards would not be
     *            chunk groups — a mismatch is fatal.
     * @param cfg Engine tunables; scheduleGroups becomes the shard
     *            count, threads sizes the group walk's pool.
     */
    ShardedEngine(const ShardedKnowledgeBase &skb,
                  const EngineConfig &cfg);

    /** Effective shard count (== skb.shardCount()). */
    size_t shardCount() const { return shards; }

  private:
    size_t shards;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_SHARDED_ENGINE_HH
