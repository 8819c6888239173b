/**
 * @file
 * A chunk-aligned partition of one knowledge base into S contiguous
 * shards, the storage side of scatter/gather inference (paper §6,
 * Fig. 12): the column-based algorithm's per-chunk online-softmax
 * partials merge exactly, so the memory can be split across engines
 * (or, in the near-memory designs this models, across ranks/banks)
 * and each partition streamed by a different worker.
 *
 * Shard boundaries are always multiples of the chunk size. A
 * ColumnEngine's chunk groups are this partition of its KB, so shard s
 * is exactly chunk group s of an engine configured with
 * scheduleGroups = shardCount(), and every kernel call, every chunk
 * sweep, and the canonical merge order coincide: sharded inference is
 * *bit-identical* to a single engine (see sharded_engine.hh).
 *
 * Shards are zero-copy KnowledgeBase::view windows — the parent KB
 * must outlive the sharding and stay un-mutated while it is in use.
 */

#ifndef MNNFAST_CORE_SHARDED_KNOWLEDGE_BASE_HH
#define MNNFAST_CORE_SHARDED_KNOWLEDGE_BASE_HH

#include <vector>

#include "core/knowledge_base.hh"
#include "runtime/parallel_for.hh"

namespace mnnfast::core {

/** Chunk-aligned shard partition over one KnowledgeBase. */
class ShardedKnowledgeBase
{
  public:
    /**
     * Partition `kb` into at most `shards` contiguous shards whose
     * boundaries are multiples of `chunk_size` (clamped to the KB
     * size, exactly as ColumnEngine clamps its chunk size). Fewer
     * shards are produced when the KB has fewer chunks than requested
     * — shardCount() reports the effective number. The KB must be
     * non-empty and must outlive this object un-mutated.
     */
    ShardedKnowledgeBase(const KnowledgeBase &kb, size_t chunk_size,
                         size_t shards);

    /** Effective shard count (<= the requested count). */
    size_t shardCount() const { return views.size(); }

    /** Shard s as a zero-copy KB view (row 0 = sentence rows(s).begin). */
    const KnowledgeBase &shard(size_t s) const;

    /** Sentence range [begin, end) of shard s in the parent KB. */
    runtime::Range rows(size_t s) const;

    /** The chunk size the partition was aligned to (after clamping). */
    size_t chunkSize() const { return chunk; }

    /** The partitioned knowledge base. */
    const KnowledgeBase &parent() const { return kb; }

  private:
    const KnowledgeBase &kb;
    size_t chunk;
    std::vector<runtime::Range> rowRanges;
    std::vector<KnowledgeBase> views;
};

} // namespace mnnfast::core

#endif // MNNFAST_CORE_SHARDED_KNOWLEDGE_BASE_HH
