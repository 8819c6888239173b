#include "core/sharded_engine.hh"

#include "util/logging.hh"

namespace mnnfast::core {

namespace {

/** cfg with the partition's shards as its chunk groups, checked. */
EngineConfig
grouped(const ShardedKnowledgeBase &skb, EngineConfig cfg)
{
    const size_t effective = effectiveChunkSize(cfg, skb.parent().size());
    if (effective != skb.chunkSize())
        fatal("sharded engine chunk size %zu does not match the "
              "partition's %zu — shard boundaries would not be "
              "chunk-aligned",
              effective, skb.chunkSize());
    cfg.scheduleGroups = skb.shardCount();
    return cfg;
}

} // namespace

ShardedEngine::ShardedEngine(const ShardedKnowledgeBase &skb,
                             const EngineConfig &cfg)
    : ColumnEngine(skb.parent(), grouped(skb, cfg)),
      shards(skb.shardCount())
{}

} // namespace mnnfast::core
