#include "core/sharded_engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mnnfast::core {

namespace {

/** cfg with the partition's shards as its chunk groups, checked. */
EngineConfig
grouped(const ShardedKnowledgeBase &skb, EngineConfig cfg)
{
    if (cfg.chunkSize == 0)
        fatal("sharded engine chunk size must be nonzero");
    const size_t effective =
        std::min(cfg.chunkSize, skb.parent().size());
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
