#include "core/sharded_knowledge_base.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mnnfast::core {

ShardedKnowledgeBase::ShardedKnowledgeBase(const KnowledgeBase &kb,
                                           size_t chunk_size,
                                           size_t shards)
    : kb(kb), chunk(chunk_size)
{
    if (chunk == 0)
        fatal("sharded knowledge base needs a nonzero chunk size");
    if (shards == 0)
        fatal("sharded knowledge base needs at least one shard");
    if (kb.size() == 0)
        fatal("cannot shard an empty knowledge base");

    const size_t ns = kb.size();
    chunk = std::min(chunk, ns);
    const size_t n_chunks = (ns + chunk - 1) / chunk;

    // Contiguous, near-equal in chunks, never empty: the chunk groups
    // of a ColumnEngine with scheduleGroups = shards, which holds this
    // partition of its KB. Scaling group boundaries by the chunk size
    // keeps every shard boundary chunk-aligned (the last shard absorbs
    // the trailing partial chunk).
    const auto groups =
        runtime::splitRange(n_chunks, std::min(shards, n_chunks));
    rowRanges.reserve(groups.size());
    views.reserve(groups.size());
    for (const runtime::Range &g : groups) {
        const runtime::Range r{g.begin * chunk,
                               std::min(ns, g.end * chunk)};
        rowRanges.push_back(r);
        views.push_back(kb.view(r.begin, r.end));
    }
}

const KnowledgeBase &
ShardedKnowledgeBase::shard(size_t s) const
{
    mnn_assert(s < views.size(), "shard index out of range");
    return views[s];
}

runtime::Range
ShardedKnowledgeBase::rows(size_t s) const
{
    mnn_assert(s < rowRanges.size(), "shard index out of range");
    return rowRanges[s];
}

} // namespace mnnfast::core
