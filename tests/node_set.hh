/**
 * @file
 * Test helpers for the shard nodes' side of scatter/gather: shard
 * nodes serving on transport endpoints, one thread each, stopped and
 * joined when the set is destroyed; and ShardViews, what those nodes
 * compute without the transport.
 */

#ifndef MNNFAST_TESTS_NODE_SET_HH
#define MNNFAST_TESTS_NODE_SET_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_knowledge_base.hh"
#include "net/shard_node.hh"
#include "net/transport.hh"

namespace mnnfast {

/** Shard nodes serving on transport endpoints, one thread each. */
class NodeSet
{
  public:
    void
    add(const core::KnowledgeBase &shard_kb,
        const core::EngineConfig &cfg, uint32_t shard,
        net::Transport &transport, const std::string &endpoint)
    {
        auto listener = transport.listen(endpoint);
        ASSERT_TRUE(listener) << "endpoint " << endpoint;
        nodes.push_back(
            std::make_unique<net::ShardNode>(shard_kb, cfg, shard));
        net::ShardNode *node = nodes.back().get();
        threads.emplace_back(
            [node, l = std::move(listener)]() mutable {
                node->serve(*l);
            });
    }

    void
    stop()
    {
        for (auto &n : nodes)
            n->requestStop();
        for (auto &t : threads)
            t.join();
        threads.clear();
    }

    ~NodeSet() { stop(); }

    std::vector<std::unique_ptr<net::ShardNode>> nodes;
    std::vector<std::thread> threads;
};

/**
 * A lossless cluster's answer, in process: one single-group
 * ColumnEngine per shard view skb.shard(s), as net::ShardNode runs
 * it, and their partials merged in shard order with
 * core::mergeStreamPartials, as net::ClusterFrontEnd merges them.
 */
class ShardViews
{
  public:
    ShardViews(const core::ShardedKnowledgeBase &skb,
               core::EngineConfig cfg)
        : ed(skb.parent().dim())
    {
        cfg.threads = 0;
        cfg.scheduleGroups = 1;
        for (size_t s = 0; s < skb.shardCount(); ++s)
            engines.push_back(
                std::make_unique<core::ColumnEngine>(skb.shard(s), cfg));
        parts.resize(engines.size());
        views.resize(engines.size());
    }

    void
    inferBatch(const float *u, size_t nq, float *o)
    {
        for (size_t s = 0; s < engines.size(); ++s) {
            engines[s]->inferPartial(u, nq, parts[s]);
            views[s] = parts[s].view();
        }
        core::mergeStreamPartials(views.data(), views.size(), nq, ed, o);
    }

    /** Counter `name` summed over the shard engines. */
    uint64_t
    counter(const char *name) const
    {
        uint64_t sum = 0;
        for (const auto &e : engines)
            sum += e->counters().value(name);
        return sum;
    }

  private:
    size_t ed;
    std::vector<std::unique_ptr<core::ColumnEngine>> engines;
    std::vector<core::StreamPartial> parts;
    std::vector<core::PartialView> views;
};

} // namespace mnnfast

#endif // MNNFAST_TESTS_NODE_SET_HH
