/**
 * @file
 * Test helper: shard nodes serving on transport endpoints, one thread
 * each; stopped and joined when the set is destroyed.
 */

#ifndef MNNFAST_TESTS_NODE_SET_HH
#define MNNFAST_TESTS_NODE_SET_HH

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
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

} // namespace mnnfast

#endif // MNNFAST_TESTS_NODE_SET_HH
