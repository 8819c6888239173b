/**
 * @file
 * Test helpers for the shard nodes' side of scatter/gather: shard
 * nodes serving on transport endpoints, one thread each, stopped and
 * joined when the set is destroyed; ShardViews, what those nodes
 * compute without the transport; and ChunkHold, a chunk observer that
 * holds a scan mid-revolution so a test can join it at a chosen chunk.
 */

#ifndef MNNFAST_TESTS_NODE_SET_HH
#define MNNFAST_TESTS_NODE_SET_HH

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

/**
 * A chunk observer that stops the scan's worker after the k-th chunk
 * streamed since arm(k), until release().
 */
class ChunkHold
{
  public:
    void
    arm(size_t k)
    {
        std::lock_guard<std::mutex> lock(m);
        calls = 0;
        at = k;
        held = released = false;
    }

    void
    chunk()
    {
        std::unique_lock<std::mutex> lock(m);
        if (++calls != at)
            return;
        held = true;
        cv.notify_all();
        cv.wait(lock, [&] { return released; });
    }

    /** Wait until the hold caught a chunk (true) or `finished` says
     *  the ride ended without reaching the k-th chunk (false). */
    bool
    waitHeld(const std::function<bool()> &finished)
    {
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(m);
                if (cv.wait_for(lock, std::chrono::microseconds(200),
                                [&] { return held; }))
                    return true;
            }
            if (finished())
                return false;
        }
    }

    void
    release()
    {
        std::lock_guard<std::mutex> lock(m);
        released = true;
        cv.notify_all();
    }

    size_t
    count()
    {
        std::lock_guard<std::mutex> lock(m);
        return calls;
    }

  private:
    std::mutex m;
    std::condition_variable cv;
    size_t calls = 0, at = 0;
    bool held = false, released = false;
};

} // namespace mnnfast

#endif // MNNFAST_TESTS_NODE_SET_HH
