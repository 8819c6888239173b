/**
 * @file
 * One cluster node: owns a single shard's ColumnEngine and serves
 * ScatterRequest frames over a transport Listener (DESIGN.md §12).
 *
 * The node is the server half of scatter/gather inference taken
 * across a process boundary. Its engine runs with scheduleGroups = 1
 * over its shard view, so the StreamPartial it returns is chunk group
 * s of the in-process ShardedEngine bit-for-bit, and a lossless
 * ClusterFrontEnd gather reproduces that engine's answer exactly
 * (the three legs in sharded_engine.hh).
 *
 * Serving model: serve() accepts connections until stopped and hands
 * each to its own handler thread, so a front end that fails over or
 * hedges onto a fresh connection is never blocked behind a stale one.
 * Requests are idempotent pure compute, so a node re-executes
 * duplicates (hedges, post-failover resends) without coordination —
 * deduplication is the front end's job, keyed on requestId.
 *
 * A request whose shard index or embedding dimension does not match
 * this node closes the connection instead of answering: a miswired
 * endpoint must fail loudly, never merge the wrong partition's
 * partial. A Shutdown frame stops the whole node (serve() returns);
 * requestStop() does the same from another thread.
 */

#ifndef MNNFAST_NET_SHARD_NODE_HH
#define MNNFAST_NET_SHARD_NODE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/column_engine.hh"
#include "net/transport.hh"

namespace mnnfast::net {

/** Serve loop for one shard's engine. See file header. */
class ShardNode
{
  public:
    /**
     * @param kb    This node's shard of the knowledge base (e.g.
     *              ShardedKnowledgeBase::shard(s)); must outlive the
     *              node.
     * @param cfg   Engine tunables. scheduleGroups is forced to 1 for
     *              the exact-partial property; threads and the rest
     *              pass through.
     * @param shard The shard index this node owns; requests carrying
     *              any other index are refused.
     */
    ShardNode(const core::KnowledgeBase &kb,
              const core::EngineConfig &cfg, uint32_t shard);
    ~ShardNode();

    ShardNode(const ShardNode &) = delete;
    ShardNode &operator=(const ShardNode &) = delete;

    /**
     * Accept and serve connections on `listener` until a Shutdown
     * frame arrives or requestStop() is called. Blocking; joins all
     * connection handlers before returning.
     */
    void serve(Listener &listener);

    /** Ask a running serve() to return (thread-safe, idempotent). */
    void requestStop() { stopFlag.store(true); }

    /** ScatterRequests answered so far (monotone; thread-safe). */
    uint64_t requestsServed() const { return served.load(); }

  private:
    void serveChannel(std::unique_ptr<Channel> channel);

    core::ColumnEngine engine;
    const uint32_t shard;
    const size_t dim;

    std::atomic<bool> stopFlag{false};
    std::atomic<uint64_t> served{0};
    /** The engine's scratch arena has one owner; connections share. */
    std::mutex engineMutex;
};

} // namespace mnnfast::net

#endif // MNNFAST_NET_SHARD_NODE_HH
