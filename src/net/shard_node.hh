/**
 * @file
 * One cluster node: rides every ScatterRequest it receives on one
 * cooperative scan over its shard view and serves the partials over a
 * transport Listener (DESIGN.md §12).
 *
 * The node is the server half of scatter/gather inference taken
 * across a process boundary. It runs a serve::ScanBackend with one
 * core::ScanRing over its shard view, stepped by one worker. Each
 * decoded request — the front end's send-aheads, a hedge, another
 * connection's requests — attaches to that ring at its next chunk, so
 * a node's in-flight requests share each chunk's one dotMin call and
 * the shard streams once per revolution however many requests ride.
 * A ride's partial is the single-group pass over the view, whatever
 * chunk it joined at (scan_ring.hh), and the node returns it folded
 * exactly as ColumnEngine(view, scheduleGroups 1)::inferPartial does;
 * so it is chunk group s of the in-process ShardedEngine bit for bit,
 * and a lossless ClusterFrontEnd gather reproduces that engine's
 * answer exactly (the three legs in sharded_engine.hh).
 *
 * Serving model: serve() accepts connections until stopped and hands
 * each to its own handler thread, so a front end that fails over or
 * hedges onto a fresh connection is never blocked behind a stale one;
 * finished handlers are joined as new connections arrive. A handler
 * only receives: it decodes each request, attaches it, and goes back
 * to its channel. The scan's worker sends each response on the
 * request's channel when its ride ends, so one thread may send on a
 * channel while another receives (transport.hh). Rides on the ring
 * end in attach order, so one channel's responses leave in its
 * request order; the front end matches them by requestId anyway.
 * Requests are idempotent pure compute, so a node re-executes
 * duplicates (hedges, post-failover resends) without coordination —
 * deduplication is the front end's job, keyed on requestId.
 *
 * Memory: each in-flight request holds a slot (its questions, its
 * ride and the ride's kept logits, at most the shard's rows x 4 B per
 * question); slots are reused, their buffers only grow, and there are
 * as many as requests were ever in flight at once.
 *
 * A request whose shard index or embedding dimension does not match
 * this node closes the connection instead of answering: a miswired
 * endpoint must fail loudly, never merge the wrong partition's
 * partial. A Shutdown frame stops the whole node (serve() returns and
 * every connection closes, also with rides mid-revolution);
 * requestStop() does the same from another thread. A ride whose
 * connection closed is dropped when it ends.
 */

#ifndef MNNFAST_NET_SHARD_NODE_HH
#define MNNFAST_NET_SHARD_NODE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hh"
#include "core/knowledge_base.hh"
#include "net/transport.hh"
#include "serve/scan_backend.hh"

namespace mnnfast::net {

/** Serve loop for one shard's scan. See file header. */
class ShardNode
{
  public:
    /**
     * @param kb    This node's shard of the knowledge base (e.g.
     *              ShardedKnowledgeBase::shard(s)); non-empty, must
     *              outlive the node un-mutated.
     * @param cfg   Engine tunables (chunk size, streaming, zero-skip,
     *              routing, chunkObserver). The node's partial is the
     *              single-group one; threads and scheduleGroups are
     *              ignored.
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
    struct Connection;
    class Request;

    void serveChannel(const std::shared_ptr<Connection> &conn);

    /** A free request slot (a new one when none is free). */
    Request *acquire();

    /** Send r's response unless its connection closed; free r. */
    void respond(Request &r);

    const uint32_t shard;
    const size_t dim;

    std::atomic<bool> stopFlag{false};
    std::atomic<uint64_t> served{0};

    std::mutex slotMutex; ///< guards slots and freeSlots
    std::vector<std::unique_ptr<Request>> slots;
    std::vector<Request *> freeSlots;

    // Declared last: its worker settles requests into the members above.
    serve::ScanBackend scan;
};

} // namespace mnnfast::net

#endif // MNNFAST_NET_SHARD_NODE_HH
