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
 * to its channel. When a ride ends, the scan's worker folds and
 * encodes the response and queues it for the connection's sender
 * thread, which sends while the handler receives (one thread may send
 * on a channel while another receives, transport.hh). The worker
 * never touches a socket, so a peer that stops reading blocks only
 * its own sender, never the ring every connection rides. Rides on the
 * ring end in attach order, so one channel's responses leave in its
 * request order; the front end matches them by requestId anyway.
 * Requests are idempotent pure compute, so a node re-executes
 * duplicates (hedges, post-failover resends) without coordination —
 * deduplication is the front end's job, keyed on requestId.
 *
 * Memory: each riding request holds a slot (its questions, its ride
 * and its partial); slots are reused, their buffers keep their
 * capacity, and there are as many as requests were ever riding at
 * once. Kept logits are not a slot's: they live in the ring's pool
 * (scan_ring.hh), sized by the live rides. A connection holds a
 * request until its response left, riding or queued for the sender;
 * its handler reads no further request while it holds
 * kMaxRidesPerConnection, so a client that pipelines without reading
 * meets the transport's backpressure (a full TCP socket) instead of
 * growing the node: a node's slots and queued responses stay within
 * that cap times its connections.
 *
 * A request whose shard index or embedding dimension does not match
 * this node closes the connection instead of answering: a miswired
 * endpoint must fail loudly, never merge the wrong partition's
 * partial. A Shutdown frame stops the whole node (serve() returns and
 * every connection closes, also with rides mid-revolution);
 * requestStop() does the same from another thread. A ride whose
 * connection closed is dropped when it ends, and so are the responses
 * still queued for its sender. A close first shuts the channel down,
 * which ends a send in progress, so a peer that neither reads nor
 * closes holds up neither the ring nor a stopping node's serve().
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

    /**
     * Rides one connection may hold on the ring at once. A front end
     * keeps at most its window (ClusterConfig::pipelineDepth; 4 in
     * servebench and the cluster benches) in flight per connection, so
     * the cap never holds one back; a deeper window still works, its
     * extra send-aheads waiting in the socket until a ride ends.
     */
    static constexpr size_t kMaxRidesPerConnection = 16;

    /** Request slots allocated so far: the most requests that were in
     *  flight at once (thread-safe). */
    size_t slotCount() const;

  private:
    struct Connection;
    class Request;

    void serveChannel(const std::shared_ptr<Connection> &conn);

    /** A free request slot (a new one when none is free). */
    Request *acquire();

    /** Encode r's response and hand it to its connection's sender
     *  (dropped if the connection closed); free r. Runs on the scan's
     *  worker and never blocks on a channel. */
    void respond(Request &r);

    /** A connection's sender: send its queued responses in order
     *  until it closes. */
    void sendResponses(Connection &conn);

    const uint32_t shard;
    const size_t dim;

    std::atomic<bool> stopFlag{false};
    std::atomic<uint64_t> served{0};

    mutable std::mutex slotMutex; ///< guards slots and freeSlots
    std::vector<std::unique_ptr<Request>> slots;
    std::vector<Request *> freeSlots;

    // Declared last: its worker settles requests into the members above.
    serve::ScanBackend scan;
};

} // namespace mnnfast::net

#endif // MNNFAST_NET_SHARD_NODE_HH
