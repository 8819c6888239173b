#include "net/shard_node.hh"

#include <chrono>
#include <condition_variable>
#include <thread>
#include <utility>

#include "util/logging.hh"

namespace mnnfast::net {

namespace {

/** Accept/recv slice so stop requests are noticed promptly. */
constexpr double kPollSliceSeconds = 0.05;

/** One ring, so one worker: a ring is stepped by one thread at a time. */
constexpr size_t kScanWorkers = 1;

} // namespace

/** One accepted connection, shared by its handler and its rides. */
struct ShardNode::Connection
{
    explicit Connection(std::unique_ptr<Channel> ch) : channel(std::move(ch))
    {}

    std::unique_ptr<Channel> channel;
    /** Guards closed, and orders the worker's sends with the handler's
     *  close: a send never overlaps a close. */
    std::mutex sendMutex;
    bool closed = false;

    /** Guards rides; rideCv wakes the handler when one ends. */
    std::mutex rideMutex;
    std::condition_variable rideCv;
    size_t rides = 0; ///< this connection's requests on the ring

    void
    close()
    {
        std::lock_guard<std::mutex> lock(sendMutex);
        closed = true;
        channel->close();
    }
};

/** A request slot: one ScatterRequest's ride on the node's ring. */
class ShardNode::Request final : public serve::ScanJob
{
  public:
    explicit Request(ShardNode &node) : ScanJob(1), node(node) {}

    ScatterRequest req;
    std::shared_ptr<Connection> conn; ///< where the response goes
    PartialResponse resp;

  private:
    void settled() override { node.respond(*this); }

    ShardNode &node;
};

ShardNode::ShardNode(const core::KnowledgeBase &kb,
                     const core::EngineConfig &cfg, uint32_t shard_)
    : shard(shard_), dim(kb.dim()), scan(kb, cfg, kScanWorkers)
{
}

ShardNode::~ShardNode() = default;

void
ShardNode::serve(Listener &listener)
{
    struct Handler
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> finished;
    };
    std::vector<Handler> handlers;
    // Join the handlers whose connection ended (all of them at stop).
    const auto reap = [&](bool all) {
        size_t kept = 0;
        for (size_t i = 0; i < handlers.size(); ++i) {
            if (all || handlers[i].finished->load())
                handlers[i].thread.join();
            else if (kept++ != i)
                handlers[kept - 1] = std::move(handlers[i]);
        }
        handlers.resize(kept);
    };
    while (!stopFlag.load()) {
        std::unique_ptr<Channel> channel =
            listener.accept(deadlineIn(kPollSliceSeconds));
        reap(false);
        if (!channel)
            continue;
        auto finished = std::make_shared<std::atomic<bool>>(false);
        handlers.push_back(
            {std::thread([this, finished,
                          conn = std::make_shared<Connection>(
                              std::move(channel))] {
                 serveChannel(conn);
                 finished->store(true);
             }),
             finished});
    }
    listener.close();
    reap(true);
}

void
ShardNode::serveChannel(const std::shared_ptr<Connection> &conn)
{
    const auto slice = std::chrono::duration<double>(kPollSliceSeconds);
    Frame frame;
    while (!stopFlag.load()) {
        {
            // At the cap, read nothing until a ride ends (see header).
            std::unique_lock<std::mutex> lock(conn->rideMutex);
            if (!conn->rideCv.wait_for(lock, slice, [&] {
                    return conn->rides < kMaxRidesPerConnection;
                }))
                continue;
        }
        const RecvStatus st =
            conn->channel->recv(frame, deadlineIn(kPollSliceSeconds));
        if (st == RecvStatus::Timeout)
            continue;
        if (st != RecvStatus::Ok)
            break; // disconnected or corrupt stream: drop connection
        if (frame.type == FrameType::Shutdown) {
            stopFlag.store(true);
            break;
        }

        Request *r = acquire();
        if (decodeScatterRequest(frame, r->req) != WireStatus::Ok
            || r->req.shard != shard || r->req.ed != dim) {
            // Malformed, or a miswired endpoint: refuse the connection
            // (see header).
            respond(*r);
            break;
        }
        r->conn = conn;
        r->ride(0).u = r->req.u.data();
        r->ride(0).nq = r->req.nq;
        {
            std::lock_guard<std::mutex> lock(conn->rideMutex);
            ++conn->rides;
        }
        scan.submit(*r);
    }
    // Rides still on the ring find the connection closed and drop
    // their responses.
    conn->close();
}

ShardNode::Request *
ShardNode::acquire()
{
    std::lock_guard<std::mutex> lock(slotMutex);
    if (freeSlots.empty()) {
        slots.push_back(std::make_unique<Request>(*this));
        return slots.back().get();
    }
    Request *r = freeSlots.back();
    freeSlots.pop_back();
    return r;
}

size_t
ShardNode::slotCount() const
{
    std::lock_guard<std::mutex> lock(slotMutex);
    return slots.size();
}

void
ShardNode::respond(Request &r)
{
    const std::shared_ptr<Connection> conn = std::move(r.conn);
    if (conn) {
        const core::ScanRider &ride = r.ride(0);
        PartialResponse &resp = r.resp;
        resp.requestId = r.req.requestId;
        resp.shard = shard;
        resp.nq = r.req.nq;
        resp.ed = r.req.ed;
        // The single-group engine's partial: its one group folded on
        // its own (scale 2^0), as ColumnEngine::inferPartial does.
        const core::PartialView view = ride.partial.view();
        core::foldStreamPartials(&view, 1, ride.nq, dim, resp.partial);
        const Frame frame = encodePartialResponse(resp);
        {
            // A failed send leaves the close to the handler, whose
            // recv sees the broken connection.
            std::lock_guard<std::mutex> lock(conn->sendMutex);
            if (!conn->closed) {
                served.fetch_add(1);
                conn->closed = !conn->channel->send(frame);
            }
        }
    }
    {
        std::lock_guard<std::mutex> lock(slotMutex);
        freeSlots.push_back(&r);
    }
    // The slot is free before the handler may read again, so a
    // connection never holds more than the cap.
    if (conn) {
        {
            std::lock_guard<std::mutex> lock(conn->rideMutex);
            --conn->rides;
        }
        conn->rideCv.notify_one();
    }
}

} // namespace mnnfast::net
