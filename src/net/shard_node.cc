#include "net/shard_node.hh"

#include <chrono>
#include <condition_variable>
#include <deque>
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

/** One accepted connection, shared by its handler, its sender and its
 *  rides. */
struct ShardNode::Connection
{
    explicit Connection(std::unique_ptr<Channel> ch) : channel(std::move(ch))
    {}

    std::unique_ptr<Channel> channel;
    /** Orders the sender's sends with close: a send never overlaps a
     *  close. Taken before `mutex` when both are held. */
    std::mutex sendMutex;

    /** Guards the fields below; sendCv wakes the sender when a
     *  response is queued or the connection closes, rideCv the
     *  handler when a response left. */
    std::mutex mutex;
    std::condition_variable sendCv;
    std::condition_variable rideCv;
    std::deque<Frame> outbox; ///< encoded responses, in ride-end order
    /** This connection's requests not yet answered while it is open:
     *  riding the ring or queued in the outbox. */
    size_t rides = 0;
    bool closed = false; ///< responses are dropped from here on

    /** Queue an encoded response for the sender, or drop it when the
     *  connection closed. Never blocks on the channel. */
    void
    post(Frame frame)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (closed)
            return;
        outbox.push_back(std::move(frame));
        sendCv.notify_one();
    }

    /** Mark the connection closed and drop its queued responses;
     *  rides that end later drop theirs in post(). Call with `mutex`
     *  held. */
    void
    closeLocked()
    {
        closed = true;
        outbox.clear();
        sendCv.notify_one();
        rideCv.notify_one();
    }

    void
    close()
    {
        // A send blocked on a peer that neither reads nor closes would
        // hold sendMutex for good: break the channel first to end it.
        channel->shutdown();
        std::lock_guard<std::mutex> send(sendMutex);
        {
            std::lock_guard<std::mutex> lock(mutex);
            closeLocked();
        }
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
    std::thread sender([this, &conn] { sendResponses(*conn); });
    const auto slice = std::chrono::duration<double>(kPollSliceSeconds);
    Frame frame;
    while (!stopFlag.load()) {
        {
            // At the cap, read nothing until a response left (see
            // header); a closed connection's recv below reports it.
            std::unique_lock<std::mutex> lock(conn->mutex);
            if (!conn->rideCv.wait_for(lock, slice, [&] {
                    return conn->rides < kMaxRidesPerConnection
                           || conn->closed;
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
            std::lock_guard<std::mutex> lock(conn->mutex);
            ++conn->rides;
        }
        scan.submit(*r);
    }
    // Rides still on the ring find the connection closed and drop
    // their responses; so does the sender with the queued ones.
    conn->close();
    sender.join();
}

void
ShardNode::sendResponses(Connection &conn)
{
    Frame frame;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(conn.mutex);
            conn.sendCv.wait(lock, [&] {
                return conn.closed || !conn.outbox.empty();
            });
            if (conn.closed)
                return;
            frame = std::move(conn.outbox.front());
            conn.outbox.pop_front();
        }
        bool sent = false;
        {
            std::lock_guard<std::mutex> send(conn.sendMutex);
            bool open;
            {
                std::lock_guard<std::mutex> lock(conn.mutex);
                open = !conn.closed;
            }
            if (open) {
                served.fetch_add(1);
                sent = conn.channel->send(frame);
            }
        }
        std::lock_guard<std::mutex> lock(conn.mutex);
        --conn.rides;
        conn.rideCv.notify_one();
        // A failed send drops the rest and leaves the close to the
        // handler, whose recv sees the broken connection.
        if (!sent) {
            conn.closeLocked();
            return;
        }
    }
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
    Frame frame;
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
        frame = encodePartialResponse(resp);
    }
    {
        std::lock_guard<std::mutex> lock(slotMutex);
        freeSlots.push_back(&r);
    }
    // The slot is free before the handler may read again, so a
    // connection never holds more than the cap.
    if (conn)
        conn->post(std::move(frame));
}

} // namespace mnnfast::net
