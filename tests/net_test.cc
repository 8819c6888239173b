/**
 * @file
 * Cluster networking tests (DESIGN.md §12): wire-format bit-exact
 * round trips and defensive decoding, loopback fault injection
 * (seeded determinism, loss, reorder, disconnect, per-endpoint
 * overrides), the real TCP transport over localhost (reassembly
 * across recv timeouts, corrupt-stream handling), the ShardNode serve
 * loop, and the ClusterFrontEnd guarantees: lossless gather
 * bit-identical to ShardedEngine across shard counts x precisions,
 * replica failover, hedged requests around a straggling primary, and
 * the explicit partial-answer policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <pthread.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/column_engine.hh"
#include "core/knowledge_base.hh"
#include "core/sharded_engine.hh"
#include "core/sharded_knowledge_base.hh"
#include "net/cluster_frontend.hh"
#include "net/loopback_transport.hh"
#include "net/shard_node.hh"
#include "net/tcp_transport.hh"
#include "net/wire.hh"
#include "node_set.hh"
#include "serve/live_server.hh"
#include "util/rng.hh"

namespace mnnfast {
namespace {

using net::ClusterConfig;
using net::ClusterFrontEnd;
using net::FaultSpec;
using net::Frame;
using net::FrameType;
using net::LoopbackNetwork;
using net::LoopbackTransport;
using net::RecvStatus;
using net::ShardNode;
using net::WireStatus;

uint32_t
f32Bits(float v)
{
    uint32_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

uint64_t
f64Bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

// ---------------------------------------------------------------
// Wire format: bit-exact round trips
// ---------------------------------------------------------------

TEST(Wire, Crc32MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check vector.
    const char *s = "123456789";
    EXPECT_EQ(net::crc32(reinterpret_cast<const uint8_t *>(s), 9),
              0xCBF43926u);
    EXPECT_EQ(net::crc32(nullptr, 0), 0u);
}

TEST(Wire, ScatterRequestRoundTripIsBitExact)
{
    net::ScatterRequest req;
    req.requestId = 0x0123456789ABCDEFull;
    req.shard = 7;
    req.nq = 2;
    req.ed = 3;
    // Adversarial IEEE-754 values: the round trip must preserve the
    // exact bit patterns, not just approximate values.
    req.u = {-0.0f, std::numeric_limits<float>::quiet_NaN(),
             std::numeric_limits<float>::denorm_min(),
             -std::numeric_limits<float>::infinity(), 1.0f / 3.0f,
             std::numeric_limits<float>::max()};

    const Frame f = encodeScatterRequest(req);
    const std::vector<uint8_t> bytes = encodeFrame(f);

    Frame back;
    ASSERT_EQ(net::decodeFrame(bytes.data(), bytes.size(), back),
              WireStatus::Ok);
    net::ScatterRequest out;
    ASSERT_EQ(decodeScatterRequest(back, out), WireStatus::Ok);

    EXPECT_EQ(out.requestId, req.requestId);
    EXPECT_EQ(out.shard, req.shard);
    EXPECT_EQ(out.nq, req.nq);
    EXPECT_EQ(out.ed, req.ed);
    ASSERT_EQ(out.u.size(), req.u.size());
    for (size_t i = 0; i < req.u.size(); ++i)
        EXPECT_EQ(f32Bits(out.u[i]), f32Bits(req.u[i])) << "index " << i;
}

TEST(Wire, PartialResponseRoundTripIsBitExact)
{
    net::PartialResponse resp;
    resp.requestId = 42;
    resp.shard = 3;
    resp.nq = 2;
    resp.ed = 2;
    resp.partial.nq = 2;
    // -inf runMax is what an engine emits for a question no row
    // reached (every chunk bypassed by routing).
    resp.partial.runMax = {-std::numeric_limits<float>::infinity(),
                           -0.0f};
    resp.partial.expSum = {1e-300, 6.02214076e23};
    resp.partial.o = {-0.0f, std::numeric_limits<float>::denorm_min(),
                      -1.5f, 2.25f};

    const std::vector<uint8_t> bytes =
        encodeFrame(encodePartialResponse(resp));
    Frame back;
    ASSERT_EQ(net::decodeFrame(bytes.data(), bytes.size(), back),
              WireStatus::Ok);
    net::PartialResponse out;
    ASSERT_EQ(decodePartialResponse(back, out), WireStatus::Ok);

    EXPECT_EQ(out.requestId, resp.requestId);
    EXPECT_EQ(out.shard, resp.shard);
    ASSERT_EQ(out.partial.runMax.size(), 2u);
    ASSERT_EQ(out.partial.expSum.size(), 2u);
    ASSERT_EQ(out.partial.o.size(), 4u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(f32Bits(out.partial.runMax[i]),
                  f32Bits(resp.partial.runMax[i]));
        EXPECT_EQ(f64Bits(out.partial.expSum[i]),
                  f64Bits(resp.partial.expSum[i]));
    }
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(f32Bits(out.partial.o[i]), f32Bits(resp.partial.o[i]));
}

// ---------------------------------------------------------------
// Wire format: defensive decoding
// ---------------------------------------------------------------

std::vector<uint8_t>
sampleFrameBytes()
{
    net::ScatterRequest req;
    req.requestId = 9;
    req.shard = 1;
    req.nq = 1;
    req.ed = 4;
    req.u = {1.f, 2.f, 3.f, 4.f};
    return encodeFrame(encodeScatterRequest(req));
}

TEST(Wire, RejectsCorruptedTruncatedAndMismatchedFrames)
{
    const std::vector<uint8_t> good = sampleFrameBytes();
    Frame out;
    ASSERT_EQ(net::decodeFrame(good.data(), good.size(), out),
              WireStatus::Ok);

    {
        std::vector<uint8_t> b = good; // flipped payload byte
        b[net::kHeaderBytes] ^= 0x01;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadCrc);
    }
    {
        std::vector<uint8_t> b = good; // flipped CRC byte
        b[12] ^= 0x80;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadCrc);
    }
    {
        const std::vector<uint8_t> &b = good; // truncated payload
        EXPECT_EQ(net::decodeFrame(b.data(), b.size() - 1, out),
                  WireStatus::Truncated);
        // Truncated inside the header.
        EXPECT_EQ(net::decodeFrame(b.data(), 7, out),
                  WireStatus::Truncated);
    }
    {
        std::vector<uint8_t> b = good; // wrong magic
        b[0] ^= 0xFF;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadMagic);
    }
    {
        std::vector<uint8_t> b = good; // future version
        b[4] = 0xFE;
        b[5] = 0xCA;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadVersion);
    }
    {
        // Version 1: same layout, but its partials' runMax could be
        // -inf beside unshifted sums; merging them would be NaN.
        std::vector<uint8_t> b = good;
        b[4] = 0x01;
        b[5] = 0x00;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadVersion);
    }
    {
        std::vector<uint8_t> b = good; // unknown frame type
        b[6] = 0xEE;
        b[7] = 0xEE;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadType);
    }
    {
        std::vector<uint8_t> b = good; // absurd length field
        b[8] = b[9] = b[10] = b[11] = 0xFF;
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadLength);
    }
    {
        std::vector<uint8_t> b = good; // trailing junk after payload
        b.push_back(0x00);
        EXPECT_EQ(net::decodeFrame(b.data(), b.size(), out),
                  WireStatus::BadLength);
    }
}

TEST(Wire, RejectsInteriorInconsistencies)
{
    // Patch the payload's nq field so the interior disagrees with the
    // payload size, and re-stamp the CRC so only the message decoder
    // can catch it.
    std::vector<uint8_t> b = sampleFrameBytes();
    b[net::kHeaderBytes + 12] = 0x07; // nq: 1 -> 7
    const uint32_t crc = net::crc32(b.data() + net::kHeaderBytes,
                                    b.size() - net::kHeaderBytes);
    for (int i = 0; i < 4; ++i)
        b[12 + i] = uint8_t((crc >> (8 * i)) & 0xff);

    Frame f;
    ASSERT_EQ(net::decodeFrame(b.data(), b.size(), f), WireStatus::Ok);
    net::ScatterRequest req;
    EXPECT_EQ(decodeScatterRequest(f, req), WireStatus::Malformed);

    // A decoder fed the wrong frame type refuses outright.
    net::PartialResponse resp;
    EXPECT_EQ(decodePartialResponse(f, resp), WireStatus::BadType);
}

// ---------------------------------------------------------------
// Loopback transport: delivery, determinism, faults
// ---------------------------------------------------------------

Frame
taggedFrame(uint64_t tag)
{
    net::ScatterRequest req;
    req.requestId = tag;
    req.shard = 0;
    req.nq = 1;
    req.ed = 1;
    req.u = {1.0f};
    return encodeScatterRequest(req);
}

uint64_t
frameTag(const Frame &f)
{
    net::ScatterRequest req;
    EXPECT_EQ(decodeScatterRequest(f, req), WireStatus::Ok);
    return req.requestId;
}

TEST(LoopbackTransport, DeliversFramesBothWaysAndClosesLikeASocket)
{
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    auto listener = t.listen("node");
    ASSERT_TRUE(listener);
    auto client = t.connect("node", net::deadlineIn(1.0));
    ASSERT_TRUE(client);
    auto server = listener->accept(net::deadlineIn(1.0));
    ASSERT_TRUE(server);

    ASSERT_TRUE(client->send(taggedFrame(7)));
    Frame f;
    ASSERT_EQ(server->recv(f, net::deadlineIn(1.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 7u);
    ASSERT_TRUE(server->send(taggedFrame(8)));
    ASSERT_EQ(client->recv(f, net::deadlineIn(1.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 8u);

    // Closing one side breaks both directions.
    client->close();
    EXPECT_FALSE(server->send(taggedFrame(9)));
    EXPECT_EQ(server->recv(f, net::deadlineIn(0.05)),
              RecvStatus::Closed);

    // Unregistered endpoints are unreachable.
    EXPECT_EQ(t.connect("nowhere", net::deadlineIn(0.01)), nullptr);
}

/**
 * One thread sends n frames on `a` while another receives n frames on
 * it, which `b` sent before reading a's: the transport contract lets
 * one sender and one receiver share a channel (a ShardNode's scan
 * worker sends while the connection's handler receives).
 */
void
sendWhileReceiving(net::Channel &a, net::Channel &b)
{
    constexpr uint64_t n = 200;
    std::thread sender([&] {
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_TRUE(a.send(taggedFrame(i)));
    });
    std::thread receiver([&] {
        Frame f;
        for (uint64_t i = 0; i < n; ++i) {
            ASSERT_EQ(a.recv(f, net::deadlineIn(5.0)), RecvStatus::Ok);
            EXPECT_EQ(frameTag(f), 1000 + i);
        }
    });
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_TRUE(b.send(taggedFrame(1000 + i)));
    Frame f;
    for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(b.recv(f, net::deadlineIn(5.0)), RecvStatus::Ok);
        EXPECT_EQ(frameTag(f), i);
    }
    sender.join();
    receiver.join();
}

TEST(LoopbackTransport, OneThreadSendsWhileAnotherReceives)
{
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    auto listener = t.listen("node");
    ASSERT_TRUE(listener);
    auto client = t.connect("node", net::deadlineIn(1.0));
    ASSERT_TRUE(client);
    auto server = listener->accept(net::deadlineIn(1.0));
    ASSERT_TRUE(server);
    sendWhileReceiving(*server, *client);
}

std::vector<net::FaultEvent>
faultScheduleFor(uint64_t seed, const FaultSpec &spec, size_t sends)
{
    LoopbackNetwork netns;
    LoopbackTransport t(netns, spec, seed);
    auto listener = t.listen("n");
    auto client = t.connect("n", net::deadlineIn(1.0));
    auto server = listener->accept(net::deadlineIn(1.0));
    EXPECT_TRUE(client && server);
    auto *ch = static_cast<net::LoopbackChannel *>(client.get());
    for (size_t i = 0; i < sends; ++i)
        if (!client->send(taggedFrame(i)))
            break; // an injected disconnect ends the stream
    return ch->faultLog();
}

TEST(LoopbackTransport, SameSeedReplaysTheExactFaultSchedule)
{
    FaultSpec spec;
    spec.baseLatencySeconds = 1e-4;
    spec.jitterSeconds = 5e-4;
    spec.lossProb = 0.2;
    spec.stragglerProb = 0.1;
    spec.stragglerLatencySeconds = 2e-3;

    const auto a = faultScheduleFor(1234, spec, 64);
    const auto b = faultScheduleFor(1234, spec, 64);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), 64u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].delaySeconds, b[i].delaySeconds); // bit-equal
        EXPECT_EQ(a[i].dropped, b[i].dropped);
        EXPECT_EQ(a[i].disconnected, b[i].disconnected);
    }

    // A different seed yields a different schedule (overwhelmingly).
    const auto c = faultScheduleFor(99, spec, 64);
    bool identical = c.size() == a.size();
    for (size_t i = 0; identical && i < a.size(); ++i)
        identical = a[i].delaySeconds == c[i].delaySeconds
                    && a[i].dropped == c[i].dropped;
    EXPECT_FALSE(identical);
}

TEST(LoopbackTransport, LossAndStragglersMatchTheLoggedSchedule)
{
    // Two well-separated delay classes (0 vs 100 ms) rather than
    // uniform jitter: predicting the delivery order from the logged
    // delays is only sound when the injected delays dwarf the send
    // loop's own duration, and 100 ms stays sound even under
    // sanitizer-slowed sends where a few-ms jitter window does not.
    FaultSpec spec;
    spec.stragglerProb = 0.3;
    spec.stragglerLatencySeconds = 0.1; // forces reordering
    spec.lossProb = 0.3;

    LoopbackNetwork netns;
    LoopbackTransport t(netns, spec, 77);
    auto listener = t.listen("n");
    auto client = t.connect("n", net::deadlineIn(1.0));
    auto server = listener->accept(net::deadlineIn(1.0));
    ASSERT_TRUE(client && server);

    const size_t sends = 32;
    for (size_t i = 0; i < sends; ++i)
        ASSERT_TRUE(client->send(taggedFrame(i)));

    const auto log =
        static_cast<net::LoopbackChannel *>(client.get())->faultLog();
    ASSERT_EQ(log.size(), sends);

    // Predict the delivery order: surviving messages sorted by
    // (delay, seq) — the loopback's (deliverAt, seq) with a common
    // send instant (the whole send loop runs in a few ms, far inside
    // the 100 ms separation between the two delay classes).
    std::vector<const net::FaultEvent *> expect;
    for (const auto &ev : log)
        if (!ev.dropped)
            expect.push_back(&ev);
    std::stable_sort(expect.begin(), expect.end(),
                     [](const net::FaultEvent *a,
                        const net::FaultEvent *b) {
                         if (a->delaySeconds != b->delaySeconds)
                             return a->delaySeconds < b->delaySeconds;
                         return a->seq < b->seq;
                     });
    ASSERT_GT(expect.size(), 0u);
    ASSERT_LT(expect.size(), sends); // some were actually lost

    Frame f;
    std::vector<uint64_t> got;
    while (server->recv(f, net::deadlineIn(0.25)) == RecvStatus::Ok)
        got.push_back(frameTag(f));
    ASSERT_EQ(got.size(), expect.size()); // lost stay lost
    bool reordered = false;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expect[i]->seq) << "delivery position " << i;
        if (i > 0 && got[i] < got[i - 1])
            reordered = true;
    }
    EXPECT_TRUE(reordered); // stragglers actually shuffled the stream
}

TEST(LoopbackTransport, DisconnectBreaksBothDirectionsAndDropsInFlight)
{
    FaultSpec slow; // in-flight messages to discard
    slow.baseLatencySeconds = 0.2;

    LoopbackNetwork netns;
    LoopbackTransport t(netns, slow, 5);
    auto listener = t.listen("n");
    auto client = t.connect("n", net::deadlineIn(1.0));
    auto server = listener->accept(net::deadlineIn(1.0));
    ASSERT_TRUE(client && server);

    // Queue one slow in-flight message, then force a disconnect on
    // the next send by overriding the spec via a second connection
    // path: simplest is a spec with disconnectProb = 1 from the
    // start, so use a dedicated pair for the disconnect itself.
    ASSERT_TRUE(client->send(taggedFrame(1)));

    FaultSpec broken;
    broken.disconnectProb = 1.0;
    LoopbackTransport t2(netns, broken, 6);
    auto client2 = t2.connect("n", net::deadlineIn(1.0));
    auto server2 = listener->accept(net::deadlineIn(1.0));
    ASSERT_TRUE(client2 && server2);
    EXPECT_FALSE(client2->send(taggedFrame(2))); // injected break
    Frame f;
    EXPECT_EQ(server2->recv(f, net::deadlineIn(0.05)),
              RecvStatus::Closed);
    EXPECT_FALSE(server2->send(taggedFrame(3)));

    // The first connection is untouched and still delivers.
    EXPECT_EQ(server->recv(f, net::deadlineIn(1.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 1u);
}

TEST(LoopbackTransport, EndpointOverridesScopeFaultsToOneReplica)
{
    LoopbackNetwork netns;
    LoopbackTransport t(netns); // lossless default
    FaultSpec lossy;
    lossy.lossProb = 1.0;
    t.setEndpointFaults("bad", lossy);

    auto goodListener = t.listen("good");
    auto badListener = t.listen("bad");
    auto goodClient = t.connect("good", net::deadlineIn(1.0));
    auto badClient = t.connect("bad", net::deadlineIn(1.0));
    auto goodServer = goodListener->accept(net::deadlineIn(1.0));
    auto badServer = badListener->accept(net::deadlineIn(1.0));
    ASSERT_TRUE(goodClient && badClient && goodServer && badServer);

    Frame f;
    ASSERT_TRUE(goodClient->send(taggedFrame(1)));
    EXPECT_EQ(goodServer->recv(f, net::deadlineIn(1.0)),
              RecvStatus::Ok);
    ASSERT_TRUE(badClient->send(taggedFrame(2))); // vanishes
    EXPECT_EQ(badServer->recv(f, net::deadlineIn(0.05)),
              RecvStatus::Timeout);
}

// ---------------------------------------------------------------
// TCP transport over localhost
// ---------------------------------------------------------------

TEST(TcpTransport, RoundTripsFramesOverAnEphemeralPort)
{
    net::TcpTransport t;
    auto listener = t.listen("127.0.0.1:0");
    ASSERT_TRUE(listener);
    const uint16_t port =
        static_cast<net::TcpListener *>(listener.get())->boundPort();
    ASSERT_NE(port, 0);

    const std::string ep = "127.0.0.1:" + std::to_string(port);
    auto client = t.connect(ep, net::deadlineIn(2.0));
    ASSERT_TRUE(client);
    auto server = listener->accept(net::deadlineIn(2.0));
    ASSERT_TRUE(server);

    ASSERT_TRUE(client->send(taggedFrame(21)));
    Frame f;
    ASSERT_EQ(server->recv(f, net::deadlineIn(2.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 21u);
    ASSERT_TRUE(server->send(taggedFrame(22)));
    ASSERT_EQ(client->recv(f, net::deadlineIn(2.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 22u);

    client->close();
    EXPECT_EQ(server->recv(f, net::deadlineIn(2.0)),
              RecvStatus::Closed);
}

TEST(TcpTransport, OneThreadSendsWhileAnotherReceives)
{
    net::TcpTransport t;
    auto listener = t.listen("127.0.0.1:0");
    ASSERT_TRUE(listener);
    const uint16_t port =
        static_cast<net::TcpListener *>(listener.get())->boundPort();
    auto client =
        t.connect("127.0.0.1:" + std::to_string(port), net::deadlineIn(2.0));
    ASSERT_TRUE(client);
    auto server = listener->accept(net::deadlineIn(2.0));
    ASSERT_TRUE(server);
    sendWhileReceiving(*server, *client);
}

TEST(TcpTransport, RejectsBadEndpointsAndDeadConnects)
{
    net::TcpTransport t;
    EXPECT_EQ(t.listen("not-an-endpoint"), nullptr);
    EXPECT_EQ(t.listen("127.0.0.1"), nullptr);
    EXPECT_EQ(t.connect("127.0.0.1:notaport", net::deadlineIn(0.1)),
              nullptr);

    // A port nothing listens on refuses promptly on loopback.
    auto probe = t.listen("127.0.0.1:0");
    ASSERT_TRUE(probe);
    const uint16_t dead =
        static_cast<net::TcpListener *>(probe.get())->boundPort();
    probe->close();
    EXPECT_EQ(t.connect("127.0.0.1:" + std::to_string(dead),
                        net::deadlineIn(0.5)),
              nullptr);
}

/** Raw byte-level client for stream-splitting and garbage tests. */
int
rawConnect(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    return fd;
}

TEST(TcpTransport, RecvTimeoutMidFrameResumesWithoutDesync)
{
    net::TcpTransport t;
    auto listener = t.listen("127.0.0.1:0");
    ASSERT_TRUE(listener);
    const uint16_t port =
        static_cast<net::TcpListener *>(listener.get())->boundPort();
    const int fd = rawConnect(port);
    auto server = listener->accept(net::deadlineIn(2.0));
    ASSERT_TRUE(server);

    const std::vector<uint8_t> bytes = sampleFrameBytes();
    // First half of the frame (splitting inside the header)...
    ASSERT_EQ(::send(fd, bytes.data(), 10, 0), 10);
    Frame f;
    EXPECT_EQ(server->recv(f, net::deadlineIn(0.05)),
              RecvStatus::Timeout);
    // ...then the rest: the reassembly state must have survived.
    const size_t rest = bytes.size() - 10;
    ASSERT_EQ(::send(fd, bytes.data() + 10, rest, 0),
              static_cast<ssize_t>(rest));
    ASSERT_EQ(server->recv(f, net::deadlineIn(2.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 9u); // sampleFrameBytes tags requestId 9

    // And the stream is still in sync for a second, unsplit frame.
    const std::vector<uint8_t> again =
        encodeFrame(taggedFrame(33));
    ASSERT_EQ(::send(fd, again.data(), again.size(), 0),
              static_cast<ssize_t>(again.size()));
    ASSERT_EQ(server->recv(f, net::deadlineIn(2.0)), RecvStatus::Ok);
    EXPECT_EQ(frameTag(f), 33u);
    ::close(fd);
}

TEST(TcpTransport, GarbageBytesSurfaceAsCorrupt)
{
    net::TcpTransport t;
    auto listener = t.listen("127.0.0.1:0");
    ASSERT_TRUE(listener);
    const uint16_t port =
        static_cast<net::TcpListener *>(listener.get())->boundPort();
    const int fd = rawConnect(port);
    auto server = listener->accept(net::deadlineIn(2.0));
    ASSERT_TRUE(server);

    uint8_t junk[net::kHeaderBytes];
    std::memset(junk, 0xAB, sizeof junk);
    ASSERT_EQ(::send(fd, junk, sizeof junk, 0),
              static_cast<ssize_t>(sizeof junk));
    Frame f;
    EXPECT_EQ(server->recv(f, net::deadlineIn(2.0)),
              RecvStatus::Corrupt);
    ::close(fd);
}

// ---------------------------------------------------------------
// ShardNode + ClusterFrontEnd
// ---------------------------------------------------------------

core::KnowledgeBase
makeKb(size_t ns, size_t ed,
       core::Precision prec = core::Precision::F32, uint64_t seed = 11)
{
    core::KnowledgeBase kb(ed, prec);
    kb.reserve(ns);
    XorShiftRng rng(seed);
    std::vector<float> a(ed), b(ed);
    for (size_t i = 0; i < ns; ++i) {
        for (size_t e = 0; e < ed; ++e) {
            a[e] = rng.uniformRange(-0.5f, 0.5f);
            b[e] = rng.uniformRange(-0.5f, 0.5f);
        }
        kb.addSentence(a.data(), b.data());
    }
    return kb;
}

std::vector<float>
makeQuestions(size_t nq, size_t ed, uint64_t seed = 23)
{
    XorShiftRng rng(seed);
    std::vector<float> u(nq * ed);
    for (float &x : u)
        x = rng.uniformRange(-1.f, 1.f);
    return u;
}

TEST(ShardNode, StopsOnShutdownFrameAndRefusesMiswiredRequests)
{
    const size_t ns = 256, ed = 8, nq = 2;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = 64;

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(kb, cfg, /*shard=*/0, t, "node0");

    // A wrong shard index closes the connection, answering nothing.
    {
        auto ch = t.connect("node0", net::deadlineIn(1.0));
        ASSERT_TRUE(ch);
        net::ScatterRequest req;
        req.requestId = 1;
        req.shard = 5; // not this node
        req.nq = nq;
        req.ed = ed;
        req.u = makeQuestions(nq, ed);
        ASSERT_TRUE(ch->send(encodeScatterRequest(req)));
        Frame f;
        EXPECT_EQ(ch->recv(f, net::deadlineIn(2.0)),
                  RecvStatus::Closed);
    }

    // The right shard index answers with a matching response.
    {
        auto ch = t.connect("node0", net::deadlineIn(1.0));
        ASSERT_TRUE(ch);
        net::ScatterRequest req;
        req.requestId = 2;
        req.shard = 0;
        req.nq = nq;
        req.ed = ed;
        req.u = makeQuestions(nq, ed);
        ASSERT_TRUE(ch->send(encodeScatterRequest(req)));
        Frame f;
        ASSERT_EQ(ch->recv(f, net::deadlineIn(5.0)), RecvStatus::Ok);
        net::PartialResponse resp;
        ASSERT_EQ(decodePartialResponse(f, resp), WireStatus::Ok);
        EXPECT_EQ(resp.requestId, 2u);
        EXPECT_EQ(resp.shard, 0u);
        EXPECT_EQ(resp.nq, nq);
        EXPECT_EQ(set.nodes[0]->requestsServed(), 1u);
    }

    // A Shutdown frame stops the serve loop entirely.
    {
        auto ch = t.connect("node0", net::deadlineIn(1.0));
        ASSERT_TRUE(ch);
        ASSERT_TRUE(ch->send(Frame{FrameType::Shutdown, {}}));
    }
    set.stop(); // joins: hangs here if Shutdown did not land
}

/** A ScatterRequest frame for shard 0. */
Frame
requestFrame(uint64_t id, const std::vector<float> &u, size_t nq, size_t ed)
{
    net::ScatterRequest req;
    req.requestId = id;
    req.shard = 0;
    req.nq = static_cast<uint32_t>(nq);
    req.ed = static_cast<uint32_t>(ed);
    req.u = u;
    return encodeScatterRequest(req);
}

/** Receive the response to request `id` on `ch` and check its partial
 *  against `ref` bit for bit. */
void
expectResponse(net::Channel &ch, uint64_t id,
               const core::StreamPartial &ref)
{
    Frame f;
    ASSERT_EQ(ch.recv(f, net::deadlineIn(5.0)), RecvStatus::Ok);
    net::PartialResponse resp;
    ASSERT_EQ(decodePartialResponse(f, resp), WireStatus::Ok);
    EXPECT_EQ(resp.requestId, id);
    const core::StreamPartial &p = resp.partial;
    ASSERT_EQ(p.nq, ref.nq);
    ASSERT_EQ(p.o.size(), ref.o.size());
    for (size_t q = 0; q < ref.nq; ++q) {
        EXPECT_EQ(f64Bits(p.expSum[q]), f64Bits(ref.expSum[q])) << q;
        EXPECT_EQ(f32Bits(p.runMax[q]), f32Bits(ref.runMax[q])) << q;
    }
    for (size_t i = 0; i < ref.o.size(); ++i)
        ASSERT_EQ(f32Bits(p.o[i]), f32Bits(ref.o[i])) << "elem " << i;
}

/**
 * A node rides every request on one scan, so a request joins at
 * whatever chunk the ring is on. A chunk observer holds the node's
 * ring after the k-th chunk of a first request's ride, for every k,
 * while a second request arrives — on the same channel and on a second
 * one. Each response's partial must equal the single-group engine's
 * inferPartial over the node's KB bit for bit, across precision x
 * zero-skip x routing.
 */
TEST(ShardNode, ScanJoinsAtEveryChunkBitIdentical)
{
    const size_t ns = 200, ed = 16, chunk = 32, nq = 2; // 7 chunks
    const std::vector<float> ua = makeQuestions(nq, ed, 61);
    const std::vector<float> ub = makeQuestions(nq, ed, 62);
    size_t mid_ring_rounds = 0;

    for (core::Precision prec :
         {core::Precision::F32, core::Precision::BF16,
          core::Precision::I8}) {
        const core::KnowledgeBase kb = makeKb(ns, ed, prec);
        for (float zskip : {0.0f, 0.05f})
        for (bool routed : {false, true})
        for (bool second_channel : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << core::precisionName(prec) << " zskip="
                         << zskip << " routed=" << routed
                         << " second_channel=" << second_channel);
            core::EngineConfig cfg;
            cfg.chunkSize = chunk;
            cfg.skipThreshold = zskip;
            cfg.streaming = true;
            if (routed) {
                cfg.routePolicy = core::RoutePolicy::TopK;
                cfg.routeTopK = 2;
            }
            core::EngineConfig single = cfg;
            single.threads = 0;
            single.scheduleGroups = 1;
            core::ColumnEngine engine(kb, single);
            core::StreamPartial ref_a, ref_b;
            engine.inferPartial(ua.data(), nq, ref_a);
            engine.inferPartial(ub.data(), nq, ref_b);

            ChunkHold hold;
            core::EngineConfig ncfg = cfg;
            ncfg.chunkObserver = [&](size_t, size_t) { hold.chunk(); };
            LoopbackNetwork netns;
            LoopbackTransport t(netns);
            NodeSet set;
            set.add(kb, ncfg, /*shard=*/0, t, "node0");
            const ShardNode &node = *set.nodes[0];
            auto ch_a = t.connect("node0", net::deadlineIn(1.0));
            ASSERT_TRUE(ch_a);
            auto ch_b = second_channel
                            ? t.connect("node0", net::deadlineIn(1.0))
                            : nullptr;
            net::Channel &cb = second_channel ? *ch_b : *ch_a;

            // The first request alone streams 7 chunks unrouted, so
            // k = 8 lets the second find the ring idle.
            for (size_t k = 1; k <= 8; ++k) {
                hold.arm(k);
                const uint64_t before = node.requestsServed();
                ASSERT_TRUE(ch_a->send(requestFrame(2 * k, ua, nq, ed)));
                if (hold.waitHeld(
                        [&] { return node.requestsServed() > before; }))
                    // Let the handler attach the second request before
                    // the ring moves on.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                ASSERT_TRUE(cb.send(requestFrame(2 * k + 1, ub, nq, ed)));
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                hold.release();
                expectResponse(*ch_a, 2 * k, ref_a);
                expectResponse(cb, 2 * k + 1, ref_b);
                // Rides that shared chunks stream fewer than the 2 x 7
                // of two separate revolutions.
                if (!routed && hold.count() < 14)
                    ++mid_ring_rounds;
            }
        }
    }
    EXPECT_GT(mid_ring_rounds, 0u);
}

/**
 * A client that pipelines without reading cannot grow a node: the
 * handler stops reading its channel at kMaxRidesPerConnection rides.
 * With the ring held, four times the cap in requests go out at once;
 * the node takes exactly the cap, leaves the rest in the channel, and
 * once the ring moves on answers every one, in order, with the bits of
 * the single-group engine.
 */
TEST(ShardNode, PipeliningWithoutReadingHoldsAtTheRideCap)
{
    const size_t ns = 128, ed = 8, nq = 1; // 4 chunks
    const size_t cap = ShardNode::kMaxRidesPerConnection, n = 4 * cap;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = 32;
    std::vector<std::vector<float>> u;
    std::vector<core::StreamPartial> ref(n);
    {
        core::EngineConfig single = cfg;
        single.scheduleGroups = 1;
        core::ColumnEngine engine(kb, single);
        for (size_t i = 0; i < n; ++i) {
            u.push_back(makeQuestions(nq, ed, 900 + i));
            engine.inferPartial(u[i].data(), nq, ref[i]);
        }
    }

    ChunkHold hold;
    hold.arm(1);
    core::EngineConfig ncfg = cfg;
    ncfg.chunkObserver = [&](size_t, size_t) { hold.chunk(); };
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(kb, ncfg, /*shard=*/0, t, "node0");
    const ShardNode &node = *set.nodes[0];
    auto ch = t.connect("node0", net::deadlineIn(1.0));
    ASSERT_TRUE(ch);
    for (size_t i = 0; i < n; ++i)
        ASSERT_TRUE(ch->send(requestFrame(i, u[i], nq, ed)));
    ASSERT_TRUE(hold.waitHeld([] { return false; }));

    const auto until = std::chrono::steady_clock::now()
                     + std::chrono::seconds(5);
    while (node.slotCount() < cap
           && std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(node.slotCount(), cap);
    // Given time, the handler still reads no further.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(node.slotCount(), cap);
    EXPECT_EQ(node.requestsServed(), 0u);

    hold.release();
    for (size_t i = 0; i < n; ++i)
        expectResponse(*ch, i, ref[i]);
    EXPECT_EQ(node.requestsServed(), n);
    EXPECT_LE(node.slotCount(), cap); // slots only grow: never above
}

/**
 * A TCP client that pipelines one request frame from its own thread
 * and never reads, until a send fails or stop is set.
 */
class Flood
{
  public:
    Flood(net::Channel &ch, const Frame &f)
        : sender([this, &ch, f] {
              while (!stop.load() && ch.send(f))
                  sent.fetch_add(1);
              running.store(false);
          })
    {}

    ~Flood()
    {
        stop.store(true);
        sender.join();
    }

    Flood(const Flood &) = delete;
    Flood &operator=(const Flood &) = delete;

    /** Wait until the node stops reading: sends stall above the ride
     *  cap for half a second (false after a minute without). */
    bool
    stalled()
    {
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        for (size_t last = 0; std::chrono::steady_clock::now() < until;) {
            std::this_thread::sleep_for(std::chrono::milliseconds(500));
            const size_t now = sent.load();
            if (now > ShardNode::kMaxRidesPerConnection && now == last)
                return true;
            last = now;
        }
        return false;
    }

    /** Read `ch`'s responses until the sending thread ended: the
     *  node's answers unblock it, or the node closes. */
    void
    drain(net::Channel &ch)
    {
        stop.store(true);
        Frame f;
        while (running.load())
            ch.recv(f, net::deadlineIn(0.05));
    }

    std::atomic<size_t> sent{0};
    std::atomic<bool> stop{false}, running{true};

  private:
    std::thread sender; ///< last: starts after the members above
};

/** A node over TCP on a free port, served from its own thread; the
 *  single-group partial of `u` as the reference. */
struct TcpShardNode
{
    static constexpr size_t ns = 64, ed = 512, nq = 32; // 64 KiB frames

    TcpShardNode()
        : kb(makeKb(ns, ed)), u(makeQuestions(nq, ed)),
          listener(t.listen("127.0.0.1:0")), node(kb, config(), 0)
    {
        core::EngineConfig single = config();
        single.scheduleGroups = 1;
        core::ColumnEngine(kb, single).inferPartial(u.data(), nq, ref);
        if (!listener)
            return;
        ep = "127.0.0.1:"
           + std::to_string(static_cast<net::TcpListener *>(listener.get())
                                ->boundPort());
        serving = std::thread([this] {
            node.serve(*listener);
            returned.set_value();
        });
    }

    ~TcpShardNode()
    {
        node.requestStop();
        if (serving.joinable())
            serving.join();
    }

    TcpShardNode(const TcpShardNode &) = delete;
    TcpShardNode &operator=(const TcpShardNode &) = delete;

    static core::EngineConfig
    config()
    {
        core::EngineConfig cfg;
        cfg.chunkSize = 32; // 2 chunks
        return cfg;
    }

    const core::KnowledgeBase kb;
    const std::vector<float> u;
    core::StreamPartial ref;
    net::TcpTransport t;
    std::unique_ptr<net::Listener> listener;
    std::string ep;
    ShardNode node;
    std::promise<void> returned; ///< set when serve() returned
    std::thread serving;
};

/**
 * A client that keeps sending and never reads stalls only its own
 * connection. Over TCP its responses fill the socket buffers until the
 * connection's sender blocks, the connection holds the ride cap and
 * the node stops reading it, so the flood's sends stall too; the
 * node's ring keeps stepping, so a second connection's requests still
 * complete within the deadline, with the single-group engine's bits.
 */
TEST(ShardNode, AReaderThatStopsStallsOnlyItsOwnConnection)
{
    TcpShardNode n;
    ASSERT_TRUE(n.listener);
    auto flood = n.t.connect(n.ep, net::deadlineIn(2.0));
    auto other = n.t.connect(n.ep, net::deadlineIn(2.0));
    ASSERT_TRUE(flood && other) << "connect to " << n.ep;
    Flood flooder(*flood, requestFrame(0, n.u, n.nq, n.ed));
    const bool stalled = flooder.stalled();
    EXPECT_TRUE(stalled) << flooder.sent.load() << " requests sent";
    for (uint64_t id = 1; stalled && id <= 3; ++id) {
        EXPECT_TRUE(other->send(requestFrame(id, n.u, n.nq, n.ed)));
        expectResponse(*other, id, n.ref);
    }
    // Reading the flood's responses lets its last send finish.
    flooder.drain(*flood);
}

/**
 * A client that pipelines past the ride cap and then neither reads nor
 * closes leaves its connection's sender blocked in a send. A stopping
 * node shuts that channel down before its close waits for the send, so
 * serve() returns within 2 s; a second connection's answers kept their
 * bits until then.
 */
TEST(ShardNode, StopDoesNotWaitOnAPeerThatNeverReads)
{
    TcpShardNode n;
    ASSERT_TRUE(n.listener);
    auto flood = n.t.connect(n.ep, net::deadlineIn(2.0));
    auto other = n.t.connect(n.ep, net::deadlineIn(2.0));
    ASSERT_TRUE(flood && other) << "connect to " << n.ep;
    Flood flooder(*flood, requestFrame(0, n.u, n.nq, n.ed));
    EXPECT_TRUE(flooder.stalled()) << flooder.sent.load() << " sent";
    for (uint64_t id = 1; id <= 3; ++id) {
        EXPECT_TRUE(other->send(requestFrame(id, n.u, n.nq, n.ed)));
        expectResponse(*other, id, n.ref);
    }

    n.node.requestStop();
    EXPECT_EQ(n.returned.get_future().wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    // The node closed the flood's connection; had it not returned,
    // reading the flood would let it.
    flooder.drain(*flood);
}

/**
 * A Shutdown frame that arrives while the node's ring holds rides of
 * two connections mid-revolution closes every connection at once and
 * stops the node, without waiting for the rides.
 */
TEST(ShardNode, ShutdownMidRevolutionClosesEveryConnection)
{
    const size_t ns = 256, ed = 8, nq = 2; // 8 chunks
    const core::KnowledgeBase kb = makeKb(ns, ed);
    ChunkHold hold;
    hold.arm(3);
    core::EngineConfig cfg;
    cfg.chunkSize = 32;
    cfg.chunkObserver = [&](size_t, size_t) { hold.chunk(); };

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(kb, cfg, /*shard=*/0, t, "node0");
    auto ch1 = t.connect("node0", net::deadlineIn(1.0));
    auto ch2 = t.connect("node0", net::deadlineIn(1.0));
    ASSERT_TRUE(ch1 && ch2);
    const std::vector<float> u = makeQuestions(nq, ed);
    ASSERT_TRUE(ch1->send(requestFrame(1, u, nq, ed)));
    ASSERT_TRUE(ch2->send(requestFrame(2, u, nq, ed)));
    ASSERT_TRUE(hold.waitHeld([] { return false; }));

    auto ch3 = t.connect("node0", net::deadlineIn(1.0));
    ASSERT_TRUE(ch3);
    ASSERT_TRUE(ch3->send(Frame{FrameType::Shutdown, {}}));
    // The ring is still held: no ride ended, yet both close.
    Frame f;
    EXPECT_EQ(ch1->recv(f, net::deadlineIn(5.0)), RecvStatus::Closed);
    EXPECT_EQ(ch2->recv(f, net::deadlineIn(5.0)), RecvStatus::Closed);
    EXPECT_EQ(set.nodes[0]->requestsServed(), 0u);
    hold.release();
    set.stop(); // joins serve(): hangs here if a handler did not return
    EXPECT_EQ(set.nodes[0]->requestsServed(), 0u);
}

/** Threads of this process. */
size_t
taskCount()
{
    size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)e;
        ++n;
    }
    return n;
}

/** Writable mappings the size of a default thread stack (its guard
 *  page aside): what an exited thread leaves until it is joined. */
size_t
stackMappings()
{
    pthread_attr_t attr;
    size_t stack = 0;
    EXPECT_EQ(pthread_attr_init(&attr), 0);
    EXPECT_EQ(pthread_attr_getstacksize(&attr, &stack), 0);
    pthread_attr_destroy(&attr);
    std::ifstream in("/proc/self/maps");
    std::string line;
    size_t n = 0;
    while (std::getline(in, line)) {
        char *end = nullptr;
        const uint64_t lo = std::strtoull(line.c_str(), &end, 16);
        const uint64_t hi = std::strtoull(end + 1, &end, 16);
        const size_t size = static_cast<size_t>(hi - lo);
        if (end[1] == 'r' && end[2] == 'w' && size <= stack
            && size + 65536 >= stack)
            ++n;
    }
    return n;
}

/**
 * Every failover or hedge reconnect hands a node a new connection and
 * a new handler thread. The node joins handlers whose connection
 * ended, so 50 reconnects leave neither threads nor their stacks
 * behind: an exited thread's stack stays mapped until it is joined.
 */
TEST(ShardNode, ReconnectsDoNotAccumulateHandlerThreads)
{
    const size_t ns = 128, ed = 8, nq = 1;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = 32;
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(kb, cfg, /*shard=*/0, t, "node0");
    const std::vector<float> u = makeQuestions(nq, ed);
    const auto roundTrip = [&](uint64_t id) {
        auto ch = t.connect("node0", net::deadlineIn(1.0));
        ASSERT_TRUE(ch);
        ASSERT_TRUE(ch->send(requestFrame(id, u, nq, ed)));
        Frame f;
        ASSERT_EQ(ch->recv(f, net::deadlineIn(5.0)), RecvStatus::Ok);
        ch->close();
    };
    roundTrip(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const size_t tasks0 = taskCount();
    const size_t stacks0 = stackMappings();

    constexpr size_t kReconnects = 50;
    for (size_t i = 1; i <= kReconnects; ++i)
        roundTrip(i);
    // The handlers see their closes, and the accept loop's next slice
    // joins them.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    EXPECT_LE(taskCount(), tasks0 + 2);
    const size_t stacks1 = stackMappings();
    EXPECT_LT(stacks1, stacks0 + kReconnects / 5)
        << "stack-sized mappings " << stacks0 << " -> " << stacks1;
    EXPECT_EQ(set.nodes[0]->requestsServed(), kReconnects + 1);
}

/**
 * The cluster acceptance guarantee: over a lossless loopback with
 * every node answering, ClusterFrontEnd output is bit-identical to
 * the in-process ShardedEngine across shard counts x precisions.
 */
TEST(ClusterFrontEnd, LosslessGatherBitIdenticalToShardedEngine)
{
    const size_t ns = 700, ed = 16, nq = 5, chunk = 64;
    const std::vector<float> u = makeQuestions(nq, ed);

    for (core::Precision prec :
         {core::Precision::F32, core::Precision::BF16,
          core::Precision::I8}) {
        const core::KnowledgeBase kb = makeKb(ns, ed, prec);
        for (size_t shards : {size_t(2), size_t(4)}) {
            core::EngineConfig cfg;
            cfg.chunkSize = chunk;

            const core::ShardedKnowledgeBase skb(kb, chunk,
                                                 shards);
            core::ShardedEngine reference(skb, cfg);
            std::vector<float> expect(nq * ed);
            reference.inferBatch(u.data(), nq, expect.data());

            LoopbackNetwork netns;
            LoopbackTransport t(netns);
            NodeSet set;
            ClusterConfig ccfg;
            ccfg.requestTimeoutSeconds = 30.0; // sanitizer slack
            for (size_t s = 0; s < skb.shardCount(); ++s) {
                const std::string ep =
                    "shard" + std::to_string(s);
                set.add(skb.shard(s), cfg,
                        static_cast<uint32_t>(s), t, ep);
                ccfg.replicas.push_back({ep});
            }

            ClusterFrontEnd fe(t, ccfg);
            std::vector<float> got(nq * ed, -1.f);
            const net::BatchResult r =
                fe.inferBatch(u.data(), nq, ed, got.data());
            EXPECT_TRUE(r.complete);
            EXPECT_EQ(r.shardsAnswered, skb.shardCount());
            for (size_t i = 0; i < got.size(); ++i)
                ASSERT_EQ(f32Bits(got[i]), f32Bits(expect[i]))
                    << "prec=" << int(prec)
                    << " shards=" << shards << " i=" << i;
        }
    }
}

TEST(ClusterFrontEnd, FailsOverToTheReplicaOnDisconnects)
{
    const size_t ns = 512, ed = 8, nq = 3, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    ASSERT_EQ(skb.shardCount(), 2u);
    core::ShardedEngine reference(skb, cfg);
    std::vector<float> expect(nq * ed);
    reference.inferBatch(u.data(), nq, expect.data());

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    // Shard 0's primary replica breaks every connection on first use;
    // the backup replica is clean.
    FaultSpec broken;
    broken.disconnectProb = 1.0;
    t.setEndpointFaults("s0-primary", broken);

    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0-primary");
    set.add(skb.shard(0), cfg, 0, t, "s0-backup");
    set.add(skb.shard(1), cfg, 1, t, "s1");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0-primary", "s0-backup"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 30.0;
    ClusterFrontEnd fe(t, ccfg);

    std::vector<float> got(nq * ed);
    const net::BatchResult r =
        fe.inferBatch(u.data(), nq, ed, got.data());
    ASSERT_TRUE(r.complete);
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(f32Bits(got[i]), f32Bits(expect[i])) << "i=" << i;

    const serve::LatencySnapshot snap = fe.snapshot();
    ASSERT_EQ(snap.rpcShards.size(), 2u);
    EXPECT_GE(snap.rpcShards[0].failovers, 1u);
    EXPECT_EQ(snap.partialAnswers, 0u);
}

TEST(ClusterFrontEnd, HedgesAroundAStragglingPrimary)
{
    const size_t ns = 512, ed = 8, nq = 3, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    core::ShardedEngine reference(skb, cfg);
    std::vector<float> expect(nq * ed);
    reference.inferBatch(u.data(), nq, expect.data());

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    // Every message to/from shard 0's primary straggles hard; the
    // hedge replica answers instantly.
    FaultSpec straggling;
    straggling.stragglerProb = 1.0;
    straggling.stragglerLatencySeconds = 0.5;
    t.setEndpointFaults("s0-slow", straggling);

    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0-slow");
    set.add(skb.shard(0), cfg, 0, t, "s0-fast");
    set.add(skb.shard(1), cfg, 1, t, "s1");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0-slow", "s0-fast"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 30.0;
    ccfg.hedging = true;
    ccfg.hedgeMinSeconds = 0.005;
    ClusterFrontEnd fe(t, ccfg);

    std::vector<float> got(nq * ed);
    const net::BatchResult r =
        fe.inferBatch(u.data(), nq, ed, got.data());
    ASSERT_TRUE(r.complete);
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(f32Bits(got[i]), f32Bits(expect[i])) << "i=" << i;

    const serve::LatencySnapshot snap = fe.snapshot();
    EXPECT_GE(snap.rpcShards[0].hedgesFired, 1u);
    EXPECT_GE(snap.rpcShards[0].hedgeWins, 1u);
    EXPECT_EQ(snap.rpcShards[1].hedgesFired, 0u);
}

TEST(ClusterFrontEnd, PartialAnswerPolicyIsExplicit)
{
    const size_t ns = 512, ed = 8, nq = 3, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    const std::vector<float> u = makeQuestions(nq, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    // Shard 1 has no living replica: "s1" is never registered.

    ClusterConfig base;
    base.replicas = {{"s0"}, {"s1"}};
    base.requestTimeoutSeconds = 0.3;

    {
        // Fail-closed (default): no merge, output untouched.
        ClusterConfig ccfg = base;
        ClusterFrontEnd fe(t, ccfg);
        std::vector<float> got(nq * ed, -7.5f);
        const net::BatchResult r =
            fe.inferBatch(u.data(), nq, ed, got.data());
        EXPECT_FALSE(r.complete);
        EXPECT_EQ(r.shardsAnswered, 0u);
        for (float x : got)
            EXPECT_EQ(x, -7.5f);
        const serve::LatencySnapshot snap = fe.snapshot();
        EXPECT_GE(snap.rpcShards[1].deadlineMisses, 1u);
        EXPECT_EQ(snap.partialAnswers, 0u);
    }
    {
        // allowPartial: merge what answered, flag it, count it.
        ClusterConfig ccfg = base;
        ccfg.allowPartial = true;
        ClusterFrontEnd fe(t, ccfg);
        std::vector<float> got(nq * ed, 0.f);
        const net::BatchResult r =
            fe.inferBatch(u.data(), nq, ed, got.data());
        EXPECT_FALSE(r.complete);
        EXPECT_EQ(r.shardsAnswered, 1u);
        EXPECT_EQ(r.shardMask, 0b01u);

        // The partial answer is exactly shard 0's normalized partial
        // — i.e. a single-shard gather.
        const core::ShardedKnowledgeBase solo(kb, chunk, 2);
        core::ColumnEngine engine0(solo.shard(0), [&] {
            core::EngineConfig c = cfg;
            c.scheduleGroups = 1;
            return c;
        }());
        core::StreamPartial part;
        engine0.inferPartial(u.data(), nq, part);
        const core::PartialView pv = part.view();
        std::vector<float> expect(nq * ed);
        core::mergeStreamPartials(&pv, 1, nq, ed, expect.data());
        for (size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(f32Bits(got[i]), f32Bits(expect[i]));

        const serve::LatencySnapshot snap = fe.snapshot();
        EXPECT_EQ(snap.partialAnswers, nq);
        EXPECT_GE(snap.rpcShards[1].deadlineMisses, 1u);
        // The JSON export carries the rpc block for cluster snapshots.
        const std::string json = snap.toJson();
        EXPECT_NE(json.find("\"rpc\""), std::string::npos);
        EXPECT_NE(json.find("\"partial_answers\": 3"),
                  std::string::npos);
        EXPECT_NE(json.find("\"deadline_misses\""), std::string::npos);
    }
}

TEST(ClusterFrontEnd, SnapshotHistogramRangeFollowsTheRequestTimeout)
{
    // Regression: snapshot() used to build its merge accumulator with
    // a hardcoded 1 s histogram range, so any batch slower than 1 s
    // clamped every latency quantile to 1.0 no matter how generous the
    // configured timeout was. The range now derives from
    // requestTimeoutSeconds x (pipelineDepth + 1).
    const size_t ns = 256, ed = 8, nq = 2, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    // Every message to/from the single shard straggles 0.6 s, so the
    // request + response round trip is >= 1.2 s — past the old 1 s
    // ceiling but well inside the 3 s timeout.
    FaultSpec slow;
    slow.stragglerProb = 1.0;
    slow.stragglerLatencySeconds = 0.6;
    t.setEndpointFaults("s0", slow);

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}};
    ccfg.requestTimeoutSeconds = 3.0;
    ClusterFrontEnd fe(t, ccfg);

    const std::vector<float> u = makeQuestions(nq, ed);
    std::vector<float> got(nq * ed);
    const net::BatchResult r =
        fe.inferBatch(u.data(), nq, ed, got.data());
    ASSERT_TRUE(r.complete);

    const serve::LatencySnapshot snap = fe.snapshot();
    ASSERT_EQ(snap.completed, 1u);
    EXPECT_GT(snap.endToEnd.p50, 1.05)
        << "a >1.2 s batch must not be clamped to the old 1 s range";
    EXPECT_LT(snap.endToEnd.p50, 6.1); // inside the derived range
}

TEST(ClusterFrontEnd, FailClosedBatchesAreCountedNotTimed)
{
    // Regression: a batch that failed closed used to be recorded into
    // the *success* latency histograms (its value pinned at the
    // deadline), silently dragging the reported tail to the timeout.
    // Failed batches now get their own counter and stay out of the
    // histograms entirely.
    const size_t ns = 256, ed = 8, nq = 3, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    // Shard 1 is dark: "s1" never gets a listener.

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 0.3;
    ClusterFrontEnd fe(t, ccfg);

    const std::vector<float> u = makeQuestions(nq, ed);
    std::vector<float> got(nq * ed, 0.f);
    const net::BatchResult r =
        fe.inferBatch(u.data(), nq, ed, got.data());
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.shardsAnswered, 0u);
    EXPECT_EQ(r.shardMask, 0u);

    const serve::LatencySnapshot snap = fe.snapshot();
    EXPECT_EQ(snap.failedBatches, 1u);
    EXPECT_EQ(snap.completed, 0u); // not in the success histograms
    EXPECT_EQ(snap.batches, 0u);
    EXPECT_EQ(snap.endToEnd.count, 0u);
    const std::string json = snap.toJson();
    EXPECT_NE(json.find("\"failed_batches\": 1"), std::string::npos);
}

// ---------------------------------------------------------------
// Scripted transport: deterministic send/connect accounting
// ---------------------------------------------------------------

/**
 * A fully scripted endpoint for retry-policy tests: counts connects
 * and sends exactly, and either answers every scatter request with a
 * canned partial or plays a fixed recv script (N timeouts, then a
 * delayed close) so failure interleavings are deterministic instead
 * of fault-schedule-dependent.
 */
struct ScriptedEndpoint
{
    /** >= 0: recv returns Timeout this many times, then Closed (the
     *  endpoint never answers). < 0: answer every request. */
    int timeoutsThenClose = -1;
    /** Sleep before returning the scripted Closed. */
    double closeDelaySeconds = 0.0;
    /** Delay between a request's send and its response's arrival. */
    double answerDelaySeconds = 0.0;

    std::atomic<int> connects{0};
    std::atomic<int> sends{0};
};

class ScriptedChannel final : public net::Channel
{
  public:
    explicit ScriptedChannel(ScriptedEndpoint &ep) : ep(ep) {}

    bool
    send(const Frame &frame) override
    {
        ep.sends.fetch_add(1);
        net::ScatterRequest req;
        if (ep.timeoutsThenClose < 0
            && decodeScatterRequest(frame, req) == WireStatus::Ok) {
            net::PartialResponse resp;
            resp.requestId = req.requestId;
            resp.shard = req.shard;
            resp.nq = req.nq;
            resp.ed = req.ed;
            resp.partial.nq = req.nq;
            resp.partial.runMax.assign(req.nq, 0.f);
            resp.partial.expSum.assign(req.nq, 1.0);
            resp.partial.o.assign(size_t(req.nq) * req.ed, 0.f);
            pending.push_back(encodePartialResponse(resp));
            readyAt = net::deadlineIn(ep.answerDelaySeconds);
        }
        return true;
    }

    RecvStatus
    recv(Frame &out, net::NetClock::time_point deadline) override
    {
        if (ep.timeoutsThenClose >= 0) {
            if (recvCalls++ < ep.timeoutsThenClose) {
                std::this_thread::sleep_until(deadline);
                return RecvStatus::Timeout;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(ep.closeDelaySeconds));
            return RecvStatus::Closed;
        }
        if (!pending.empty() && readyAt <= deadline) {
            std::this_thread::sleep_until(readyAt);
            out = pending.front();
            pending.pop_front();
            return RecvStatus::Ok;
        }
        std::this_thread::sleep_until(deadline);
        return RecvStatus::Timeout;
    }

    void
    close() override
    {
    }

  private:
    ScriptedEndpoint &ep;
    int recvCalls = 0;
    std::deque<Frame> pending;
    net::NetClock::time_point readyAt;
};

class ScriptedTransport final : public net::Transport
{
  public:
    std::map<std::string, ScriptedEndpoint *> endpoints;

    std::unique_ptr<net::Channel>
    connect(const std::string &endpoint,
            net::NetClock::time_point) override
    {
        auto it = endpoints.find(endpoint);
        if (it == endpoints.end())
            return nullptr;
        it->second->connects.fetch_add(1);
        return std::make_unique<ScriptedChannel>(*it->second);
    }

    std::unique_ptr<net::Listener>
    listen(const std::string &) override
    {
        return nullptr;
    }
};

TEST(ClusterFrontEnd, DeadPrimaryPromotesTheHedgeInsteadOfResending)
{
    // Regression: when the primary connection died while a hedge was
    // outstanding, the fetch used to reconnect and resend — putting a
    // duplicate request on a connection that already carried it and
    // double-counting rpcs. The hedge must be *promoted* instead:
    // exactly one connect and one send on the backup.
    ScriptedEndpoint primary;
    primary.timeoutsThenClose = 1; // silent past the hedge point,
                                   // then drops the connection
    ScriptedEndpoint backup; // answer ready immediately — but the
                             // race polls the primary first, so the
                             // death is observed before the answer

    ScriptedTransport t;
    t.endpoints = {{"prim", &primary}, {"back", &backup}};

    ClusterConfig ccfg;
    ccfg.replicas = {{"prim", "back"}};
    ccfg.requestTimeoutSeconds = 2.0;
    ccfg.hedging = true;
    ccfg.hedgeMinSeconds = 1e-3;
    ClusterFrontEnd fe(t, ccfg);

    const size_t nq = 2, ed = 4;
    const std::vector<float> u = makeQuestions(nq, ed);
    std::vector<float> got(nq * ed);
    const net::BatchResult r =
        fe.inferBatch(u.data(), nq, ed, got.data());
    ASSERT_TRUE(r.complete);

    EXPECT_EQ(primary.connects.load(), 1);
    EXPECT_EQ(primary.sends.load(), 1);
    EXPECT_EQ(backup.connects.load(), 1);
    EXPECT_EQ(backup.sends.load(), 1) << "promotion must not resend";

    const serve::LatencySnapshot snap = fe.snapshot();
    EXPECT_EQ(snap.rpcShards[0].rpcs, 2u); // primary + hedge, no more
    EXPECT_EQ(snap.rpcShards[0].hedgesFired, 1u);
    EXPECT_EQ(snap.rpcShards[0].failovers, 1u);
}

TEST(ClusterFrontEnd, HedgeDelayRecoversAfterATransientFailover)
{
    // Regression: the rpc stopwatch was only reset at the *first*
    // send, so the attempt that succeeded after a failover was timed
    // from the dead replica's send — reconnect and dead-wait
    // included — and one incident inflated the latency quantile that
    // schedules hedges long after the cluster recovered. Every
    // attempt now carries its own stopwatch.
    ScriptedEndpoint flaky;
    flaky.timeoutsThenClose = 0;   // dies on first use...
    flaky.closeDelaySeconds = 0.3; // ...after a long silent stall
    ScriptedEndpoint healthy;      // answers instantly

    ScriptedTransport t;
    t.endpoints = {{"flaky", &flaky}, {"healthy", &healthy}};

    ClusterConfig ccfg;
    ccfg.replicas = {{"flaky", "healthy"}};
    ccfg.requestTimeoutSeconds = 2.0;
    ccfg.hedging = false; // isolate the failover path
    ClusterFrontEnd fe(t, ccfg);

    const size_t nq = 1, ed = 4;
    const std::vector<float> u = makeQuestions(nq, ed);
    std::vector<float> got(nq * ed);
    const size_t batches = 20;
    for (size_t k = 0; k < batches; ++k)
        ASSERT_TRUE(fe.inferBatch(u.data(), nq, ed, got.data())
                        .complete);

    // One failover happened (batch 1), then 20 instant responses from
    // the healthy replica. Timed per attempt, even the slowest sample
    // is far under the 0.3 s stall the old accounting would have
    // charged to the first post-failover response.
    EXPECT_EQ(flaky.sends.load(), 1);
    EXPECT_EQ(healthy.connects.load(), 1); // kept alive across jobs
    EXPECT_EQ(healthy.sends.load(), int(batches));
    EXPECT_LT(fe.shardRpcLatencyQuantile(0, 1.0), 0.1);
}

// ---------------------------------------------------------------
// Pipelined window
// ---------------------------------------------------------------

TEST(ClusterFrontEnd, PipelinedWindowDeliversInOrderBitIdenticalToSerial)
{
    // A window of 4 over jittering, straggling, hedge-inducing
    // replicas: completions must come back in submission order and
    // every batch must be bit-identical to both the serial front end
    // and the in-process ShardedEngine.
    const size_t ns = 700, ed = 16, nq = 3, chunk = 64;
    const size_t kBatches = 8, kWindow = 4;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    core::ShardedEngine reference(skb, cfg);
    std::vector<std::vector<float>> questions, expect;
    for (size_t k = 0; k < kBatches; ++k) {
        questions.push_back(makeQuestions(nq, ed, 100 + k));
        expect.emplace_back(nq * ed);
        reference.inferBatch(questions[k].data(), nq,
                             expect[k].data());
    }

    // Stragglers delay ~half the messages by 50 ms — enough to shake
    // up shard completion order and fire hedges — but nothing is
    // lost, so every batch completes.
    FaultSpec shaky;
    shaky.jitterSeconds = 2e-3;
    shaky.stragglerProb = 0.5;
    shaky.stragglerLatencySeconds = 0.05;

    LoopbackNetwork netns;
    LoopbackTransport t(netns, shaky, 4242);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0-a");
    set.add(skb.shard(0), cfg, 0, t, "s0-b");
    set.add(skb.shard(1), cfg, 1, t, "s1-a");
    set.add(skb.shard(1), cfg, 1, t, "s1-b");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0-a", "s0-b"}, {"s1-a", "s1-b"}};
    ccfg.requestTimeoutSeconds = 30.0;
    ccfg.hedging = true;
    ccfg.hedgeMinSeconds = 0.005;

    // Serial pass first: one batch at a time through its own front
    // end (the same nodes serve both passes).
    std::vector<std::vector<float>> serialGot(
        kBatches, std::vector<float>(nq * ed));
    {
        ClusterConfig serial = ccfg;
        serial.pipelineDepth = 1;
        ClusterFrontEnd fe(t, serial);
        EXPECT_EQ(fe.pipelineDepth(), 1u);
        for (size_t k = 0; k < kBatches; ++k)
            ASSERT_TRUE(fe.inferBatch(questions[k].data(), nq, ed,
                                      serialGot[k].data())
                            .complete);
    }

    // Pipelined pass: keep the window full, retire in order.
    ClusterConfig piped = ccfg;
    piped.pipelineDepth = kWindow;
    ClusterFrontEnd fe(t, piped);
    EXPECT_EQ(fe.pipelineDepth(), kWindow);
    std::vector<std::vector<float>> pipedGot(
        kBatches, std::vector<float>(nq * ed));
    std::vector<uint64_t> tickets(kBatches);
    for (size_t k = 0; k < kWindow; ++k)
        tickets[k] = fe.submitBatch(questions[k].data(), nq, ed,
                                    pipedGot[k].data());
    for (size_t k = 0; k < kBatches; ++k) {
        const net::BatchResult r = fe.waitBatch(tickets[k]);
        ASSERT_TRUE(r.complete) << "batch " << k;
        EXPECT_EQ(r.shardMask, 0b11u);
        if (k + kWindow < kBatches)
            tickets[k + kWindow] =
                fe.submitBatch(questions[k + kWindow].data(), nq, ed,
                               pipedGot[k + kWindow].data());
    }

    for (size_t k = 0; k < kBatches; ++k)
        for (size_t i = 0; i < nq * ed; ++i) {
            ASSERT_EQ(f32Bits(pipedGot[k][i]), f32Bits(expect[k][i]))
                << "batch " << k << " i=" << i << " vs engine";
            ASSERT_EQ(f32Bits(pipedGot[k][i]),
                      f32Bits(serialGot[k][i]))
                << "batch " << k << " i=" << i << " vs serial";
        }
}

TEST(ClusterFrontEnd, MidWindowPartialAnswerRetiresInOrderAndRecovers)
{
    // Two batches share the window while shard 1 is dark: both retire
    // in order as partials whose merged bits equal a single-shard
    // gather. Once shard 1 comes up, the next batch is whole again.
    const size_t ns = 512, ed = 8, nq = 3, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    core::ShardedEngine reference(skb, cfg);

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    // "s1" stays unregistered until the recovery phase below.

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 0.3;
    ccfg.allowPartial = true;
    ccfg.pipelineDepth = 2;
    ClusterFrontEnd fe(t, ccfg);

    // The expected partial: exactly shard 0's normalized gather.
    const auto shard0Expect = [&](const std::vector<float> &u) {
        core::EngineConfig solo = cfg;
        solo.scheduleGroups = 1;
        core::ColumnEngine engine0(skb.shard(0), solo);
        core::StreamPartial part;
        engine0.inferPartial(u.data(), nq, part);
        const core::PartialView pv = part.view();
        std::vector<float> out(nq * ed);
        core::mergeStreamPartials(&pv, 1, nq, ed, out.data());
        return out;
    };

    const std::vector<float> u0 = makeQuestions(nq, ed, 301);
    const std::vector<float> u1 = makeQuestions(nq, ed, 302);
    std::vector<float> got0(nq * ed), got1(nq * ed);
    const uint64_t t0 = fe.submitBatch(u0.data(), nq, ed, got0.data());
    const uint64_t t1 = fe.submitBatch(u1.data(), nq, ed, got1.data());

    // Batch 0 retires partial while batch 1 is still in the window.
    const net::BatchResult r0 = fe.waitBatch(t0);
    EXPECT_FALSE(r0.complete);
    EXPECT_EQ(r0.shardMask, 0b01u);
    const net::BatchResult r1 = fe.waitBatch(t1);
    EXPECT_FALSE(r1.complete);
    EXPECT_EQ(r1.shardMask, 0b01u);
    const std::vector<float> e0 = shard0Expect(u0);
    const std::vector<float> e1 = shard0Expect(u1);
    for (size_t i = 0; i < nq * ed; ++i) {
        ASSERT_EQ(f32Bits(got0[i]), f32Bits(e0[i])) << "i=" << i;
        ASSERT_EQ(f32Bits(got1[i]), f32Bits(e1[i])) << "i=" << i;
    }

    // Shard 1 comes back: the same front end serves whole batches
    // again, bit-identical to the in-process reference.
    set.add(skb.shard(1), cfg, 1, t, "s1");
    std::vector<float> got2(nq * ed), expect2(nq * ed);
    reference.inferBatch(u0.data(), nq, expect2.data());
    const net::BatchResult r2 =
        fe.inferBatch(u0.data(), nq, ed, got2.data());
    EXPECT_TRUE(r2.complete);
    EXPECT_EQ(r2.shardMask, 0b11u);
    for (size_t i = 0; i < nq * ed; ++i)
        ASSERT_EQ(f32Bits(got2[i]), f32Bits(expect2[i])) << "i=" << i;

    const serve::LatencySnapshot snap = fe.snapshot();
    EXPECT_EQ(snap.partialAnswers, 2 * nq);
    EXPECT_EQ(snap.failedBatches, 0u);
    EXPECT_GE(snap.rpcShards[1].deadlineMisses, 2u);
}

// ---------------------------------------------------------------
// LiveServer over a cluster backend
// ---------------------------------------------------------------

TEST(LiveServerCluster, AnswersBitIdenticalToShardedEngine)
{
    const size_t ns = 700, ed = 16, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    core::ShardedEngine reference(skb, cfg);

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    set.add(skb.shard(1), cfg, 1, t, "s1");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 30.0;
    ccfg.pipelineDepth = 2;
    ClusterFrontEnd fe(t, ccfg);

    serve::LiveServerConfig lcfg;
    lcfg.maxBatch = 4;
    lcfg.batchTimeout = 1e-3;
    lcfg.queueCapacity = 64;
    serve::LiveServer server(fe, ed, lcfg);
    EXPECT_TRUE(server.remote());
    EXPECT_EQ(server.embeddingDim(), ed);

    const size_t kRequests = 24;
    std::vector<std::vector<float>> questions;
    std::vector<serve::Ticket> tickets;
    for (size_t i = 0; i < kRequests; ++i) {
        questions.push_back(makeQuestions(1, ed, 500 + i));
        tickets.push_back(server.submit(questions[i].data()));
        ASSERT_TRUE(tickets[i].accepted());
    }

    for (size_t i = 0; i < kRequests; ++i) {
        serve::Answer a = tickets[i].answer.get();
        EXPECT_FALSE(a.failed);
        EXPECT_EQ(a.shardMask, 0b11u);
        ASSERT_EQ(a.o.size(), ed);
        // Per-question results are batch-composition-independent, so
        // a single-question reference inference predicts the bits no
        // matter how the dynamic batcher grouped the request.
        std::vector<float> expect(ed);
        reference.inferBatch(questions[i].data(), 1, expect.data());
        for (size_t e = 0; e < ed; ++e)
            ASSERT_EQ(f32Bits(a.o[e]), f32Bits(expect[e]))
                << "request " << i << " e=" << e;
    }

    server.shutdown();
    const serve::LatencySnapshot snap = server.snapshot();
    EXPECT_EQ(snap.arrived, kRequests);
    EXPECT_EQ(snap.completed, kRequests);
    EXPECT_EQ(snap.rejected, 0u);
    // The backend's per-shard RPC counters ride along in the serving
    // snapshot: one rpc per shard per dispatched batch at least.
    ASSERT_EQ(snap.rpcShards.size(), 2u);
    EXPECT_GE(snap.rpcShards[0].rpcs, snap.batches);
    EXPECT_GE(snap.rpcShards[1].rpcs, snap.batches);
    EXPECT_EQ(snap.failedBatches, 0u);
}

TEST(LiveServerCluster, DispatchesALoneRequestOnArrival)
{
    // The shard nodes ride every request on one scan, so a batch joins
    // the work in flight and the server in front dispatches on arrival:
    // a lone request is answered long before a 10 s batchTimeout, with
    // the bits of the in-process engine over the same partition.
    const size_t ns = 256, ed = 8, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;
    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    core::ShardedEngine reference(skb, cfg);

    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    set.add(skb.shard(1), cfg, 1, t, "s1");
    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 30.0;
    ccfg.pipelineDepth = 4;
    ClusterFrontEnd fe(t, ccfg);
    EXPECT_TRUE(fe.joinsInFlight());

    serve::LiveServerConfig lcfg;
    lcfg.maxBatch = 8;
    lcfg.batchTimeout = 10.0;
    serve::LiveServer server(fe, ed, lcfg);
    const std::vector<float> u = makeQuestions(1, ed, 71);
    serve::Ticket tk = server.submit(u.data());
    ASSERT_TRUE(tk.accepted());
    ASSERT_EQ(tk.answer.wait_for(std::chrono::seconds(2)),
              std::future_status::ready);
    const serve::Answer a = tk.answer.get();
    EXPECT_FALSE(a.failed);
    EXPECT_EQ(a.batchSize, 1u);
    std::vector<float> expect(ed);
    reference.inferBatch(u.data(), 1, expect.data());
    ASSERT_EQ(a.o.size(), ed);
    for (size_t e = 0; e < ed; ++e)
        ASSERT_EQ(f32Bits(a.o[e]), f32Bits(expect[e])) << "e=" << e;
}

TEST(LiveServerCluster, FloodAndShutdownAnswersEveryAcceptedRequest)
{
    const size_t ns = 256, ed = 8, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    set.add(skb.shard(1), cfg, 1, t, "s1");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}, {"s1"}};
    ccfg.requestTimeoutSeconds = 30.0;
    ccfg.pipelineDepth = 2;
    ClusterFrontEnd fe(t, ccfg);

    serve::LiveServerConfig lcfg;
    lcfg.maxBatch = 4;
    lcfg.batchTimeout = 1e-4;
    lcfg.queueCapacity = 8; // small: the flood must hit backpressure
    serve::LiveServer server(fe, ed, lcfg);

    const size_t kThreads = 4, kPerThread = 50;
    const std::vector<float> u = makeQuestions(1, ed);
    std::atomic<uint64_t> accepted{0}, rejected{0}, answered{0};
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kThreads; ++c)
        clients.emplace_back([&] {
            for (size_t i = 0; i < kPerThread; ++i) {
                serve::Ticket tk = server.submit(u.data());
                if (!tk.accepted()) {
                    rejected.fetch_add(1);
                    continue;
                }
                accepted.fetch_add(1);
                // Every accepted future must become ready — even the
                // ones caught mid-flight by the shutdown below.
                serve::Answer a = tk.answer.get();
                EXPECT_FALSE(a.failed);
                answered.fetch_add(1);
            }
        });
    // Shut down while the flood is still arriving: requests already
    // accepted must drain through the cluster exactly once.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.shutdown();
    for (std::thread &c : clients)
        c.join();

    EXPECT_EQ(answered.load(), accepted.load());
    const serve::LatencySnapshot snap = server.snapshot();
    EXPECT_EQ(snap.arrived, kThreads * kPerThread);
    EXPECT_EQ(snap.completed, accepted.load());
    EXPECT_EQ(snap.rejected, rejected.load());
    EXPECT_EQ(snap.arrived, snap.completed + snap.rejected);
}

TEST(ClusterFrontEnd, ShutdownNodesStopsEveryReplica)
{
    const size_t ns = 256, ed = 8, chunk = 64;
    const core::KnowledgeBase kb = makeKb(ns, ed);
    core::EngineConfig cfg;
    cfg.chunkSize = chunk;

    const core::ShardedKnowledgeBase skb(kb, chunk, 2);
    LoopbackNetwork netns;
    LoopbackTransport t(netns);
    NodeSet set;
    set.add(skb.shard(0), cfg, 0, t, "s0");
    set.add(skb.shard(1), cfg, 1, t, "s1");

    ClusterConfig ccfg;
    ccfg.replicas = {{"s0"}, {"s1"}};
    {
        ClusterFrontEnd fe(t, ccfg);
        fe.shutdownNodes(1.0);
    }
    // Joins promptly because every node saw the Shutdown frame.
    set.stop();
    for (const auto &n : set.nodes)
        EXPECT_EQ(n->requestsServed(), 0u);
}

} // namespace
} // namespace mnnfast
