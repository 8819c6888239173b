/**
 * @file
 * Real TCP socket transport for cross-process shard nodes
 * (DESIGN.md §12): blocking-style connect/send/recv with absolute
 * deadlines, implemented over non-blocking sockets and poll(2).
 *
 * Framing follows net/wire.hh exactly: a send writes header + payload
 * bytes; a recv reassembles them from the stream — the 16 header
 * bytes first, validated (magic/version/type/length) before the
 * payload length is trusted, then the payload, CRC-checked before the
 * frame is surfaced. A recv that hits its deadline mid-frame keeps
 * the partial bytes buffered in the channel and resumes on the next
 * call, so timeouts never desynchronize the stream. Validation
 * failures surface as RecvStatus::Corrupt; on a byte stream there is
 * no trustworthy resynchronization point after a corrupt header, so
 * callers should close the channel (ClusterFrontEnd treats Corrupt
 * like a disconnect and fails over).
 *
 * TCP_NODELAY is set on every connection: frames are small (a few KiB)
 * and latency-critical — Nagle coalescing would serialize the
 * scatter/gather round trip behind delayed ACKs.
 *
 * Endpoints are "host:port" with numeric IPv4 hosts ("127.0.0.1:0");
 * listen on port 0 binds an ephemeral port, reported by
 * TcpListener::boundPort() so a parent process can spawn nodes
 * without port coordination.
 */

#ifndef MNNFAST_NET_TCP_TRANSPORT_HH
#define MNNFAST_NET_TCP_TRANSPORT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.hh"

namespace mnnfast::net {

/** Channel over one connected TCP socket. See file header. */
class TcpChannel : public Channel
{
  public:
    /** Takes ownership of connected socket `fd` (non-blocking). */
    explicit TcpChannel(int fd);
    ~TcpChannel() override;

    bool send(const Frame &frame) override;
    RecvStatus recv(Frame &out, NetClock::time_point deadline) override;
    void close() override;
    void shutdown() override;

  private:
    /** Read once into the reassembly buffers; false on EOF/error. */
    RecvStatus fill(NetClock::time_point deadline);

    std::atomic<int> fd;

    // Frame reassembly state (survives recv timeouts).
    uint8_t headerBuf[16];
    size_t headerFill = 0;
    bool headerDone = false;
    FrameHeader header;
    std::vector<uint8_t> payloadBuf;
    size_t payloadFill = 0;
};

/** Accepting socket bound to one local port. */
class TcpListener : public Listener
{
  public:
    explicit TcpListener(int fd, uint16_t port);
    ~TcpListener() override;

    std::unique_ptr<Channel> accept(NetClock::time_point deadline) override;
    void close() override;

    /** The bound local port (resolves listen-on-port-0). */
    uint16_t boundPort() const { return port; }

  private:
    std::atomic<int> fd;
    uint16_t port;
};

/** TCP transport over numeric-IPv4 "host:port" endpoints. */
class TcpTransport : public Transport
{
  public:
    std::unique_ptr<Channel> connect(const std::string &endpoint,
                                     NetClock::time_point deadline) override;
    std::unique_ptr<Listener> listen(const std::string &endpoint) override;
};

} // namespace mnnfast::net

#endif // MNNFAST_NET_TCP_TRANSPORT_HH
