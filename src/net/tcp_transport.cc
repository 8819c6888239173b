#include "net/tcp_transport.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace mnnfast::net {

namespace {

/** Remaining milliseconds to `deadline`, clamped to [0, 100] so fd
 *  closes from other threads are noticed within a slice. */
int
pollTimeoutMs(NetClock::time_point deadline)
{
    const auto now = NetClock::now();
    if (now >= deadline)
        return 0;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - now)
                        .count();
    return static_cast<int>(std::min<long long>(ms + 1, 100));
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/** Parse "a.b.c.d:port"; false on anything else. */
bool
parseEndpoint(const std::string &endpoint, sockaddr_in &addr)
{
    const size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0)
        return false;
    const std::string host = endpoint.substr(0, colon);
    const char *portStr = endpoint.c_str() + colon + 1;
    char *end = nullptr;
    const unsigned long port = std::strtoul(portStr, &end, 10);
    if (end == portStr || *end != '\0' || port > 65535)
        return false;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

} // namespace

// ---- TcpChannel -------------------------------------------------------

TcpChannel::TcpChannel(int fd_) : fd(fd_)
{
    setNoDelay(fd_);
}

TcpChannel::~TcpChannel()
{
    close();
}

void
TcpChannel::close()
{
    const int f = fd.exchange(-1);
    if (f >= 0) {
        ::shutdown(f, SHUT_RDWR);
        ::close(f);
    }
}

void
TcpChannel::shutdown()
{
    // The fd stays open, so a send polling it cannot meet a reused one.
    const int f = fd.load();
    if (f >= 0)
        ::shutdown(f, SHUT_RDWR);
}

bool
TcpChannel::send(const Frame &frame)
{
    const int f = fd.load();
    if (f < 0)
        return false;
    const std::vector<uint8_t> bytes = encodeFrame(frame);
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::send(f, bytes.data() + off,
                                 bytes.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd pfd{f, POLLOUT, 0};
            ::poll(&pfd, 1, 100);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        return false; // EPIPE / ECONNRESET / local close
    }
    return true;
}

RecvStatus
TcpChannel::fill(NetClock::time_point deadline)
{
    const int f = fd.load();
    if (f < 0)
        return RecvStatus::Closed;

    uint8_t *dst;
    size_t want;
    if (!headerDone) {
        dst = headerBuf + headerFill;
        want = sizeof headerBuf - headerFill;
    } else {
        dst = payloadBuf.data() + payloadFill;
        want = payloadBuf.size() - payloadFill;
    }

    for (;;) {
        const ssize_t n = ::recv(f, dst, want, 0);
        if (n > 0) {
            if (!headerDone)
                headerFill += static_cast<size_t>(n);
            else
                payloadFill += static_cast<size_t>(n);
            return RecvStatus::Ok;
        }
        if (n == 0)
            return RecvStatus::Closed;
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return RecvStatus::Closed;
        if (NetClock::now() >= deadline)
            return RecvStatus::Timeout;
        pollfd pfd{f, POLLIN, 0};
        ::poll(&pfd, 1, pollTimeoutMs(deadline));
        if (NetClock::now() >= deadline && !(pfd.revents & POLLIN))
            return RecvStatus::Timeout;
    }
}

RecvStatus
TcpChannel::recv(Frame &out, NetClock::time_point deadline)
{
    for (;;) {
        if (!headerDone && headerFill == sizeof headerBuf) {
            const WireStatus ws =
                decodeHeader(headerBuf, sizeof headerBuf, header);
            if (ws != WireStatus::Ok)
                return RecvStatus::Corrupt;
            payloadBuf.assign(header.payloadLen, 0);
            payloadFill = 0;
            headerDone = true;
        }
        if (headerDone && payloadFill == payloadBuf.size()) {
            // Frame complete: reset reassembly state before the CRC
            // verdict so a corrupt frame cannot be re-delivered.
            headerDone = false;
            headerFill = 0;
            const WireStatus ws = decodePayload(
                header, std::move(payloadBuf), out);
            payloadBuf.clear();
            payloadFill = 0;
            return ws == WireStatus::Ok ? RecvStatus::Ok
                                        : RecvStatus::Corrupt;
        }
        const RecvStatus st = fill(deadline);
        if (st != RecvStatus::Ok)
            return st;
    }
}

// ---- TcpListener ------------------------------------------------------

TcpListener::TcpListener(int fd_, uint16_t port_) : fd(fd_), port(port_)
{
}

TcpListener::~TcpListener()
{
    close();
}

void
TcpListener::close()
{
    const int f = fd.exchange(-1);
    if (f >= 0)
        ::close(f);
}

std::unique_ptr<Channel>
TcpListener::accept(NetClock::time_point deadline)
{
    for (;;) {
        const int f = fd.load();
        if (f < 0)
            return nullptr;
        const int conn = ::accept(f, nullptr, nullptr);
        if (conn >= 0) {
            if (!setNonBlocking(conn)) {
                ::close(conn);
                return nullptr;
            }
            return std::make_unique<TcpChannel>(conn);
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK)
            return nullptr;
        if (NetClock::now() >= deadline)
            return nullptr;
        pollfd pfd{f, POLLIN, 0};
        ::poll(&pfd, 1, pollTimeoutMs(deadline));
    }
}

// ---- TcpTransport -----------------------------------------------------

std::unique_ptr<Channel>
TcpTransport::connect(const std::string &endpoint,
                      NetClock::time_point deadline)
{
    sockaddr_in addr;
    if (!parseEndpoint(endpoint, addr))
        return nullptr;
    const int f = ::socket(AF_INET, SOCK_STREAM, 0);
    if (f < 0)
        return nullptr;
    if (!setNonBlocking(f)) {
        ::close(f);
        return nullptr;
    }
    if (::connect(f, reinterpret_cast<sockaddr *>(&addr), sizeof addr)
        != 0) {
        if (errno != EINPROGRESS) {
            ::close(f);
            return nullptr;
        }
        // Wait for the non-blocking connect to resolve.
        for (;;) {
            pollfd pfd{f, POLLOUT, 0};
            const int pr = ::poll(&pfd, 1, pollTimeoutMs(deadline));
            if (pr > 0)
                break;
            if (NetClock::now() >= deadline) {
                ::close(f);
                return nullptr;
            }
        }
        int err = 0;
        socklen_t len = sizeof err;
        if (::getsockopt(f, SOL_SOCKET, SO_ERROR, &err, &len) != 0
            || err != 0) {
            ::close(f);
            return nullptr;
        }
    }
    return std::make_unique<TcpChannel>(f);
}

std::unique_ptr<Listener>
TcpTransport::listen(const std::string &endpoint)
{
    sockaddr_in addr;
    if (!parseEndpoint(endpoint, addr))
        return nullptr;
    const int f = ::socket(AF_INET, SOCK_STREAM, 0);
    if (f < 0)
        return nullptr;
    int one = 1;
    ::setsockopt(f, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(f, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0
        || ::listen(f, 64) != 0 || !setNonBlocking(f)) {
        ::close(f);
        return nullptr;
    }
    sockaddr_in bound;
    socklen_t len = sizeof bound;
    if (::getsockname(f, reinterpret_cast<sockaddr *>(&bound), &len)
        != 0) {
        ::close(f);
        return nullptr;
    }
    return std::make_unique<TcpListener>(f, ntohs(bound.sin_port));
}

} // namespace mnnfast::net
