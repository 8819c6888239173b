/**
 * @file
 * The cluster wire format: versioned, endianness-pinned framed
 * messages carrying scatter requests and StreamPartial responses
 * between a ClusterFrontEnd and its ShardNodes (DESIGN.md §12).
 *
 * A frame is a 16-byte header followed by the payload:
 *
 *   offset  size  field
 *        0     4  magic      0x4D4E4E46 ("FNNM" on the wire, LE)
 *        4     2  version    kWireVersion
 *        6     2  type       FrameType
 *        8     4  payload length (bytes)
 *       12     4  CRC-32 (IEEE, reflected) of the payload bytes
 *
 * Every multi-byte field — header fields and payload scalars alike —
 * is serialized explicitly little-endian, byte by byte, so two nodes
 * of different endianness (or the same node across rebuilds) always
 * agree on the bytes. Floating-point values travel as their IEEE-754
 * bit patterns (f32 as u32, f64 as u64), which makes encode/decode
 * round trips *bit-exact*, including negative zero, denormals, NaN
 * payloads and the -inf running maxima the plain (onlineNormalize
 * off) engines produce. That exactness is one leg of the cluster
 * bit-identity guarantee: a partial that crosses the wire is the same
 * partial, so the gather-side merge reproduces the in-process
 * ShardedEngine result bit for bit (see cluster_frontend.hh).
 *
 * Decoding is defensive: bad magic, unknown version, unknown type,
 * a length that disagrees with the buffer, truncation anywhere, or a
 * CRC mismatch all produce a typed WireStatus (never a crash, never
 * a partially applied message), and message decoders re-validate
 * their interior counts against the payload size before touching any
 * array.
 */

#ifndef MNNFAST_NET_WIRE_HH
#define MNNFAST_NET_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/column_engine.hh"

namespace mnnfast::net {

/** Wire protocol version; bump on any layout change. */
inline constexpr uint16_t kWireVersion = 1;

/** Frame magic ("MNNF" as a little-endian u32). */
inline constexpr uint32_t kWireMagic = 0x4D4E4E46u;

/** Serialized header size in bytes. */
inline constexpr size_t kHeaderBytes = 16;

/** Refuse payloads beyond this (a corrupt length field must not
 *  trigger a multi-gigabyte allocation). */
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 30;

/** What a frame carries. */
enum class FrameType : uint16_t {
    /** Front end -> node: one batch of questions to stream. */
    ScatterRequest = 1,
    /** Node -> front end: the shard's StreamPartial for one request. */
    PartialResponse = 2,
    /** Front end -> node: exit the serve loop (clean teardown). */
    Shutdown = 3,
};

/** Decode outcome; everything but Ok leaves outputs untouched. */
enum class WireStatus {
    Ok,
    BadMagic,       ///< first four bytes are not kWireMagic
    BadVersion,     ///< version field != kWireVersion
    BadType,        ///< type field is no known FrameType
    BadLength,      ///< length field exceeds bounds / disagrees
    Truncated,      ///< buffer ends before header or payload does
    BadCrc,         ///< payload checksum mismatch
    Malformed,      ///< payload interior inconsistent with its type
};

/** Human-readable WireStatus name. */
const char *wireStatusName(WireStatus s);

/** A typed message: header-on-the-wire type plus raw payload bytes. */
struct Frame
{
    FrameType type = FrameType::Shutdown;
    std::vector<uint8_t> payload;
};

/** CRC-32 (IEEE 802.3, reflected) of `n` bytes. */
uint32_t crc32(const uint8_t *data, size_t n);

/** Serialize `frame` (header + payload) into a fresh byte vector. */
std::vector<uint8_t> encodeFrame(const Frame &frame);

/**
 * Parsed frame header. decodeHeader validates magic/version/type and
 * bounds the payload length; the payload CRC is checked later, by
 * decodePayload, once the payload bytes are available.
 */
struct FrameHeader
{
    FrameType type = FrameType::Shutdown;
    uint32_t payloadLen = 0;
    uint32_t payloadCrc = 0;
};

/** Validate the 16 header bytes at `data` (size `n` >= header). */
WireStatus decodeHeader(const uint8_t *data, size_t n,
                        FrameHeader &out);

/** Check `payload` against the header's length+CRC and move it into
 *  `out` (type from the header). */
WireStatus decodePayload(const FrameHeader &header,
                         std::vector<uint8_t> &&payload, Frame &out);

/** One-shot decode of a fully buffered frame (header + payload). */
WireStatus decodeFrame(const uint8_t *data, size_t n, Frame &out);

/**
 * ScatterRequest payload: one batch of question vectors for one
 * shard. `shard` is carried for cross-checking — a node answers only
 * its own shard index, so a miswired endpoint fails loudly instead of
 * merging the wrong partition's partial.
 */
struct ScatterRequest
{
    uint64_t requestId = 0; ///< echoed in the response (hedge dedup)
    uint32_t shard = 0;     ///< shard index this node must own
    uint32_t nq = 0;        ///< questions in the batch
    uint32_t ed = 0;        ///< embedding dimension
    std::vector<float> u;   ///< nq x ed question vectors
};

/** PartialResponse payload: the shard's merged online-softmax state
 *  (see core::StreamPartial) for one request, bit-exact. */
struct PartialResponse
{
    uint64_t requestId = 0;
    uint32_t shard = 0;
    uint32_t nq = 0;
    uint32_t ed = 0;
    core::StreamPartial partial;
};

/** Encode `req` as a ScatterRequest frame. */
Frame encodeScatterRequest(const ScatterRequest &req);

/** Decode a ScatterRequest frame's payload (type must match). */
WireStatus decodeScatterRequest(const Frame &frame, ScatterRequest &out);

/** Encode `resp` as a PartialResponse frame; resp.partial must hold
 *  nq runMax/expSum entries and nq x ed accumulator floats. */
Frame encodePartialResponse(const PartialResponse &resp);

/** Decode a PartialResponse frame's payload (type must match). */
WireStatus decodePartialResponse(const Frame &frame,
                                 PartialResponse &out);

} // namespace mnnfast::net

#endif // MNNFAST_NET_WIRE_HH
