#ifndef XFRAUD_COMMON_FRAME_H_
#define XFRAUD_COMMON_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "xfraud/common/status.h"

namespace xfraud {

/// Length-prefixed wire frame used by the dist/ socket transport, the
/// rank-0 rendezvous, and the multi-process serving tier. A frame is a
/// fixed 32-byte header followed by `payload_bytes` of payload:
///
///   [0..4)   magic  "XFRM"
///   [4..6)   type   u16 (FrameType)
///   [6..8)   flags  u16 (dtype / backend-specific bits)
///   [8..12)  rank   u32 (sender rank, or root, depending on type)
///   [12..20) seq    u64 (collective sequence number, generation, or
///                        request id)
///   [20..28) payload_bytes u64
///   [28..32) payload_crc   u32 (CRC32 of the payload bytes; CRC of the
///                               empty payload for payload-less frames)
///
/// Integers are little-endian (common/bytes.h). The payload CRC makes a
/// torn or bit-flipped payload detectable at the receiver:
/// VerifyFramePayload returns Corruption instead of silently accepting
/// garbage. Serialization lives in common/ so it carries no socket I/O —
/// dist/ owns the fds.
enum class FrameType : uint16_t {
  kHello = 1,      // ring handshake: rank = sender's rank
  kJoin = 2,       // rendezvous: rank = joiner, seq = generation, payload = ring endpoint
  kAssign = 3,     // rendezvous reply: seq = generation, payload = successor endpoint
  kReduce = 4,     // all-reduce pass 1 (partial sums travel the ring)
  kResult = 5,     // all-reduce pass 2 (final sum travels the ring)
  kBroadcast = 6,  // broadcast payload, rank = root
  // 7 was the ring barrier's token; it is retired and stays unassigned.
  kGather = 8,     // concatenated per-rank entries travelling toward root
  // Multi-process serving tier (serve/wire.h owns the payload codecs):
  kScoreRequest = 9,  // router -> shard server: seq = request id
  kScoreReply = 10,   // shard server -> router: seq echoes the request id
  kHealth = 11,       // supervisor ping/pong: seq echoes the nonce
  kDrain = 12,        // orderly shutdown: request and ack are both kDrain
};

/// Payload dtype, carried in `flags` for the numeric collectives.
enum class FrameDtype : uint16_t { kNone = 0, kFloat32 = 1, kFloat64 = 2 };

struct FrameHeader {
  FrameType type = FrameType::kHello;
  uint16_t flags = 0;
  uint32_t rank = 0;
  uint64_t seq = 0;
  uint64_t payload_bytes = 0;
  uint32_t payload_crc = 0;
};

inline constexpr size_t kFrameHeaderBytes = 32;

/// Frames above this payload size are rejected as corrupt — far above any
/// gradient buffer the simulation ships, far below anything that could make
/// a malformed length field allocate the host out of memory.
inline constexpr uint64_t kMaxFramePayload = 1ULL << 31;

/// CRC32 of a frame payload (the value carried at header offset 28).
uint32_t FramePayloadCrc(const void* payload, size_t n);

/// Stamps `header` with payload_bytes = n and the payload's CRC. Senders
/// call this (directly or via dist::SendFrame) before encoding.
void SealFramePayload(FrameHeader* header, const void* payload, size_t n);

/// Checks `n` received payload bytes against the CRC the sender sealed into
/// `header`. Returns Corruption on any mismatch — a torn read, a bit flip
/// on the wire, or a length that disagrees with the header.
Status VerifyFramePayload(const FrameHeader& header, const void* payload,
                          size_t n);

/// Encodes `header` into its kFrameHeaderBytes bytes.
std::string EncodeFrameHeader(const FrameHeader& header);

/// Decodes a header from `data` (kFrameHeaderBytes long). Returns
/// Corruption on a bad magic, unknown type, or oversized payload length.
Result<FrameHeader> DecodeFrameHeader(const unsigned char* data);

}  // namespace xfraud

#endif  // XFRAUD_COMMON_FRAME_H_
