#ifndef XFRAUD_SERVE_WIRE_H_
#define XFRAUD_SERVE_WIRE_H_

#include <cstdint>
#include <string>

#include "xfraud/common/frame.h"
#include "xfraud/common/status.h"
#include "xfraud/serve/scoring_service.h"

namespace xfraud::serve {

/// Payload codecs for the multi-process serving tier's frame types
/// (DESIGN.md §16). The frame *header* — type, rank, seq, payload length,
/// payload CRC — is common/frame.h's job; this file owns only the payload
/// layouts, encoded with common/bytes.h like the header: integers are
/// little-endian and doubles travel as their IEEE-754 bit pattern, so a
/// score crosses the wire bit-exactly — the tier's determinism contract
/// ("socket scores == in-process scores") holds to the last mantissa bit.

/// kScoreRequest payload (20 bytes). Header: rank = target shard,
/// seq = request id.
///
///   [0..8)   epoch        u64  pinned KV epoch to score at
///   [8..16)  deadline_us  u64  remaining budget at send time, microseconds
///                             (kNoDeadline = unlimited; 0 = already spent,
///                             the server must reject without scoring)
///   [16..20) txn_node     i32
struct ScoreRequestWire {
  uint64_t epoch = 0;
  /// Remaining seconds of request budget at send time; < 0 = no deadline.
  double deadline_s = -1.0;
  int32_t txn_node = 0;
};

inline constexpr uint64_t kNoDeadlineUs = ~0ULL;

/// kScoreReply payload (42 bytes + message). Header: rank = replying
/// server's rank, seq echoes the request id.
///
///   [0..4)   status code       u32 (StatusCode)
///   [4..12)  score             f64 bits
///   [12..20) imputed_rows      i64
///   [20..28) latency_s         f64 bits
///   [28..36) deadline_slack_s  f64 bits
///   [36..37) degraded          u8
///   [37..38) from_prefilter    u8
///   [38..42) message length    u32
///   [42..)   message bytes     (status message; empty on OK)
struct ScoreReplyWire {
  /// The scoring verdict. `response` fields are meaningful only on OK.
  Status status;
  ScoreResponse response;
};

/// kHealth payload (16 bytes). Header: seq echoes the ping nonce, so the
/// supervisor can match pongs to pings over a reused connection.
///
///   [0..8)   generation       u64  the incarnation the server was born in
///   [8..16)  requests_served  u64  score requests handled so far
struct HealthWire {
  uint64_t generation = 0;
  int64_t requests_served = 0;
};

std::string EncodeScoreRequest(const ScoreRequestWire& req);
Result<ScoreRequestWire> DecodeScoreRequest(const void* payload, size_t n);

std::string EncodeScoreReply(const ScoreReplyWire& reply);
Result<ScoreReplyWire> DecodeScoreReply(const void* payload, size_t n);

std::string EncodeHealth(const HealthWire& health);
Result<HealthWire> DecodeHealth(const void* payload, size_t n);

/// Rebuilds `*out` from its wire (code, message) pair; returns Corruption
/// (leaving *out untouched) on a code outside the StatusCode enum.
Status StatusFromWire(uint32_t code, std::string message, Status* out);

}  // namespace xfraud::serve

#endif  // XFRAUD_SERVE_WIRE_H_
