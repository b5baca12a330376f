#include "xfraud/serve/wire.h"

#include "xfraud/common/bytes.h"

namespace xfraud::serve {

namespace {

constexpr size_t kScoreRequestBytes = 20;
constexpr size_t kHealthBytes = 16;

}  // namespace

std::string EncodeScoreRequest(const ScoreRequestWire& req) {
  uint64_t deadline_us = kNoDeadlineUs;
  if (req.deadline_s >= 0.0) {
    // Round down: a truncated budget can only make the server *more*
    // conservative about an almost-spent deadline, never less. A budget of
    // 2^64 us or more (+inf included) has no uint64 value — the cast would
    // be undefined — so it saturates just below the no-deadline sentinel.
    const double us = req.deadline_s * 1e6;
    deadline_us = us < 0x1p64 ? static_cast<uint64_t>(us) : kNoDeadlineUs - 1;
  }
  return ByteWriter()
      .U64(req.epoch)
      .U64(deadline_us)
      .I32(req.txn_node)
      .Release();
}

Result<ScoreRequestWire> DecodeScoreRequest(const void* payload, size_t n) {
  if (n != kScoreRequestBytes) {
    return Status::Corruption("score request payload is " +
                              std::to_string(n) + " bytes, want " +
                              std::to_string(kScoreRequestBytes));
  }
  ByteReader in(payload, n);
  ScoreRequestWire req;
  req.epoch = in.U64();
  const uint64_t deadline_us = in.U64();
  req.deadline_s = deadline_us == kNoDeadlineUs
                       ? -1.0
                       : static_cast<double>(deadline_us) * 1e-6;
  req.txn_node = in.I32();
  return req;
}

std::string EncodeScoreReply(const ScoreReplyWire& reply) {
  ByteWriter out;
  out.U32(static_cast<uint32_t>(reply.status.code()));
  out.F64(reply.response.score).I64(reply.response.imputed_rows);
  out.F64(reply.response.latency_s).F64(reply.response.deadline_slack_s);
  out.U8(reply.response.degraded ? 1 : 0);
  out.U8(reply.response.from_prefilter ? 1 : 0);
  out.Str(reply.status.message());
  return out.Release();
}

Result<ScoreReplyWire> DecodeScoreReply(const void* payload, size_t n) {
  ByteReader in(payload, n);
  const uint32_t code = in.U32();
  ScoreReplyWire reply;
  reply.response.score = in.F64();
  reply.response.imputed_rows = in.I64();
  reply.response.latency_s = in.F64();
  reply.response.deadline_slack_s = in.F64();
  reply.response.degraded = in.U8() != 0;
  reply.response.from_prefilter = in.U8() != 0;
  std::string msg = in.Str();
  if (!in.ok() || in.remaining() != 0) {
    return Status::Corruption("score reply payload of " + std::to_string(n) +
                              " bytes is truncated or disagrees with its "
                              "message length");
  }
  XF_RETURN_IF_ERROR(StatusFromWire(code, std::move(msg), &reply.status));
  return reply;
}

std::string EncodeHealth(const HealthWire& health) {
  return ByteWriter()
      .U64(health.generation)
      .I64(health.requests_served)
      .Release();
}

Result<HealthWire> DecodeHealth(const void* payload, size_t n) {
  if (n != kHealthBytes) {
    return Status::Corruption("health payload is " + std::to_string(n) +
                              " bytes, want " + std::to_string(kHealthBytes));
  }
  ByteReader in(payload, n);
  HealthWire health;
  health.generation = in.U64();
  health.requests_served = in.I64();
  return health;
}

Status StatusFromWire(uint32_t code, std::string message, Status* out) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      *out = Status::OK();
      return Status::OK();
    case StatusCode::kInvalidArgument:
      *out = Status::InvalidArgument(std::move(message));
      return Status::OK();
    case StatusCode::kNotFound:
      *out = Status::NotFound(std::move(message));
      return Status::OK();
    case StatusCode::kAlreadyExists:
      *out = Status::AlreadyExists(std::move(message));
      return Status::OK();
    case StatusCode::kIoError:
      *out = Status::IoError(std::move(message));
      return Status::OK();
    case StatusCode::kCorruption:
      *out = Status::Corruption(std::move(message));
      return Status::OK();
    case StatusCode::kOutOfRange:
      *out = Status::OutOfRange(std::move(message));
      return Status::OK();
    case StatusCode::kFailedPrecondition:
      *out = Status::FailedPrecondition(std::move(message));
      return Status::OK();
    case StatusCode::kInternal:
      *out = Status::Internal(std::move(message));
      return Status::OK();
    case StatusCode::kUnavailable:
      *out = Status::Unavailable(std::move(message));
      return Status::OK();
    case StatusCode::kDeadlineExceeded:
      *out = Status::DeadlineExceeded(std::move(message));
      return Status::OK();
  }
  return Status::Corruption("unknown status code " + std::to_string(code) +
                            " on the wire");
}

}  // namespace xfraud::serve
