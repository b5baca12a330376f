#include "xfraud/serve/shard_server.h"

#include <memory>
#include <utility>
#include <vector>

#include "xfraud/common/fd.h"
#include "xfraud/common/frame.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/rng.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/snapshot.h"
#include "xfraud/obs/registry.h"
#include "xfraud/serve/wire.h"

namespace xfraud::serve {

namespace {

/// Per-frame I/O budget once a header starts arriving; no caller tunes it.
constexpr double kIoTimeoutS = 30.0;

/// Everything a live server needs beyond its options.
struct ServerState {
  ShardServerOptions options;
  Clock* clock = nullptr;
  uint32_t rank = 0;  // shard * num_replicas is unknown here; shard<<16|replica
  ScoringService* service = nullptr;
  fault::FaultInjector* injector = nullptr;
  ShardServerStats stats;
  int64_t score_requests_seen = 0;
};

Status ReplyScore(int fd, const ServerState& state, uint64_t seq,
                  const ScoreReplyWire& reply, const Deadline& deadline) {
  FrameHeader header;
  header.type = FrameType::kScoreReply;
  header.rank = state.rank;
  header.seq = seq;
  const std::string payload = EncodeScoreReply(reply);
  return dist::SendFrame(fd, header, payload.data(), payload.size(), deadline,
                         state.clock);
}

/// Handles one frame already read (header + CRC-verified payload) on `fd`.
/// Returns false when the connection should be dropped; sets *drain when the
/// server should exit its loop.
bool HandleFrame(int fd, ServerState* state, const FrameHeader& header,
                 const std::vector<unsigned char>& payload, bool* drain) {
  const Deadline io = Deadline::After(state->clock, kIoTimeoutS);
  switch (header.type) {
    case FrameType::kScoreRequest: {
      const int64_t request_index = state->score_requests_seen++;
      if (!state->options.suppress_kill && state->injector != nullptr &&
          state->injector->ShouldKillServer(state->options.replica,
                                            request_index)) {
        // The planned machine loss: die mid-request, reply to no one. The
        // supervisor's waitpid sees the signal and respawns this rank.
        fault::KillCurrentProcess();
      }
      Result<ScoreRequestWire> req =
          DecodeScoreRequest(payload.data(), payload.size());
      if (!req.ok()) {
        ScoreReplyWire reply;
        reply.status = req.status();
        return ReplyScore(fd, *state, header.seq, reply, io).ok();
      }
      ScoreReplyWire reply;
      if (req.value().deadline_s >= 0.0 && req.value().deadline_s <= 0.0) {
        // The budget was spent in flight; reject without touching the
        // store — a stale score must never be computed, let alone sent.
        ++state->stats.deadline_rejects;
        obs::Registry::Global()
            .counter("serve/server/deadline_rejects")
            ->Increment();
        reply.status = Status::DeadlineExceeded(
            "request deadline expired before the server saw it");
      } else {
        Result<ScoreResponse> scored = state->service->ScoreAt(
            static_cast<int64_t>(header.seq), req.value().txn_node,
            req.value().deadline_s, req.value().epoch);
        if (scored.ok()) {
          reply.response = scored.value();
        } else {
          reply.status = scored.status();
          if (scored.status().IsDeadlineExceeded()) {
            ++state->stats.deadline_rejects;
          }
        }
      }
      ++state->stats.requests_served;
      obs::Registry::Global().counter("serve/server/requests")->Increment();
      return ReplyScore(fd, *state, header.seq, reply, io).ok();
    }
    case FrameType::kHealth: {
      FrameHeader pong;
      pong.type = FrameType::kHealth;
      pong.rank = state->rank;
      pong.seq = header.seq;  // echo the nonce
      HealthWire health;
      health.generation = state->options.generation;
      health.requests_served = state->stats.requests_served;
      const std::string body = EncodeHealth(health);
      return dist::SendFrame(fd, pong, body.data(), body.size(), io,
                             state->clock)
          .ok();
    }
    case FrameType::kDrain: {
      FrameHeader ack;
      ack.type = FrameType::kDrain;
      ack.rank = state->rank;
      ack.seq = header.seq;
      // Best-effort ack; the drain proceeds even if the peer vanished.
      (void)dist::SendFrame(fd, ack, nullptr, 0, io, state->clock);
      *drain = true;
      return true;
    }
    default:
      // A frame type this server does not speak on an otherwise intact
      // stream: drop the connection, keep serving others.
      return false;
  }
}

}  // namespace

Result<ShardServerStats> RunShardServer(const ShardServerOptions& options) {
  Clock* clock = options.clock != nullptr ? options.clock : Clock::Real();

  // State recovery is nothing but WAL replay: Open truncates any torn tail
  // and rebuilds the index, and the latest published epoch pins the exact
  // snapshot the tier serves — a respawned server is bit-identical to its
  // predecessor.
  Result<std::unique_ptr<kv::LogKvStore>> store =
      kv::LogKvStore::Open(options.cell_path);
  if (!store.ok()) return store.status();
  Result<kv::SnapshotHandle> pin =
      kv::SnapshotHandle::PinLatest(store.value().get());
  if (!pin.ok()) return pin.status();

  kv::FeatureStore features(store.value().get());
  Result<int64_t> feature_dim = features.FeatureDim(pin.value().epoch());
  if (!feature_dim.ok()) return feature_dim.status();

  core::DetectorConfig config = options.detector;
  config.feature_dim = static_cast<int>(feature_dim.value());
  Rng model_rng(options.model_seed);
  core::XFraudDetector detector(config, &model_rng);

  ServiceOptions service_options = options.service;
  service_options.clock = clock;
  ScoringService service(&detector, &features, service_options);

  fault::FaultInjector injector(options.fault_plan);

  ServerState state;
  state.options = options;
  state.clock = clock;
  state.rank = static_cast<uint32_t>(options.shard) << 16 |
               static_cast<uint32_t>(options.replica);
  state.service = &service;
  state.injector = options.fault_plan.any() ? &injector : nullptr;

  Result<UniqueFd> listener = dist::ListenOn(options.endpoint, nullptr);
  if (!listener.ok()) return listener.status();

  std::vector<UniqueFd> conns;
  bool drain = false;
  while (!drain) {
    std::vector<int> fds;
    fds.reserve(conns.size() + 1);
    fds.push_back(listener.value().get());
    for (const UniqueFd& c : conns) fds.push_back(c.get());
    const Deadline idle = Deadline::After(clock, options.idle_timeout_s);
    Result<int> ready = dist::WaitAnyReadable(fds, idle, clock);
    if (!ready.ok()) {
      if (ready.status().IsDeadlineExceeded()) {
        return Status::FailedPrecondition(
            "shard server idled out with no supervisor traffic");
      }
      return ready.status();
    }
    if (ready.value() == 0) {
      const Deadline accept_deadline = Deadline::After(clock, kIoTimeoutS);
      Result<UniqueFd> accepted = dist::AcceptWithDeadline(
          listener.value().get(), accept_deadline, clock);
      if (accepted.ok()) conns.push_back(std::move(accepted).value());
      continue;
    }
    const size_t conn_index = static_cast<size_t>(ready.value() - 1);
    const int fd = conns[conn_index].get();
    const Deadline io = Deadline::After(clock, kIoTimeoutS);
    Result<FrameHeader> header = dist::RecvFrameHeader(fd, io, clock);
    if (!header.ok()) {
      // EOF, reset, or a desynced stream: this connection is done.
      conns.erase(conns.begin() + static_cast<long>(conn_index));
      continue;
    }
    std::vector<unsigned char> payload;
    Status got =
        dist::RecvFramePayload(fd, header.value(), &payload, io, clock);
    if (got.IsCorruption()) {
      // Wire damage (a corrupt_frame bit flip lands here): the payload bytes
      // all arrived — the stream is still frame-aligned — but the CRC says
      // they are not the bytes the sender sealed. Refuse to act on them;
      // the seq-echoing Corruption reply tells the router to resend.
      ++state.stats.corrupt_frames_rejected;
      obs::Registry::Global()
          .counter("serve/server/corrupt_frames_rejected")
          ->Increment();
      ScoreReplyWire reply;
      reply.status = Status::Corruption("request payload failed CRC");
      if (!ReplyScore(fd, state, header.value().seq, reply, io).ok()) {
        conns.erase(conns.begin() + static_cast<long>(conn_index));
      }
      continue;
    }
    if (!got.ok()) {
      conns.erase(conns.begin() + static_cast<long>(conn_index));
      continue;
    }
    if (!HandleFrame(fd, &state, header.value(), payload, &drain)) {
      conns.erase(conns.begin() + static_cast<long>(conn_index));
    }
  }
  state.stats.drained = true;
  return state.stats;
}

}  // namespace xfraud::serve
