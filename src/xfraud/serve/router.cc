#include "xfraud/serve/router.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "xfraud/common/frame.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/retry.h"
#include "xfraud/common/rng.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/obs/registry.h"
#include "xfraud/serve/wire.h"

namespace xfraud::serve {

namespace {

constexpr uint64_t kRouterJitterTag = 0x524F5554ULL;  // "ROUT"

// Budgets no caller tunes: sends per request (across failover and
// corruption retries) before the router gives up with Unavailable, the
// budget of one dial, and the backoff between attempts. Every sleep is
// clamped to the request's remaining wire deadline, so a retry can never
// outlive the budget it is retrying under.
constexpr int kMaxAttempts = 8;
constexpr double kConnectTimeoutS = 5.0;
const RetryPolicy kRetry{.max_attempts = 8,
                         .initial_backoff_s = 0.001,
                         .max_backoff_s = 0.05,
                         .deadline_s = 60.0};

}  // namespace

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()) {
  XF_CHECK(options_.num_shards >= 1 && options_.num_replicas >= 1);
  XF_CHECK(options_.endpoints.size() ==
           static_cast<size_t>(options_.num_shards) *
               static_cast<size_t>(options_.num_replicas));
  backends_.reserve(options_.endpoints.size());
  for (size_t i = 0; i < options_.endpoints.size(); ++i) {
    backends_.push_back(std::make_unique<Backend>(clock_));
  }
  auto& r = obs::Registry::Global();
  requests_ = r.counter("serve/router/requests");
  ok_ = r.counter("serve/router/ok");
  failovers_ = r.counter("serve/router/failovers");
  breaker_opens_ = r.counter("serve/router/breaker_opens");
  corrupt_retries_ = r.counter("serve/router/corrupt_retries");
  redials_ = r.counter("serve/router/redials");
}

Router::~Router() = default;

void Router::Record(Backend* b, bool healthy) {
  if (b->breaker.Record(healthy) == CircuitBreaker::Transition::kOpened) {
    breaker_opens_->Increment();
  }
}

Status Router::EnsureConnected(int shard, int replica,
                               const Deadline& deadline) {
  Backend& b = backend(shard, replica);
  if (b.conn.valid()) return Status::OK();
  const dist::Endpoint& ep =
      options_.endpoints[static_cast<size_t>(shard) * options_.num_replicas +
                         static_cast<size_t>(replica)];
  // A respawning server needs a moment to replay its WAL and rebind; dial
  // refusals are IoError and retried with backoff inside the budget.
  RetryPolicy policy = kRetry;
  policy.clock = clock_;
  policy.deadline_s = std::min(kConnectTimeoutS, deadline.RemainingSeconds());
  const uint64_t seed = Rng::StreamSeed(
      kRouterJitterTag, static_cast<uint64_t>(shard) << 16 |
                            static_cast<uint64_t>(replica));
  Status dialed = RetryWithBackoff(policy, seed, [&]() -> Status {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("router: dial budget spent");
    }
    const Deadline one = Deadline::After(
        clock_,
        std::min(kConnectTimeoutS, std::max(0.0, deadline.RemainingSeconds())));
    Result<UniqueFd> fd = dist::DialEndpoint(ep, one, clock_);
    if (!fd.ok()) return fd.status();
    b.conn = std::move(fd).value();
    return Status::OK();
  });
  if (dialed.ok()) redials_->Increment();
  return dialed;
}

Status Router::SendRequest(int shard, int replica, int64_t request_id,
                           int32_t txn_node, const Deadline& deadline) {
  Backend& b = backend(shard, replica);
  ScoreRequestWire req;
  req.epoch = options_.epoch;
  // Deadline propagation: the frame carries the *remaining* budget at send
  // time (clamped at zero — an already-expired request still travels so
  // the server can reject it authoritatively, but it can never be scored).
  req.deadline_s = deadline.unlimited()
                       ? -1.0
                       : std::max(0.0, deadline.RemainingSeconds());
  req.txn_node = txn_node;
  const std::string payload = EncodeScoreRequest(req);

  FrameHeader header;
  header.type = FrameType::kScoreRequest;
  header.rank = static_cast<uint32_t>(shard);
  header.seq = static_cast<uint64_t>(request_id);

  int64_t corrupt_byte = -1;
  if (options_.injector != nullptr) {
    const int64_t frame_index = options_.injector->NextWireFrame();
    if (options_.injector->ShouldCorruptFrame(frame_index)) {
      corrupt_byte =
          options_.injector->CorruptByteFor(frame_index, payload.size());
    }
  }
  return dist::SendFrameCorrupting(b.conn.get(), header, payload.data(),
                                   payload.size(), corrupt_byte, deadline,
                                   clock_);
}

Result<ScoreResponse> Router::Attempt(int shard, int replica,
                                      int64_t request_id, int32_t txn_node,
                                      const Deadline& deadline,
                                      bool* retryable) {
  *retryable = true;
  Backend& primary = backend(shard, replica);
  Status conn = EnsureConnected(shard, replica, deadline);
  if (!conn.ok()) {
    Record(&primary, /*healthy=*/false);
    return conn;
  }
  Status sent = SendRequest(shard, replica, request_id, txn_node, deadline);
  if (!sent.ok()) {
    Record(&primary, /*healthy=*/false);
    primary.conn.Reset();
    return sent;
  }

  std::vector<unsigned char> payload;
  Result<FrameHeader> header =
      dist::RecvFrameHeader(primary.conn.get(), deadline, clock_);
  Status got = header.ok()
                   ? dist::RecvFramePayload(primary.conn.get(), header.value(),
                                            &payload, deadline, clock_)
                   : header.status();
  if (!got.ok()) {
    primary.conn.Reset();
    if (got.IsDeadlineExceeded()) return got;
    // EOF/reset mid-request: the primary died with our request in flight —
    // exactly the failover case. The next attempt tries a replica.
    Record(&primary, /*healthy=*/false);
    return got;
  }
  if (header.value().type != FrameType::kScoreReply ||
      header.value().seq != static_cast<uint64_t>(request_id)) {
    primary.conn.Reset();
    return Status::Corruption("router: reply frame does not match request");
  }
  Result<ScoreReplyWire> reply =
      DecodeScoreReply(payload.data(), payload.size());
  if (!reply.ok()) {
    primary.conn.Reset();
    return reply.status();
  }
  Record(&primary, /*healthy=*/true);
  if (reply.value().status.ok()) {
    return reply.value().response;
  }
  if (reply.value().status.IsCorruption()) {
    // The server rejected OUR request frame as CRC-damaged (a planned
    // corrupt_frame). The connection is healthy; just resend.
    corrupt_retries_->Increment();
    return reply.value().status;
  }
  // An application-level verdict (shed, deadline, not-found) from a healthy
  // server: retrying elsewhere would give the same answer.
  *retryable = false;
  return reply.value().status;
}

Result<ScoreResponse> Router::Score(int64_t request_id, int32_t txn_node) {
  return Score(request_id, txn_node, options_.deadline_s);
}

Result<ScoreResponse> Router::Score(int64_t request_id, int32_t txn_node,
                                    double deadline_s) {
  requests_->Increment();
  const int mod = options_.num_shards;
  const int shard = static_cast<int>(((txn_node % mod) + mod) % mod);
  const Deadline deadline = deadline_s > 0.0
                                ? Deadline::After(clock_, deadline_s)
                                : Deadline();
  Status last = Status::Unavailable("router: no attempt made");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("router: request budget spent after " +
                                      std::to_string(attempt) + " attempts");
    }
    // Replica rotation, skipping breaker-open replicas. The scan stops at
    // the first Admit(), which may take that replica's half-open probe.
    int replica = -1;
    for (int k = 0; k < options_.num_replicas && replica < 0; ++k) {
      const int candidate = (attempt + k) % options_.num_replicas;
      if (backend(shard, candidate).breaker.Admit()) replica = candidate;
    }
    Result<ScoreResponse> scored = Status::Unavailable(
        "router: every replica of shard " + std::to_string(shard) +
        " is breaker-open");
    bool retryable = true;
    if (replica >= 0) {
      if (attempt > 0 && !last.IsCorruption()) failovers_->Increment();
      scored = Attempt(shard, replica, request_id, txn_node, deadline,
                       &retryable);
    }
    if (scored.ok()) {
      ok_->Increment();
      return scored;
    }
    last = scored.status();
    if (last.IsDeadlineExceeded() || !retryable) return last;
    // Backoff before the next attempt, clamped to the remaining wire
    // deadline so a sleep can never outlive the budget it retries under.
    RetryPolicy policy = kRetry;
    policy.clock = clock_;
    internal::BackoffAndSleep(
        policy,
        Rng::StreamSeed(static_cast<uint64_t>(request_id), kRouterJitterTag),
        attempt + 2, deadline.RemainingSeconds());
  }
  return Status::Unavailable("router: attempts exhausted; last error: " +
                             last.ToString());
}

}  // namespace xfraud::serve
