#include "xfraud/dist/rendezvous.h"

#include <errno.h>
#include <sys/socket.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "xfraud/common/frame.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/rng.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/obs/registry.h"

namespace xfraud::dist {

std::string Endpoint::ToString() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

Result<Endpoint> ParseEndpoint(std::string_view spec) {
  Endpoint ep;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = std::string(spec.substr(5));
    if (ep.path.empty()) {
      return Status::InvalidArgument("unix endpoint needs a path");
    }
    return ep;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    std::string_view rest = spec.substr(4);
    std::string_view::size_type colon = rest.rfind(':');
    if (colon == std::string_view::npos || colon + 1 >= rest.size()) {
      return Status::InvalidArgument(
          "tcp endpoint must be tcp:<host>:<port>, got " + std::string(spec));
    }
    ep.kind = Endpoint::Kind::kTcp;
    ep.host = std::string(rest.substr(0, colon));
    int port = 0;
    for (char c : rest.substr(colon + 1)) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("tcp endpoint port must be numeric");
      }
      port = port * 10 + (c - '0');
      if (port > 65535) {
        return Status::InvalidArgument("tcp endpoint port out of range");
      }
    }
    ep.port = static_cast<uint16_t>(port);
    return ep;
  }
  return Status::InvalidArgument(
      "endpoint must start with unix: or tcp:, got " + std::string(spec));
}

RendezvousHost::RendezvousHost(UniqueFd listener, int world)
    : listener_(std::move(listener)), world_(world) {}

RendezvousHost::~RendezvousHost() = default;

Result<std::unique_ptr<RendezvousHost>> RendezvousHost::Create(
    const Endpoint& ep, int world) {
  XF_CHECK(world >= 1);
  Result<UniqueFd> listener = ListenOn(ep, nullptr);
  if (!listener.ok()) return listener.status();
  return std::make_unique<RendezvousHost>(std::move(listener).value(), world);
}

Result<Endpoint> RendezvousHost::Exchange(const Endpoint& rank0_ring,
                                          uint64_t generation,
                                          const Deadline& deadline,
                                          Clock* clock) {
  obs::Registry::Global().counter("dist/comm/rendezvous_rounds")->Increment();
  std::vector<std::unique_ptr<UniqueFd>> conns(
      static_cast<size_t>(world_));  // per joining rank
  std::vector<Endpoint> rings(static_cast<size_t>(world_));
  rings[0] = rank0_ring;
  int joined = 0;
  while (joined < world_ - 1) {
    Result<UniqueFd> accepted =
        AcceptWithDeadline(listener_.get(), deadline, clock);
    if (!accepted.ok()) return accepted.status();
    // A malformed or truncated join (e.g. a stray dial from a process that
    // died mid-handshake) is dropped; the real joiner retries.
    Result<FrameHeader> join =
        RecvFrameHeader(accepted.value().get(), deadline, clock);
    if (!join.ok()) {
      if (join.status().IsDeadlineExceeded()) return join.status();
      continue;
    }
    if (join.value().type != FrameType::kJoin) continue;
    const uint32_t rank = join.value().rank;
    if (rank == 0 || rank >= static_cast<uint32_t>(world_)) continue;
    std::string spec(join.value().payload_bytes, '\0');
    if (!spec.empty()) {
      Status got = RecvAllBytes(accepted.value().get(), spec.data(),
                                spec.size(), deadline, clock);
      if (!got.ok()) {
        if (got.IsDeadlineExceeded()) return got;
        continue;
      }
    }
    // A CRC-damaged join is dropped like any other malformed one; the real
    // joiner's retry dial supplies a clean frame.
    if (!VerifyFramePayload(join.value(), spec.data(), spec.size()).ok()) {
      continue;
    }
    Result<Endpoint> ring = ParseEndpoint(spec);
    if (!ring.ok()) continue;
    // Duplicate rank: a restarted worker raced its own dead predecessor
    // connection — latest join wins.
    if (conns[rank] == nullptr) ++joined;
    conns[rank] = std::make_unique<UniqueFd>(std::move(accepted).value());
    rings[rank] = ring.value();
  }
  // Everyone is here: assign each joiner its ring successor.
  for (int rank = 1; rank < world_; ++rank) {
    const Endpoint& succ = rings[static_cast<size_t>((rank + 1) % world_)];
    const std::string spec = succ.ToString();
    FrameHeader assign;
    assign.type = FrameType::kAssign;
    assign.rank = static_cast<uint32_t>(rank);
    assign.seq = generation;
    Status sent =
        SendFrame(conns[static_cast<size_t>(rank)]->get(), assign,
                  spec.data(), spec.size(), deadline, clock);
    if (!sent.ok()) return sent;
  }
  return rings[static_cast<size_t>(world_ > 1 ? 1 : 0)];
}

void RendezvousHost::Close() {
  // The fd stays open until destruction, so an Exchange polling it on
  // another thread never sees it reused; shutdown() wakes that poll.
  ::shutdown(listener_.get(), SHUT_RDWR);
  // Dials queued before the shutdown would wait for an assignment that
  // never comes: accept and drop them. No new dial can queue any more.
  for (;;) {
    UniqueFd queued(::accept(listener_.get(), nullptr, nullptr));
    if (!queued.valid() && errno != EINTR) return;
  }
}

Result<Endpoint> JoinRendezvous(const Endpoint& host, int rank, int world,
                                const Endpoint& my_ring, uint64_t generation,
                                const Deadline& deadline,
                                const RetryPolicy& connect_retry,
                                Clock* clock, uint64_t* host_generation) {
  XF_CHECK(rank >= 1 && rank < world);
  RetryPolicy policy = connect_retry;
  policy.clock = clock;
  const uint64_t jitter_seed = Rng::StreamSeed(
      generation, static_cast<uint64_t>(rank) + 0x52445A56ULL);  // "RDZV"
  UniqueFd conn;
  // The host may not be listening yet (process start order is arbitrary)
  // or may be busy finishing the previous generation; connect refusals are
  // IoError and therefore retried with backoff.
  Status dialed = RetryWithBackoff(policy, jitter_seed, [&]() -> Status {
    if (deadline.Expired()) {
      return Status::DeadlineExceeded("rendezvous join timed out");
    }
    Result<UniqueFd> fd = DialEndpoint(host, deadline, clock);
    if (!fd.ok()) return fd.status();
    conn = std::move(fd).value();
    return Status::OK();
  });
  if (!dialed.ok()) return dialed;

  const std::string spec = my_ring.ToString();
  FrameHeader join;
  join.type = FrameType::kJoin;
  join.rank = static_cast<uint32_t>(rank);
  join.seq = generation;
  XF_RETURN_IF_ERROR(SendFrame(conn.get(), join, spec.data(), spec.size(),
                               deadline, clock));

  Result<FrameHeader> assign = RecvFrameHeader(conn.get(), deadline, clock);
  if (!assign.ok()) return assign.status();
  if (assign.value().type != FrameType::kAssign ||
      assign.value().rank != static_cast<uint32_t>(rank)) {
    return Status::Corruption("rendezvous: unexpected assignment frame");
  }
  std::string succ_spec(assign.value().payload_bytes, '\0');
  if (!succ_spec.empty()) {
    XF_RETURN_IF_ERROR(RecvAllBytes(conn.get(), succ_spec.data(),
                                    succ_spec.size(), deadline, clock));
  }
  XF_RETURN_IF_ERROR(
      VerifyFramePayload(assign.value(), succ_spec.data(), succ_spec.size()));
  if (host_generation != nullptr) {
    *host_generation = assign.value().seq;
  }
  return ParseEndpoint(succ_spec);
}

}  // namespace xfraud::dist
