#ifndef XFRAUD_SERVE_ROUTER_H_
#define XFRAUD_SERVE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "xfraud/common/breaker.h"
#include "xfraud/common/clock.h"
#include "xfraud/common/fd.h"
#include "xfraud/common/status.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/obs/metrics.h"
#include "xfraud/serve/scoring_service.h"

namespace xfraud::serve {

struct RouterOptions {
  int num_shards = 2;
  int num_replicas = 2;
  /// Shard-server endpoints, indexed [shard * num_replicas + replica].
  std::vector<dist::Endpoint> endpoints;
  /// Published KV epoch stamped into every request; all servers pinned it
  /// at startup, so every score is a pure function of this snapshot.
  uint64_t epoch = 0;
  /// Default per-request wall budget; <= 0 disables deadlines. The
  /// *remaining* budget travels in each request frame, so a server never
  /// scores a request whose caller has already given up on it.
  double deadline_s = 0.25;
  /// Wire-fault source (corrupt_frame; not owned, may be null). The router
  /// is the tier's only frame *sender* on the request path, so it owns the
  /// deterministic frame count the plan's index refers to.
  fault::FaultInjector* injector = nullptr;
  Clock* clock = nullptr;
};

/// The serving tier's frontend (DESIGN.md §16): routes each request to its
/// shard (txn_node % num_shards), with a circuit breaker per server process
/// (common/breaker.h, the same policy as the KV replicas), deadline
/// propagation on the wire, and failover to a replica process when the
/// primary dies mid-request. It never duplicates a request onto a second
/// replica.
///
/// Not thread-safe: backends hold cached connections with in-flight
/// request/reply pairing. Use one Router per thread (scores are
/// bit-identical across routers, so this costs only sockets).
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Scores under the default deadline. Error statuses mirror
  /// ScoringService::Score, plus Unavailable when every replica of the
  /// shard is dead or breaker-open past the attempt budget.
  Result<ScoreResponse> Score(int64_t request_id, int32_t txn_node);
  /// Same with an explicit budget (<= 0: no deadline).
  Result<ScoreResponse> Score(int64_t request_id, int32_t txn_node,
                              double deadline_s);

 private:
  struct Backend {
    explicit Backend(Clock* clock) : breaker(clock) {}
    UniqueFd conn;
    CircuitBreaker breaker;
  };

  Backend& backend(int shard, int replica) {
    return *backends_[static_cast<size_t>(shard) * options_.num_replicas +
                      static_cast<size_t>(replica)];
  }
  /// Feeds b's breaker; counts an open in serve/router/breaker_opens.
  void Record(Backend* b, bool healthy);
  /// Dials if not connected; IoError/Unavailable on failure.
  Status EnsureConnected(int shard, int replica, const Deadline& deadline);
  /// Sends one score request (applying any planned wire corruption).
  Status SendRequest(int shard, int replica, int64_t request_id,
                     int32_t txn_node, const Deadline& deadline);
  /// One full request/reply attempt against (shard, replica).
  Result<ScoreResponse> Attempt(int shard, int replica, int64_t request_id,
                                int32_t txn_node, const Deadline& deadline,
                                bool* retryable);

  RouterOptions options_;
  Clock* clock_;
  std::vector<std::unique_ptr<Backend>> backends_;

  obs::Counter* requests_;
  obs::Counter* ok_;
  obs::Counter* failovers_;
  obs::Counter* breaker_opens_;
  obs::Counter* corrupt_retries_;
  obs::Counter* redials_;
};

}  // namespace xfraud::serve

#endif  // XFRAUD_SERVE_ROUTER_H_
