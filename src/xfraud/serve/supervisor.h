#ifndef XFRAUD_SERVE_SUPERVISOR_H_
#define XFRAUD_SERVE_SUPERVISOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xfraud/common/clock.h"
#include "xfraud/common/fd.h"
#include "xfraud/common/status.h"
#include "xfraud/core/detector.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/serve/router.h"
#include "xfraud/serve/scoring_service.h"
#include "xfraud/serve/shard_server.h"

namespace xfraud::serve {

struct SupervisorOptions {
  /// Tier directory: holds the S×R cell WALs ("cell_<s>_<r>.log") and the
  /// servers' unix socket endpoints ("s<s>_r<r>.sock"). Created if missing.
  /// Keep it short — AF_UNIX paths cap around ~100 chars.
  std::string dir;
  int num_shards = 2;
  int num_replicas = 2;
  /// Detector shape + seed every server initializes from (feature_dim
  /// comes from the ingested cells); identical across servers by
  /// construction, which is what makes replica scores bit-identical.
  core::DetectorConfig detector;
  uint64_t model_seed = 7;
  ServiceOptions service;
  /// Chaos profile: kill_server / corrupt_frame bite in this tier.
  fault::FaultPlan plan;
  /// Paces the monitor loop only; servers always run on real time in their
  /// own processes.
  Clock* clock = nullptr;
};

/// The serving tier's process supervisor (DESIGN.md §16): prepares the cell
/// WALs (one cell ingested and published, its sealed WAL copied to the
/// others), forks one shard-server process per grid position, and babysits
/// them — reaping signal deaths via waitpid, probing liveness with kHealth
/// pings, SIGKILLing the unresponsive, and respawning the dead with the
/// planned kill suppressed so a chaos kill fires exactly once. A respawned
/// server recovers purely from its WAL at the pinned epoch, so the tier's
/// scores are unchanged across any number of deaths.
///
/// State machine per server:
///   FORKED -> SERVING -(SIGKILL/crash)-> DEAD -(respawn, budget left)->
///   SERVING -(budget spent)-> FAILED;  SERVING -(Stop: drain ack)-> DRAINED
class Supervisor {
 public:
  /// Ingests `g` into cell (0,0) of a fresh WAL, publishes the serving
  /// epoch, copies that WAL to every other cell (replacing any old one),
  /// forks the servers, and starts the monitor. `g` is only used before the
  /// forks — children never see it; they replay their WALs.
  static Result<std::unique_ptr<Supervisor>> Start(
      const graph::HeteroGraph& g, const SupervisorOptions& options);

  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Orderly shutdown: stops the monitor, sends every live server kDrain,
  /// awaits its ack and exit, SIGKILLs stragglers. Idempotent.
  Status Stop();

  /// Router configuration for this tier: endpoints, serving epoch, clock,
  /// and the supervisor-owned wire-fault injector.
  RouterOptions MakeRouterOptions() const;

  /// The epoch every request is served at (published during Start).
  uint64_t epoch() const { return epoch_; }
  int num_shards() const { return options_.num_shards; }
  int num_replicas() const { return options_.num_replicas; }
  dist::Endpoint endpoint(int shard, int replica) const;

  /// Chaos observability: total re-forks, and the grid index
  /// (shard * R + replica) of each observed signal death in order.
  int restarts() const;
  std::vector<int> kills_observed() const;

  /// The router-side fault injector holding the tier's deterministic wire
  /// frame counter (null plan -> still valid, injects nothing).
  fault::FaultInjector* injector() const { return injector_.get(); }

 private:
  struct Server {
    pid_t pid = -1;
    int restarts = 0;
    uint64_t generation = 1;
    int health_failures = 0;
    UniqueFd health_conn;
    uint64_t next_nonce = 0;
    bool failed = false;  // restart budget spent
  };

  explicit Supervisor(SupervisorOptions options);
  Status Init(const graph::HeteroGraph& g);
  ShardServerOptions ServerOptions(int shard, int replica,
                                   uint64_t generation,
                                   bool suppress_kill) const;
  /// Forks grid slot `index`; child runs RunShardServer and _exits.
  Result<pid_t> ForkServer(int index, uint64_t generation,
                           bool suppress_kill);
  void MonitorLoop();
  /// One waitpid sweep; respawns signal deaths. Returns true if any child
  /// state changed.
  bool ReapOnce();
  void PingServers();

  SupervisorOptions options_;
  Clock* clock_;
  uint64_t epoch_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;

  mutable std::mutex mu_;
  std::vector<Server> servers_;  // [shard * num_replicas + replica]
  int restarts_total_ = 0;
  std::vector<int> kills_observed_;

  std::thread monitor_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
};

}  // namespace xfraud::serve

#endif  // XFRAUD_SERVE_SUPERVISOR_H_
