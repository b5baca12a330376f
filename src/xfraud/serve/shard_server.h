#ifndef XFRAUD_SERVE_SHARD_SERVER_H_
#define XFRAUD_SERVE_SHARD_SERVER_H_

#include <cstdint>
#include <string>

#include "xfraud/common/clock.h"
#include "xfraud/common/status.h"
#include "xfraud/core/detector.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/serve/scoring_service.h"

namespace xfraud::serve {

/// One shard-replica's worth of the multi-process serving tier (DESIGN.md
/// §16): a process that owns a LogKvStore cell WAL, a seed-initialized
/// detector, and a ScoringService, and answers XFRM score/health/drain
/// frames on a listening endpoint. Mirrors dist::DistWorkerOptions: the
/// supervisor and a standalone `xfraud_cli serve-worker` must derive
/// identical options or replicas diverge on request zero.
struct ShardServerOptions {
  /// Position in the tier grid. The shard partitions request traffic
  /// (router sends txn_node % num_shards here); replicas within a shard are
  /// failover targets serving bit-identical scores.
  int shard = 0;
  int replica = 0;
  /// LogKvStore WAL backing this cell. On (re)start the server recovers its
  /// state purely by replaying this log and pinning the latest published
  /// epoch — a respawned process serves the exact bytes its predecessor did.
  std::string cell_path;
  /// Where to listen. ListenOn unlinks a stale unix path, so a respawn
  /// rebinds the address its dead predecessor held.
  dist::Endpoint endpoint;
  /// Detector shape; feature_dim is overridden by the cell's metadata so
  /// the model always matches the WAL it serves.
  core::DetectorConfig detector;
  uint64_t model_seed = 7;
  /// Scoring knobs. The request's wire deadline overrides `deadline_s`.
  ServiceOptions service;
  /// Chaos profile (kill_server bites here; KV-level faults do not — this
  /// tier injects at process and wire level, so scores stay bit-identical
  /// to a clean run).
  fault::FaultPlan fault_plan;
  /// True on a respawned process: the planned kill already fired once.
  bool suppress_kill = false;
  /// Supervisor incarnation, echoed in health pongs so the supervisor can
  /// tell a respawned server from a zombie of the old generation.
  uint64_t generation = 0;
  /// Exit with FailedPrecondition when no frame arrives for this long — an
  /// orphan guard so a server whose supervisor died does not linger.
  double idle_timeout_s = 600.0;
  Clock* clock = nullptr;
};

struct ShardServerStats {
  int64_t requests_served = 0;
  /// Frames whose payload failed CRC verification (wire bit flips); each
  /// was answered with a Corruption reply, never scored.
  int64_t corrupt_frames_rejected = 0;
  /// Requests whose wire deadline was already spent on arrival; rejected
  /// with DeadlineExceeded, never scored stale.
  int64_t deadline_rejects = 0;
  /// True when the server exited through an orderly kDrain.
  bool drained = false;
};

/// Runs the server loop to drain or error. Blocking; call in a dedicated
/// process (serve::Supervisor forks these). All socket I/O goes through the
/// dist/ frame transport — this file never touches a raw socket API.
Result<ShardServerStats> RunShardServer(const ShardServerOptions& options);

}  // namespace xfraud::serve

#endif  // XFRAUD_SERVE_SHARD_SERVER_H_
