#ifndef XFRAUD_DIST_DISTRIBUTED_H_
#define XFRAUD_DIST_DISTRIBUTED_H_

#include <cstdint>
#include <vector>

#include "xfraud/common/retry.h"
#include "xfraud/core/gnn_model.h"
#include "xfraud/data/generator.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/sample/sampler.h"
#include "xfraud/train/trainer.h"

namespace xfraud::dist {

/// Stream tags of the distributed run's independent sampling roots
/// (per-rank training streams and the rank-0 evaluation stream).
inline constexpr uint64_t kDistSampleTag = 0x44495354ULL;  // "DIST"
inline constexpr uint64_t kDistEvalTag = 0x4456414CULL;    // "DVAL"

/// Options of distributed data-parallel training (paper §3.3, §4), shared by
/// the threaded driver (DistributedTrainer) and the multi-process worker.
struct DistributedOptions {
  int num_workers = 8;    // kappa
  int num_clusters = 128;  // PIC subgraphs before grouping
  /// Shared training protocol. train.num_sample_workers /
  /// train.prefetch_depth configure each replica's BatchLoader pipeline
  /// (every replica prefetches batches from its partition with that many
  /// sampler threads).
  train::TrainOptions train;
  /// Deterministic chaos plan. Every rank builds its own FaultInjector from
  /// it: kill_worker=<r>@<epoch>:<step> kills rank r there (a ring shutdown
  /// on a thread, a SIGKILL in a process), and with kv_backed_loaders the KV
  /// fault rates apply to every rank's feature reads.
  fault::FaultPlan fault_plan;
  /// Serve each worker's batch features from a per-worker KV-backed
  /// FeatureStore built over its partition (the paper's §3.3.3 serving
  /// topology: one KV loader per worker; partitions use local node ids, so
  /// stores cannot be shared). Required for KV fault injection to reach the
  /// distributed path.
  bool kv_backed_loaders = false;
  /// Retry policy of every worker's feature reads (see common/retry.h).
  /// Defaults to a single attempt; raise max_attempts to ride out injected
  /// or real transient KV errors.
  RetryPolicy kv_retry;
};

/// Per-epoch record of the distributed run. Every time is measured.
struct DistributedEpoch {
  int epoch = 0;
  double train_loss = 0.0;
  double val_auc = 0.0;
  /// Rank 0's wall-clock of this epoch, evaluation and recovery included.
  double wall_seconds = 0.0;
  /// Slowest rank's neighbourhood-sampling cost this epoch (measured in
  /// the BatchLoader, wherever it ran).
  double max_worker_sample_seconds = 0.0;
  /// Slowest rank's gradient-compute (forward+backward) cost this epoch.
  double max_worker_compute_seconds = 0.0;
  /// Slowest rank's wall time inside collectives this epoch
  /// (SocketCommunicator::comm_seconds(), waiting for peers included).
  double measured_comm_seconds = 0.0;
  /// Whether a rank died this epoch, so every rank rolled back to the
  /// epoch-start image and re-ran it, and what the rollback and regroup
  /// cost in wall-clock seconds.
  bool restarted = false;
  double recovery_seconds = 0.0;
};

struct DistributedResult {
  std::vector<DistributedEpoch> history;
  double best_val_auc = 0.0;
  double mean_wall_epoch_seconds = 0.0;
  /// Node counts of each worker's partition (balance diagnostics).
  std::vector<int64_t> partition_nodes;
  /// Fraction of directed edges cut by the partitioning.
  double edge_cut_fraction = 0.0;
};

/// DistributedDataParallel training on threads (paper §3.3.2): `num_workers`
/// model replicas with identical initial weights, one OS thread each, every
/// thread running the per-rank loop (TrainRank, dist/worker.h) on the same
/// SocketCommunicator ring that process ranks use, over unix sockets in a
/// temp dir that is removed when Train returns. Each rank trains on its own
/// PIC partition's induced subgraph; gradients are averaged by an
/// all-reduce every step and the identical update is applied to every
/// replica, keeping them synchronized — exactly PyTorch DDP's semantics.
/// Restrained neighbourhoods reproduce the paper's quality/efficiency
/// trade-off (§4.1: more machines, faster epochs, lower AUC).
///
/// A planned kill_worker shuts the rank's ring down; every rank then rolls
/// back to its in-memory epoch-start image, reconnects at the next
/// generation, and re-runs the epoch, so the run stays bit-identical to a
/// fault-free one. A rank that fails for good closes the rendezvous, so the
/// others fail at once instead of waiting for it.
class DistributedTrainer {
 public:
  /// `replicas` must be identically-initialized models (same seed).
  DistributedTrainer(std::vector<core::GnnModel*> replicas,
                     const sample::Sampler* sampler,
                     DistributedOptions options);

  /// Partitions ds.graph, trains, and evaluates replica 0 against the
  /// global validation split each epoch.
  DistributedResult Train(const data::SimDataset& ds);

 private:
  std::vector<core::GnnModel*> replicas_;
  const sample::Sampler* sampler_;
  DistributedOptions options_;
};

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_DISTRIBUTED_H_
