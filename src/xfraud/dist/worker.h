#ifndef XFRAUD_DIST_WORKER_H_
#define XFRAUD_DIST_WORKER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/dist/distributed.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/dist/socket_transport.h"

namespace xfraud::dist {

/// What the per-rank DDP loop (TrainRank) reads. The threaded driver
/// (DistributedTrainer) fills `rank`, `world` and `dist` for each thread.
struct RankOptions {
  int rank = 0;
  int world = 1;
  /// Training protocol (num_workers must equal `world`). In a process,
  /// dist.fault_plan's kill_worker=<rank>@<epoch>:<step> SIGKILLs it at
  /// that point.
  DistributedOptions dist;
  /// Suppress the planned kill (set by the launcher on the restarted
  /// process so the kill fires exactly once).
  bool suppress_kill = false;
  /// Directory of the per-rank checkpoints (`rank-<r>.ckpt`), rank 0's
  /// result file (`result.bin`) and final model (`final_model.ckpt`).
  /// Empty (the threaded driver) keeps the epoch-start image in memory only.
  std::string checkpoint_dir;
};

/// One rank run as a whole socket-backed process (RunDistWorker): the loop's
/// options plus what the process builds around it.
struct DistWorkerOptions : RankOptions {
  /// Rendezvous endpoint spec (`unix:<path>` or `tcp:host:port`). Rank 0
  /// hosts it; everyone else dials it.
  std::string rendezvous;
  /// Replica architecture + init seed: every rank builds the same model
  /// from Rng(model_seed), which is what keeps replicas synchronized from
  /// step zero.
  core::DetectorConfig detector;
  uint64_t model_seed = 7;
  /// Neighbourhood sampler of the training loaders (evaluation uses a
  /// fixed SageSampler(2, 12)).
  int sampler_hops = 2;
  int sampler_fanout = 8;
  /// Per-collective transport budget (SocketCommOptions::op_timeout_s).
  double op_timeout_s = 60.0;
};

/// Where one rank's ring meets, and what a planned kill does; supplied by
/// the driver that runs the rank.
struct RankTransport {
  /// The ring's rendezvous endpoint.
  Endpoint rendezvous;
  /// Rank 0's host of that rendezvous, owned by the driver and serving every
  /// generation; nullptr on every other rank and for a world of one.
  RendezvousHost* host = nullptr;
  /// Per-collective budget (SocketCommOptions::op_timeout_s).
  double op_timeout_s = 60.0;
  /// Carries out this rank's planned kill_worker on its ring. A process
  /// dies by SIGKILL and never returns; a thread rank shuts its ring down
  /// (the EOF spreads around the ring) and returns, then takes the same
  /// restore-image, next-generation path as every survivor.
  std::function<void(SocketCommunicator* ring)> kill;
};

/// The per-rank DDP loop, shared by threads and processes. Partitions
/// ds.graph (every rank recomputes the same deterministic partition and
/// keeps its own induced subgraph) and connects its SocketCommunicator ring
/// through `transport`, then per epoch: plans its batches with the
/// cursor/shuffle walk, runs forward/backward on `model`, all-reduces the
/// gradients (÷ world), clips and steps, all-reduces the loss, and receives
/// rank 0's validation AUC by Broadcast; early stopping is decided
/// identically on every rank. Same seeds, streams and ascending-rank
/// reduction order everywhere, so a fault-free run is bit-identical whether
/// the ranks are threads or processes.
///
/// The epoch-start image (parameters, optimizer, shuffle state) is kept in
/// memory and, with a checkpoint_dir, also written as the rank's CRC
/// checkpoint, from which a restarted process resumes. On a collective
/// failure the rank restores the image, reconnects its ring at the next
/// generation, and re-runs the epoch (restart-epoch recovery).
///
/// Rank 0 returns the populated DistributedResult; other ranks return an
/// empty one.
Result<DistributedResult> TrainRank(const data::SimDataset& ds,
                                    const RankOptions& options,
                                    core::GnnModel* model,
                                    const sample::Sampler* sampler,
                                    const RankTransport& transport);

/// Runs one rank as this whole process over a SocketCommunicator ring:
/// TrainRank with kill_worker as a real SIGKILL and the rank's CRC
/// checkpoint as its resume image. Rank 0 also writes `result.bin` and
/// `final_model.ckpt` into checkpoint_dir.
Result<DistributedResult> RunDistWorker(const data::SimDataset& ds,
                                        const DistWorkerOptions& options);

/// result.bin (de)serialization — written by rank 0, read by the launcher.
Status SaveDistResult(const DistributedResult& result,
                      const std::string& path);
Result<DistributedResult> LoadDistResult(const std::string& path);

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_WORKER_H_
