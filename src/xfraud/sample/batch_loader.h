#ifndef XFRAUD_SAMPLE_BATCH_LOADER_H_
#define XFRAUD_SAMPLE_BATCH_LOADER_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "xfraud/common/mpmc_queue.h"
#include "xfraud/common/rng.h"
#include "xfraud/sample/sampler.h"

namespace xfraud::kv {
class FeatureStore;
}  // namespace xfraud::kv

namespace xfraud::sample {

/// Knobs of the prefetching batch pipeline, exposed through
/// train::TrainOptions / dist::DistributedOptions and the CLI.
struct LoaderOptions {
  /// Sampler worker threads. 0 = serial: Next() samples inline on the
  /// caller's thread (the reference path the pipeline must reproduce
  /// bit-for-bit).
  int num_workers = 0;
  /// Bound of the ready-batch queue: how far the samplers may run ahead of
  /// the consumer before backpressure blocks them.
  int prefetch_depth = 4;
  /// When set, every batch's feature rows are re-fetched from this
  /// KV-backed store (the paper's serving topology) instead of trusting the
  /// in-memory graph's copy. A row whose fetch fails after the store's
  /// retry policy is exhausted is zero-imputed and the batch flagged
  /// `degraded` — the epoch keeps going instead of aborting. nullptr (the
  /// default) keeps the in-memory feature path.
  const kv::FeatureStore* feature_store = nullptr;
};

/// One produced mini-batch plus its provenance and cost.
struct LoadedBatch {
  int64_t index = 0;           // position in the epoch's batch sequence
  MiniBatch batch;
  double sample_seconds = 0.0;  // wall time spent sampling this batch
  /// Degraded-mode bookkeeping (KV feature path only): rows whose feature
  /// fetch exhausted retries and was zero-imputed.
  bool degraded = false;
  int64_t degraded_rows = 0;
};

/// Pipelined mini-batch producer: the one batch engine behind
/// Trainer::Train, Trainer::Evaluate, the distributed DDP simulation, and
/// the incremental retrainer.
///
/// The epoch's work is a fixed list of seed-node batches. Each batch i is
/// sampled with its own RNG seeded Rng::StreamSeed(stream_seed, i) — a
/// pure function of (stream_seed, i) — so the sampled neighbourhoods do not
/// depend on which thread produces them or in what order. Workers claim
/// indices from a shared atomic counter, sample ahead of the consumer, and
/// push results through a BoundedQueue (capacity = prefetch_depth, the
/// backpressure bound); the consumer reorders out-of-order arrivals so
/// Next() always yields batch 0, 1, 2, ... exactly as the serial path
/// would. See DESIGN.md "Batch pipeline architecture".
class BatchLoader {
 public:
  /// `graph` and `sampler` must outlive the loader. `seed_batches[i]` are
  /// the seed node ids of batch i.
  BatchLoader(const graph::HeteroGraph* graph, const Sampler* sampler,
              std::vector<std::vector<int32_t>> seed_batches,
              uint64_t stream_seed, LoaderOptions options);

  /// Stops the workers (releasing any blocked on backpressure) and joins.
  ~BatchLoader();

  BatchLoader(const BatchLoader&) = delete;
  BatchLoader& operator=(const BatchLoader&) = delete;

  /// Returns the next batch in sequence order, or nullopt after the last.
  /// Serial mode samples here; pipelined mode pops from the prefetch queue.
  std::optional<LoadedBatch> Next();

  int64_t num_batches() const {
    return static_cast<int64_t>(seed_batches_.size());
  }

  /// Sum of sample_seconds over the batches returned so far — the epoch's
  /// total sampling cost, measured where it runs (worker or caller thread).
  double total_sample_seconds() const { return total_sample_seconds_; }

  /// Splits `nodes` into consecutive batches of `batch_size` seeds (the
  /// last one may be short). Shared batch-plan helper for all consumers.
  static std::vector<std::vector<int32_t>> MakeSeedBatches(
      const std::vector<int32_t>& nodes, int batch_size);

 private:
  LoadedBatch SampleOne(int64_t index) const;
  /// KV feature path: repaints the batch's feature tensor from the
  /// configured FeatureStore, zero-imputing rows whose reads fail.
  void FillFeaturesFromKv(LoadedBatch* out) const;
  void WorkerLoop();
  /// Rethrows the first exception a worker died with, if any.
  void RethrowWorkerError();

  const graph::HeteroGraph* graph_;
  const Sampler* sampler_;
  const std::vector<std::vector<int32_t>> seed_batches_;
  const uint64_t stream_seed_;
  const LoaderOptions options_;

  // Serial-mode cursor / pipelined-mode next expected index.
  int64_t next_index_ = 0;
  double total_sample_seconds_ = 0.0;

  // Pipelined mode only.
  std::atomic<int64_t> claim_{0};
  BoundedQueue<LoadedBatch> ready_;
  std::map<int64_t, LoadedBatch> reorder_;
  std::vector<std::thread> workers_;

  // Producer-failure propagation: the first exception thrown by a worker is
  // parked here (and the queue closed) so the consumer rethrows it from
  // Next() instead of hanging on a queue nobody will fill.
  std::mutex error_mu_;
  std::exception_ptr worker_error_;
};

}  // namespace xfraud::sample

#endif  // XFRAUD_SAMPLE_BATCH_LOADER_H_
