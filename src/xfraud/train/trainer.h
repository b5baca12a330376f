#ifndef XFRAUD_TRAIN_TRAINER_H_
#define XFRAUD_TRAIN_TRAINER_H_

#include <string>
#include <vector>

#include "xfraud/common/status.h"
#include "xfraud/core/gnn_model.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/optim.h"
#include "xfraud/sample/batch_loader.h"
#include "xfraud/sample/sampler.h"
#include "xfraud/train/metrics.h"

namespace xfraud::train {

/// Training hyperparameters. The paper's protocol (Appendix C): adamw,
/// clip=0.25, max_epochs=128, patience=32 — scaled down for CPU benches.
struct TrainOptions {
  int max_epochs = 30;
  int patience = 10;          // early stop on val AUC
  int batch_size = 128;       // seed transactions per mini-batch
  float lr = 1e-3f;
  float weight_decay = 0.01f;
  float clip = 0.25f;
  /// Optional class weights {w_benign, w_fraud} for the imbalanced CE loss.
  std::vector<float> class_weights;
  uint64_t seed = 0;
  bool verbose = false;
  /// Sampler worker threads prefetching mini-batches ahead of the gradient
  /// step (0 = sample inline). Any value yields bit-identical training:
  /// batch contents depend only on (seed, epoch, batch index).
  int num_sample_workers = 0;
  /// How many ready batches the sampler workers may buffer (backpressure
  /// bound of the pipeline queue).
  int prefetch_depth = 4;
  /// Observability: print obs::ScopedSpan trace lines (per epoch and per
  /// evaluation) to stderr. Phase timings (sample/forward/backward/optim)
  /// always accumulate in obs::Registry::Global() histograms unless the
  /// whole subsystem is switched off with obs::SetEnabled(false).
  bool trace = false;
  /// When set, batch feature rows are served from this KV-backed store
  /// (configure its RetryPolicy for transient-fault tolerance); batches
  /// whose reads exhaust retries are zero-imputed and flagged degraded
  /// instead of aborting the epoch. See LoaderOptions::feature_store.
  const kv::FeatureStore* feature_store = nullptr;
  /// Degraded-batch budget per epoch: if more than this fraction of an
  /// epoch's batches are degraded, the run fails (TrainResult::error =
  /// FailedPrecondition) — silent mass imputation would train on zeros.
  /// The default (1.0) never fails the run.
  double max_degraded_frac = 1.0;
  /// Epoch-granular checkpoint/resume. With `checkpoint_dir` set, a
  /// CRC-verified checkpoint is atomically written after every epoch; with
  /// `resume` also set, Train() restores the latest checkpoint (if one
  /// exists) and continues — bit-identical to a run that never stopped.
  std::string checkpoint_dir;
  bool resume = false;
};

/// Model scores on an evaluation split.
struct EvalResult {
  std::vector<double> scores;  // fraud probability per node
  std::vector<int> labels;
  double auc = 0.0;
  double ap = 0.0;
  double accuracy = 0.0;
  /// Mean / stddev wall-clock seconds of the model forward per evaluation
  /// batch (Table 3's "inference time (s/batch)"). Neighbourhood sampling
  /// is reported separately below — lumping it in here overstated
  /// inference cost by whatever the sampler happened to cost.
  double secs_per_batch_mean = 0.0;
  double secs_per_batch_std = 0.0;
  /// Mean / stddev wall-clock seconds of neighbourhood sampling per batch.
  double sample_secs_per_batch_mean = 0.0;
  double sample_secs_per_batch_std = 0.0;
};

/// Per-epoch training trace (Figure 14's convergence curves).
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double val_auc = 0.0;
  double seconds = 0.0;          // measured wall-clock of the epoch
  double sample_seconds = 0.0;   // sampling cost, summed where it ran
  double compute_seconds = 0.0;  // forward+backward+step cost
};

struct TrainResult {
  std::vector<EpochStats> history;
  double best_val_auc = 0.0;
  int best_epoch = -1;
  double mean_epoch_seconds = 0.0;
  /// Mean per-epoch sampling / gradient-compute cost (components of
  /// mean_epoch_seconds; with sampler workers they overlap).
  double mean_epoch_sample_seconds = 0.0;
  double mean_epoch_compute_seconds = 0.0;
  /// Degraded-mode accounting (KV feature path): batches that trained on
  /// partially zero-imputed features, out of all batches drawn.
  int64_t degraded_batches = 0;
  int64_t total_batches = 0;
  /// OK unless the run aborted early: the degraded-batch fraction exceeded
  /// max_degraded_frac (FailedPrecondition), or checkpoint I/O failed.
  Status error;
};

/// Mini-batch trainer for any GnnModel: per epoch, shuffles the training
/// seeds, draws neighbourhoods through a sample::BatchLoader pipeline
/// (num_sample_workers prefetching threads; 0 = inline), and optimizes the
/// cross entropy of the risk score (paper eq. 11) with AdamW + gradient
/// clipping.
class Trainer {
 public:
  Trainer(core::GnnModel* model, const sample::Sampler* sampler,
          TrainOptions options);

  /// Trains on ds.train_nodes with early stopping on ds.val_nodes.
  TrainResult Train(const data::SimDataset& ds);

  /// Scores `nodes`, reporting metrics and per-batch sampling/inference
  /// timings. Sampling draws from an RNG stream forked off the seed, never
  /// from the training stream, so how often you evaluate cannot change the
  /// training trajectory, and repeated calls are identical.
  EvalResult Evaluate(const graph::HeteroGraph& g,
                      const std::vector<int32_t>& nodes, int batch_size = 640);

  /// One gradient step on an explicit batch; returns the loss. Exposed for
  /// the distributed trainer, which owns its own step loop.
  double TrainStep(const sample::MiniBatch& batch);

  nn::AdamW& optimizer() { return optimizer_; }
  core::GnnModel* model() { return model_; }

 private:
  /// Writes the post-epoch checkpoint (atomic + CRC) into checkpoint_dir.
  Status SaveCheckpoint(int epoch, const std::vector<int32_t>& train_nodes,
                        int stale, const TrainResult& result);
  /// Restores the checkpoint_dir checkpoint if resume is set and one
  /// exists. Outputs the epoch to continue from, the early-stop counter and
  /// the shuffled train-node order; OK + *start_epoch == 0 when starting
  /// cold.
  Status TryResume(std::vector<int32_t>* train_nodes, int* start_epoch,
                   int* stale, TrainResult* result);

  core::GnnModel* model_;
  const sample::Sampler* sampler_;
  TrainOptions options_;
  nn::AdamW optimizer_;
  /// Training stream: epoch shuffles and dropout. Sampling uses per-batch
  /// streams split off `sample_root_` (see BatchLoader), and evaluation
  /// uses `eval_root_`, so the three never perturb each other.
  xfraud::Rng rng_;
  uint64_t sample_root_;
  uint64_t eval_root_;
};

}  // namespace xfraud::train

#endif  // XFRAUD_TRAIN_TRAINER_H_
