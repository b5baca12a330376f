#include "xfraud/train/trainer.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"
#include "xfraud/nn/tensor.h"
#include "xfraud/obs/registry.h"
#include "xfraud/obs/trace.h"
#include "xfraud/train/checkpoint.h"

namespace xfraud::train {

namespace {

// Cached global-registry handles for the per-phase epoch breakdown the
// paper's Sec. 5 efficiency story needs: where a gradient step's time goes
// (sample is recorded by the loader/sampler; forward/backward/optim here).
struct TrainerMetrics {
  obs::Histogram* forward_s;
  obs::Histogram* backward_s;
  obs::Histogram* optim_s;
  obs::Histogram* eval_forward_s;
  obs::Histogram* eval_sample_s;
  obs::Histogram* epoch_sample_s;
  obs::Histogram* epoch_compute_s;
  obs::Counter* epochs;
  obs::Counter* steps;
  obs::Gauge* last_val_auc;
  obs::Gauge* tensor_cache_hits;
  obs::Gauge* tensor_cache_misses;
  obs::Gauge* tensor_cache_evictions;
  obs::Gauge* tensor_cache_cached_bytes;

  static const TrainerMetrics& Get() {
    static const TrainerMetrics m = [] {
      auto& r = obs::Registry::Global();
      return TrainerMetrics{r.histogram("trainer/forward_s"),
                            r.histogram("trainer/backward_s"),
                            r.histogram("trainer/optim_s"),
                            r.histogram("trainer/eval_forward_s"),
                            r.histogram("trainer/eval_sample_s"),
                            r.histogram("trainer/epoch_sample_s"),
                            r.histogram("trainer/epoch_compute_s"),
                            r.counter("trainer/epochs"),
                            r.counter("trainer/steps"),
                            r.gauge("trainer/last_val_auc"),
                            r.gauge("trainer/tensor_cache_hits"),
                            r.gauge("trainer/tensor_cache_misses"),
                            r.gauge("trainer/tensor_cache_evictions"),
                            r.gauge("trainer/tensor_cache_cached_bytes")};
    }();
    return m;
  }
};

// Stream tags separating the trainer's independent RNG roots. Sampling and
// evaluation each get their own root split off the user seed, so drawing
// from one can never advance another.
constexpr uint64_t kSampleStreamTag = 0x5A4D504C45ULL;  // "SMPLE"
constexpr uint64_t kEvalStreamTag = 0x4556414CULL;      // "EVAL"

struct BatchTiming {
  double mean = 0.0;
  double std_dev = 0.0;
};

/// The training thread's tensor block cache (nn/tensor.h), once per epoch.
void RecordTensorCacheStats() {
  const nn::TensorCacheCounters c = nn::TensorCacheStats();
  const TrainerMetrics& m = TrainerMetrics::Get();
  m.tensor_cache_hits->Set(static_cast<double>(c.hits));
  m.tensor_cache_misses->Set(static_cast<double>(c.misses));
  m.tensor_cache_evictions->Set(static_cast<double>(c.evictions));
  m.tensor_cache_cached_bytes->Set(static_cast<double>(c.cached_bytes));
}

BatchTiming Summarize(const std::vector<double>& secs) {
  BatchTiming out;
  if (secs.empty()) return out;
  for (double s : secs) out.mean += s;
  out.mean /= secs.size();
  double var = 0.0;
  for (double s : secs) var += (s - out.mean) * (s - out.mean);
  out.std_dev = std::sqrt(var / secs.size());
  return out;
}

}  // namespace

Trainer::Trainer(core::GnnModel* model, const sample::Sampler* sampler,
                 TrainOptions options)
    : model_(model),
      sampler_(sampler),
      options_(options),
      optimizer_(model->Parameters(),
                 nn::AdamWOptions{.lr = options.lr,
                                  .weight_decay = options.weight_decay}),
      rng_(options.seed * 0x9E3779B9ULL + 0x1234567ULL),
      sample_root_(Rng::StreamSeed(options.seed, kSampleStreamTag)),
      eval_root_(Rng::StreamSeed(options.seed, kEvalStreamTag)) {}

double Trainer::TrainStep(const sample::MiniBatch& batch) {
  const TrainerMetrics& metrics = TrainerMetrics::Get();
  const bool timed = obs::IsEnabled();
  core::ForwardOptions fwd;
  fwd.training = true;
  fwd.rng = &rng_;
  WallTimer phase;
  nn::Var logits = model_->Forward(batch, fwd);
  nn::Var loss =
      nn::CrossEntropy(logits, batch.target_labels, options_.class_weights);
  if (timed) {
    metrics.forward_s->Record(phase.ElapsedSeconds());
    phase.Restart();
  }
  optimizer_.ZeroGrad();
  loss.Backward();
  if (timed) {
    metrics.backward_s->Record(phase.ElapsedSeconds());
    phase.Restart();
  }
  optimizer_.ClipGradNorm(options_.clip);
  optimizer_.Step();
  if (timed) metrics.optim_s->Record(phase.ElapsedSeconds());
  metrics.steps->Increment();
  return loss.item();
}

Status Trainer::SaveCheckpoint(int epoch,
                               const std::vector<int32_t>& train_nodes,
                               int stale, const TrainResult& result) {
  TrainerCheckpoint ckpt;
  ckpt.seed = options_.seed;
  ckpt.next_epoch = epoch + 1;
  ckpt.stale = stale;
  ckpt.best_epoch = result.best_epoch;
  ckpt.best_val_auc = result.best_val_auc;
  ckpt.rng = rng_.GetState();
  ckpt.train_node_order = train_nodes;
  ckpt.history = result.history;
  for (const nn::NamedParameter& p : model_->Parameters()) {
    ckpt.params.emplace_back(p.name, p.var.value());
  }
  ckpt.opt_m = optimizer_.first_moments();
  ckpt.opt_v = optimizer_.second_moments();
  ckpt.opt_step = optimizer_.step_count();
  return SaveTrainerCheckpoint(
      ckpt, TrainerCheckpointPath(options_.checkpoint_dir));
}

Status Trainer::TryResume(std::vector<int32_t>* train_nodes,
                          int* start_epoch, int* stale,
                          TrainResult* result) {
  Result<TrainerCheckpoint> loaded =
      LoadTrainerCheckpoint(TrainerCheckpointPath(options_.checkpoint_dir));
  if (!loaded.ok()) {
    // No checkpoint yet: a cold start under --resume is the normal first
    // run of an always-resume job. Anything else (corruption, I/O) is fatal.
    if (loaded.status().IsNotFound()) return Status::OK();
    return loaded.status();
  }
  const TrainerCheckpoint& ckpt = loaded.value();
  if (ckpt.seed != options_.seed) {
    return Status::FailedPrecondition(
        "checkpoint seed mismatch: checkpoint has " +
        std::to_string(ckpt.seed) + ", run has " +
        std::to_string(options_.seed));
  }
  std::unordered_map<std::string, const nn::Tensor*> by_name;
  for (const auto& [name, tensor] : ckpt.params) {
    by_name.emplace(name, &tensor);
  }
  for (nn::NamedParameter& p : model_->Parameters()) {
    auto it = by_name.find(p.name);
    if (it == by_name.end()) {
      return Status::Corruption("checkpoint missing parameter: " + p.name);
    }
    if (!it->second->SameShape(p.var.value())) {
      return Status::InvalidArgument("checkpoint shape mismatch for " +
                                     p.name);
    }
    p.var.mutable_value() = *it->second;
  }
  XF_RETURN_IF_ERROR(
      optimizer_.SetState(ckpt.opt_m, ckpt.opt_v, ckpt.opt_step));
  rng_.SetState(ckpt.rng);
  if (ckpt.train_node_order.size() != train_nodes->size()) {
    return Status::FailedPrecondition(
        "checkpoint train-set size mismatch: checkpoint has " +
        std::to_string(ckpt.train_node_order.size()) + " nodes, run has " +
        std::to_string(train_nodes->size()));
  }
  *train_nodes = ckpt.train_node_order;
  *start_epoch = ckpt.next_epoch;
  *stale = ckpt.stale;
  result->history = ckpt.history;
  result->best_epoch = ckpt.best_epoch;
  result->best_val_auc = ckpt.best_val_auc;
  return Status::OK();
}

TrainResult Trainer::Train(const data::SimDataset& ds) {
  TrainResult result;
  std::vector<int32_t> train_nodes = ds.train_nodes;
  int stale = 0;
  int start_epoch = 0;
  if (!options_.checkpoint_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      result.error = Status::IoError("cannot create checkpoint dir " +
                                     options_.checkpoint_dir + ": " +
                                     ec.message());
      return result;
    }
  }
  if (!options_.checkpoint_dir.empty() && options_.resume) {
    Status s = TryResume(&train_nodes, &start_epoch, &stale, &result);
    if (!s.ok()) {
      result.error = s;
      return result;
    }
  }
  double total_seconds = 0.0;
  double total_sample = 0.0;
  double total_compute = 0.0;
  for (const EpochStats& e : result.history) {
    total_seconds += e.seconds;
    total_sample += e.sample_seconds;
    total_compute += e.compute_seconds;
  }
  sample::LoaderOptions loader_opts{.num_workers = options_.num_sample_workers,
                                    .prefetch_depth = options_.prefetch_depth,
                                    .feature_store = options_.feature_store};

  if (options_.trace) obs::SetTraceLogging(true);
  for (int epoch = start_epoch; epoch < options_.max_epochs; ++epoch) {
    obs::ScopedSpan epoch_span("trainer/epoch");
    WallTimer timer;
    rng_.Shuffle(&train_nodes);
    double loss_sum = 0.0;
    int64_t batches = 0;
    int64_t degraded = 0;
    double compute_seconds = 0.0;
    sample::BatchLoader loader(
        &ds.graph, sampler_,
        sample::BatchLoader::MakeSeedBatches(train_nodes, options_.batch_size),
        Rng::StreamSeed(sample_root_, static_cast<uint64_t>(epoch)),
        loader_opts);
    while (auto loaded = loader.Next()) {
      WallTimer step_timer;
      loss_sum += TrainStep(loaded->batch);
      compute_seconds += step_timer.ElapsedSeconds();
      ++batches;
      if (loaded->degraded) ++degraded;
    }
    result.total_batches += batches;
    result.degraded_batches += degraded;
    if (batches > 0 && static_cast<double>(degraded) /
                               static_cast<double>(batches) >
                           options_.max_degraded_frac) {
      result.error = Status::FailedPrecondition(
          "degraded-batch fraction " +
          std::to_string(static_cast<double>(degraded) /
                         static_cast<double>(batches)) +
          " exceeded --max-degraded-frac " +
          std::to_string(options_.max_degraded_frac) + " in epoch " +
          std::to_string(epoch));
      break;
    }
    double seconds = timer.ElapsedSeconds();
    total_seconds += seconds;
    total_sample += loader.total_sample_seconds();
    total_compute += compute_seconds;
    TrainerMetrics::Get().epochs->Increment();
    TrainerMetrics::Get().epoch_sample_s->Record(
        loader.total_sample_seconds());
    TrainerMetrics::Get().epoch_compute_s->Record(compute_seconds);
    RecordTensorCacheStats();

    EvalResult val = Evaluate(ds.graph, ds.val_nodes);
    TrainerMetrics::Get().last_val_auc->Set(val.auc);
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = batches > 0 ? loss_sum / batches : 0.0;
    stats.val_auc = val.auc;
    stats.seconds = seconds;
    stats.sample_seconds = loader.total_sample_seconds();
    stats.compute_seconds = compute_seconds;
    result.history.push_back(stats);
    if (options_.verbose) {
      XF_LOG(Info) << model_->name() << " epoch " << epoch << " loss "
                   << stats.train_loss << " val_auc " << val.auc << " ("
                   << seconds << "s)";
    }

    bool stop = false;
    if (val.auc > result.best_val_auc) {
      result.best_val_auc = val.auc;
      result.best_epoch = epoch;
      stale = 0;
    } else if (++stale >= options_.patience) {
      stop = true;
    }
    // Checkpoint after the early-stop bookkeeping so a resumed run
    // continues (or stops) with exactly the same decision state.
    if (!options_.checkpoint_dir.empty()) {
      Status s = SaveCheckpoint(epoch, train_nodes, stale, result);
      if (!s.ok()) {
        result.error = s;
        break;
      }
    }
    if (stop) break;
  }
  if (!result.history.empty()) {
    double n = static_cast<double>(result.history.size());
    result.mean_epoch_seconds = total_seconds / n;
    result.mean_epoch_sample_seconds = total_sample / n;
    result.mean_epoch_compute_seconds = total_compute / n;
  }
  return result;
}

EvalResult Trainer::Evaluate(const graph::HeteroGraph& g,
                             const std::vector<int32_t>& nodes,
                             int batch_size) {
  obs::ScopedSpan eval_span("trainer/evaluate");
  const TrainerMetrics& metrics = TrainerMetrics::Get();
  EvalResult result;
  std::vector<double> forward_secs;
  std::vector<double> sample_secs;
  core::ForwardOptions fwd;  // inference: no dropout
  sample::BatchLoader loader(
      &g, sampler_, sample::BatchLoader::MakeSeedBatches(nodes, batch_size),
      eval_root_,
      sample::LoaderOptions{.num_workers = options_.num_sample_workers,
                            .prefetch_depth = options_.prefetch_depth,
                            .feature_store = options_.feature_store});
  while (auto loaded = loader.Next()) {
    const sample::MiniBatch& batch = loaded->batch;
    WallTimer timer;
    nn::NoGradGuard no_tape;
    nn::Var logits = model_->Forward(batch, fwd);
    forward_secs.push_back(timer.ElapsedSeconds());
    sample_secs.push_back(loaded->sample_seconds);
    metrics.eval_forward_s->Record(forward_secs.back());
    metrics.eval_sample_s->Record(loaded->sample_seconds);
    std::vector<double> probs = core::FraudProbabilities(logits);
    result.scores.insert(result.scores.end(), probs.begin(), probs.end());
    result.labels.insert(result.labels.end(), batch.target_labels.begin(),
                         batch.target_labels.end());
  }
  if (!result.scores.empty()) {
    result.auc = RocAuc(result.scores, result.labels);
    result.ap = AveragePrecision(result.scores, result.labels);
    result.accuracy = Accuracy(result.scores, result.labels);
  }
  BatchTiming forward = Summarize(forward_secs);
  result.secs_per_batch_mean = forward.mean;
  result.secs_per_batch_std = forward.std_dev;
  BatchTiming sampling = Summarize(sample_secs);
  result.sample_secs_per_batch_mean = sampling.mean;
  result.sample_secs_per_batch_std = sampling.std_dev;
  return result;
}

}  // namespace xfraud::train
