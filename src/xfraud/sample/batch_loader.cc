#include "xfraud/sample/batch_loader.h"

#include <algorithm>
#include <utility>

#include "xfraud/common/check.h"
#include "xfraud/common/timer.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/obs/registry.h"

namespace xfraud::sample {

namespace {

// Cached global-registry handles for the pipeline's flow metrics. Queue
// depth is sampled at each hand-off; stall/wait histograms separate "the
// producers outran the consumer" (backpressure) from "the consumer starved"
// (undersized worker pool) — the two failure modes of a prefetch pipeline.
struct LoaderMetrics {
  obs::Histogram* queue_depth;
  obs::Histogram* producer_stall_s;
  obs::Histogram* consumer_wait_s;
  obs::Counter* batches;
  obs::Counter* degraded_batches;
  obs::Counter* degraded_rows;

  static const LoaderMetrics& Get() {
    static const LoaderMetrics m = [] {
      auto& r = obs::Registry::Global();
      return LoaderMetrics{r.histogram("loader/queue_depth"),
                           r.histogram("loader/producer_stall_s"),
                           r.histogram("loader/consumer_wait_s"),
                           r.counter("loader/batches"),
                           r.counter("loader/degraded_batches"),
                           r.counter("loader/degraded_rows")};
    }();
    return m;
  }
};

}  // namespace

BatchLoader::BatchLoader(const graph::HeteroGraph* graph,
                         const Sampler* sampler,
                         std::vector<std::vector<int32_t>> seed_batches,
                         uint64_t stream_seed, LoaderOptions options)
    : graph_(graph),
      sampler_(sampler),
      seed_batches_(std::move(seed_batches)),
      stream_seed_(stream_seed),
      options_(options),
      ready_(static_cast<size_t>(std::max(1, options.prefetch_depth))) {
  XF_CHECK(graph_ != nullptr);
  XF_CHECK(sampler_ != nullptr);
  if (options_.num_workers > 0 && !seed_batches_.empty()) {
    int workers = std::min<int>(options_.num_workers,
                                static_cast<int>(seed_batches_.size()));
    workers_.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

BatchLoader::~BatchLoader() {
  // Stop claims, then release any worker blocked on backpressure.
  claim_.store(num_batches());
  ready_.Close();
  for (auto& t : workers_) t.join();
}

LoadedBatch BatchLoader::SampleOne(int64_t index) const {
  XF_DCHECK_BOUNDS(index, num_batches());
  WallTimer timer;
  Rng rng(Rng::StreamSeed(stream_seed_, static_cast<uint64_t>(index)));
  LoadedBatch out;
  out.index = index;
  out.batch = sampler_->SampleBatch(*graph_, seed_batches_[index], &rng);
  if (options_.feature_store != nullptr) FillFeaturesFromKv(&out);
  out.sample_seconds = timer.ElapsedSeconds();
  return out;
}

void BatchLoader::FillFeaturesFromKv(LoadedBatch* out) const {
  MiniBatch& batch = out->batch;
  const int64_t rows = batch.features.rows();
  const int64_t cols = batch.features.cols();
  // Start from a zero canvas so a failed fetch leaves its row imputed
  // rather than silently falling back to the in-memory copy.
  batch.features = nn::Tensor(rows, cols);
  std::vector<float> feat;
  for (int64_t local = 0; local < rows; ++local) {
    int32_t global = batch.sub.nodes[static_cast<size_t>(local)];
    Status s = options_.feature_store->ReadFeatures(global, &feat);
    if (s.ok()) {
      if (static_cast<int64_t>(feat.size()) == cols) {
        std::copy(feat.begin(), feat.end(), batch.features.Row(local));
      } else {
        ++out->degraded_rows;  // shape drift: treat like a failed read
      }
    } else if (!s.IsNotFound()) {
      // Retries (the store's policy) are exhausted; degrade, don't abort.
      ++out->degraded_rows;
    }
    // NotFound = entity node without features; zeros are the contract.
  }
  out->degraded = out->degraded_rows > 0;
  if (out->degraded && obs::IsEnabled()) {
    const LoaderMetrics& metrics = LoaderMetrics::Get();
    metrics.degraded_batches->Increment();
    metrics.degraded_rows->Add(out->degraded_rows);
  }
}

void BatchLoader::WorkerLoop() {
  try {
    const LoaderMetrics& metrics = LoaderMetrics::Get();
    const int64_t n = num_batches();
    for (;;) {
      int64_t index = claim_.fetch_add(1);
      if (index >= n) return;
      LoadedBatch batch = SampleOne(index);
      if (obs::IsEnabled()) {
        metrics.queue_depth->Record(static_cast<double>(ready_.size()));
        WallTimer stall;
        if (!ready_.Push(std::move(batch))) return;  // closed: consumer done
        metrics.producer_stall_s->Record(stall.ElapsedSeconds());
      } else if (!ready_.Push(std::move(batch))) {
        return;  // closed: consumer is done
      }
    }
  } catch (...) {
    // A dying producer must not strand the consumer: park the exception,
    // then close the queue so Pop() wakes and Next() can rethrow. Closing
    // also stops sibling workers at their next Push.
    {
      std::lock_guard<std::mutex> lock(error_mu_);
      if (worker_error_ == nullptr) {
        worker_error_ = std::current_exception();
      }
    }
    ready_.Close();
  }
}

std::optional<LoadedBatch> BatchLoader::Next() {
  const LoaderMetrics& metrics = LoaderMetrics::Get();
  if (next_index_ >= num_batches()) return std::nullopt;
  if (workers_.empty()) {
    LoadedBatch out = SampleOne(next_index_++);
    total_sample_seconds_ += out.sample_seconds;
    // Serial path: the consumer waits the whole inline sampling time and
    // there is never anything buffered ahead — record both so the loader
    // histograms stay comparable across worker counts.
    metrics.consumer_wait_s->Record(out.sample_seconds);
    metrics.queue_depth->Record(0.0);
    metrics.batches->Increment();
    return out;
  }
  // Workers race on the claim counter, so batches may arrive out of order;
  // park early arrivals until their turn. The reorder buffer only grows
  // while the expected batch is still being sampled, so it stays near the
  // queue bound when batch costs are comparable.
  WallTimer wait;
  for (;;) {
    auto it = reorder_.find(next_index_);
    if (it != reorder_.end()) {
      LoadedBatch out = std::move(it->second);
      XF_DCHECK_EQ(out.index, next_index_);
      reorder_.erase(it);
      ++next_index_;
      total_sample_seconds_ += out.sample_seconds;
      metrics.consumer_wait_s->Record(wait.ElapsedSeconds());
      metrics.batches->Increment();
      return out;
    }
    std::optional<LoadedBatch> item = ready_.Pop();
    if (!item.has_value()) {
      // Queue closed before the epoch finished: either a worker died (its
      // exception surfaces here) or the loader is being torn down.
      RethrowWorkerError();
      return std::nullopt;
    }
    reorder_.emplace(item->index, std::move(*item));
  }
}

void BatchLoader::RethrowWorkerError() {
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    err = worker_error_;
  }
  if (err != nullptr) std::rethrow_exception(err);
}

std::vector<std::vector<int32_t>> BatchLoader::MakeSeedBatches(
    const std::vector<int32_t>& nodes, int batch_size) {
  std::vector<std::vector<int32_t>> batches;
  if (batch_size <= 0) batch_size = 1;
  batches.reserve((nodes.size() + batch_size - 1) / batch_size);
  for (size_t begin = 0; begin < nodes.size();
       begin += static_cast<size_t>(batch_size)) {
    size_t end = std::min(begin + static_cast<size_t>(batch_size),
                          nodes.size());
    batches.emplace_back(nodes.begin() + begin, nodes.begin() + end);
  }
  return batches;
}

}  // namespace xfraud::sample
