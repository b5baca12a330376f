#include "xfraud/stream/streaming_topology.h"

#include <algorithm>
#include <filesystem>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/logging.h"

namespace xfraud::stream {

FanoutEpochSource::FanoutEpochSource(std::vector<kv::LogKvStore*> cells)
    : cells_(std::move(cells)) {
  XF_CHECK(!cells_.empty());
  for (kv::LogKvStore* cell : cells_) XF_CHECK(cell != nullptr);
}

uint64_t FanoutEpochSource::published_epoch() const {
  uint64_t min_epoch = cells_[0]->published_epoch();
  for (size_t i = 1; i < cells_.size(); ++i) {
    min_epoch = std::min(min_epoch, cells_[i]->published_epoch());
  }
  return min_epoch;
}

Result<uint64_t> FanoutEpochSource::PublishEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t target = published_epoch() + 1;
  for (kv::LogKvStore* cell : cells_) {
    if (cell->published_epoch() >= target) continue;  // already there
    Result<uint64_t> r = cell->PublishEpoch();
    if (!r.ok()) return r.status();
    XF_CHECK_EQ(r.value(), target)
        << "cell epoch counter diverged from the grid";
  }
  return target;
}

Status FanoutEpochSource::PinEpoch(uint64_t epoch) {
  for (size_t i = 0; i < cells_.size(); ++i) {
    Status s = cells_[i]->PinEpoch(epoch);
    if (!s.ok()) {
      for (size_t j = 0; j < i; ++j) cells_[j]->UnpinEpoch(epoch);
      return s;
    }
  }
  return Status::OK();
}

void FanoutEpochSource::UnpinEpoch(uint64_t epoch) {
  for (kv::LogKvStore* cell : cells_) cell->UnpinEpoch(epoch);
}

Status FanoutEpochSource::DiscardPending() {
  std::lock_guard<std::mutex> lock(mu_);
  // Roll forward first: a cell behind the maximum crashed between the
  // grid-wide flush (its pending tail holds the complete epoch) and its own
  // publish — completing the publish realigns the grid without data loss.
  uint64_t target = cells_[0]->published_epoch();
  for (kv::LogKvStore* cell : cells_) {
    target = std::max(target, cell->published_epoch());
  }
  for (kv::LogKvStore* cell : cells_) {
    while (cell->published_epoch() < target) {
      Result<uint64_t> r = cell->PublishEpoch();
      XF_RETURN_IF_ERROR(r.status());
    }
  }
  for (kv::LogKvStore* cell : cells_) {
    XF_RETURN_IF_ERROR(cell->DiscardPending());
  }
  return Status::OK();
}

Result<int64_t> FanoutEpochSource::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t reclaimed = 0;
  for (kv::LogKvStore* cell : cells_) {
    Result<int64_t> r = cell->Compact();
    if (!r.ok()) return r.status();
    reclaimed += r.value();
  }
  return reclaimed;
}

Result<GraphView> GraphView::Open(
    const kv::FeatureStore* store, kv::EpochSource* epochs,
    std::function<void(uint64_t)> on_release) {
  XF_CHECK(store != nullptr);
  Result<kv::SnapshotHandle> snap = kv::SnapshotHandle::PinLatest(epochs);
  if (!snap.ok()) return snap.status();
  return GraphView(std::move(snap).value(), store, std::move(on_release));
}

void GraphView::Release() {
  if (store_ == nullptr) return;
  const uint64_t epoch = snapshot_.epoch();
  store_ = nullptr;
  if (on_release_ != nullptr) {
    on_release_(epoch);
    on_release_ = nullptr;
  }
  snapshot_.Release();
}

Result<int64_t> GraphView::NumNodes() const {
  return store_->NumNodes(epoch());
}

Status GraphView::ReadFeatures(int32_t node, std::vector<float>* out) const {
  return store_->ReadFeatures(node, out, epoch());
}

Result<graph::MiniBatch> GraphView::LoadBatch(
    const std::vector<int32_t>& seeds, int hops, int fanout,
    xfraud::Rng* rng) const {
  return store_->LoadBatch(seeds, hops, fanout, rng, epoch());
}

Result<graph::MiniBatch> GraphView::LoadBatchDegraded(
    const std::vector<int32_t>& seeds, int hops, int fanout,
    xfraud::Rng* rng, kv::FeatureStore::DegradedLoadStats* stats) const {
  return store_->LoadBatchDegraded(seeds, hops, fanout, rng, epoch(), stats);
}

StreamingTopology::StreamingTopology(StreamingOptions options)
    : options_(std::move(options)) {}

StreamingTopology::~StreamingTopology() {
  // Stop the compactor before any store it reaches through epochs_ dies.
  if (ingestor_ != nullptr) ingestor_->StopCompactor();
  if (owns_dir_) {
    std::error_code ec;  // best effort: a leftover temp dir is harmless
    std::filesystem::remove_all(options_.dir, ec);
  }
}

Result<std::unique_ptr<StreamingTopology>> StreamingTopology::Open(
    StreamingOptions options) {
  XF_CHECK_GT(options.num_shards, 0);
  XF_CHECK_GT(options.num_replicas, 0);
  // Private constructor: make_unique cannot reach it, so the factory owns
  // the one naked new. xfraud-lint: allow(no-naked-new)
  std::unique_ptr<StreamingTopology> topology(new StreamingTopology(options));
  XF_RETURN_IF_ERROR(topology->Init());
  return topology;
}

Status StreamingTopology::Init() {
  const int S = options_.num_shards;
  const int R = options_.num_replicas;
  Clock* clock = options_.clock != nullptr ? options_.clock : Clock::Real();

  if (options_.dir.empty()) {
    Result<std::string> dir = MakeTempDir("xfraud-grid-");
    if (!dir.ok()) return dir.status();
    options_.dir = std::move(dir).value();
    owns_dir_ = true;
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("cannot create streaming dir '" + options_.dir +
                           "': " + ec.message());
  }

  cells_.reserve(static_cast<size_t>(S) * R);
  for (int s = 0; s < S; ++s) {
    for (int r = 0; r < R; ++r) {
      std::string path = options_.dir + "/cell_" + std::to_string(s) + "_" +
                         std::to_string(r);
      Result<std::unique_ptr<kv::LogKvStore>> cell =
          kv::LogKvStore::Open(path);
      if (!cell.ok()) return cell.status();
      cell.value()->SetTtlEpochs(options_.ttl_epochs);
      cells_.push_back(std::move(cell).value());
    }
  }
  if (options_.plan.any()) {
    injector_ = std::make_unique<fault::FaultInjector>(options_.plan);
    serving_faulty_.reserve(cells_.size());
    ingest_faulty_.reserve(cells_.size());
  }

  serving_shards_.reserve(S);
  ingest_shards_.reserve(S);
  for (int s = 0; s < S; ++s) {
    std::vector<kv::KvStore*> serving_replicas;
    std::vector<kv::KvStore*> ingest_replicas;
    serving_replicas.reserve(R);
    ingest_replicas.reserve(R);
    for (int r = 0; r < R; ++r) {
      kv::KvStore* cell = cells_[static_cast<size_t>(s) * R + r].get();
      kv::KvStore* serving_cell = cell;
      kv::KvStore* ingest_cell = cell;
      if (injector_ != nullptr) {
        serving_faulty_.push_back(std::make_unique<fault::FaultyKvStore>(
            cell, injector_.get(), r, s, clock));
        serving_cell = serving_faulty_.back().get();
        // Unpositioned: per-op faults (errors, torn writes, latency) hit
        // ingest, but a killed replica/shard only bites serving reads.
        ingest_faulty_.push_back(std::make_unique<fault::FaultyKvStore>(
            cell, injector_.get(), /*replica_id=*/-1, /*shard_id=*/-1,
            clock));
        ingest_cell = ingest_faulty_.back().get();
      }
      serving_replicas.push_back(serving_cell);
      ingest_replicas.push_back(ingest_cell);
    }
    serving_shards_.push_back(std::make_unique<kv::ReplicatedKvStore>(
        std::move(serving_replicas), clock));
    // Ingest replication: same failover machinery on its (rare) reads, but
    // its own breakers, so write-path chaos cannot poison serving breakers.
    ingest_shards_.push_back(std::make_unique<kv::ReplicatedKvStore>(
        std::move(ingest_replicas), clock));
  }

  std::vector<kv::KvStore*> serving_ptrs, ingest_ptrs;
  serving_ptrs.reserve(S);
  ingest_ptrs.reserve(S);
  for (int s = 0; s < S; ++s) {
    serving_ptrs.push_back(serving_shards_[s].get());
    ingest_ptrs.push_back(ingest_shards_[s].get());
  }
  serving_ = std::make_unique<kv::ShardedKvStore>(std::move(serving_ptrs));
  ingest_ = std::make_unique<kv::ShardedKvStore>(std::move(ingest_ptrs));

  std::vector<kv::LogKvStore*> cell_ptrs;
  cell_ptrs.reserve(cells_.size());
  for (const auto& cell : cells_) cell_ptrs.push_back(cell.get());
  epochs_ = std::make_unique<FanoutEpochSource>(std::move(cell_ptrs));

  adj_cache_ = std::make_unique<kv::AdjacencyCache>();
  features_ = std::make_unique<kv::FeatureStore>(serving_.get());
  features_->set_adjacency_cache(adj_cache_.get());

  ingestor_ =
      std::make_unique<GraphIngestor>(ingest_.get(), epochs_.get());
  return ingestor_->Attach();
}

Status StreamingTopology::BulkLoad(const graph::HeteroGraph& g) {
  if (epochs_->published_epoch() != 0) {
    return Status::FailedPrecondition(
        "bulk load into a grid at epoch " +
        std::to_string(epochs_->published_epoch()));
  }
  const int S = options_.num_shards;
  for (int r = 0; r < options_.num_replicas; ++r) {
    std::vector<kv::KvStore*> column;
    column.reserve(S);
    for (int s = 0; s < S; ++s) column.push_back(cell(s, r));
    kv::ShardedKvStore view(std::move(column));
    XF_RETURN_IF_ERROR(kv::FeatureStore(&view).Ingest(g));
  }
  XF_RETURN_IF_ERROR(epochs_->PublishEpoch().status());
  return ingestor_->Attach();
}

Result<GraphView> StreamingTopology::OpenView() {
  Result<GraphView> view = GraphView::Open(
      features_.get(), epochs_.get(),
      [this](uint64_t epoch) { ReleaseViewEpoch(epoch); });
  if (view.ok()) {
    std::lock_guard<std::mutex> lock(view_mu_);
    ++view_counts_[view.value().epoch()];
  }
  return view;
}

void StreamingTopology::ReleaseViewEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(view_mu_);
  auto it = view_counts_.find(epoch);
  if (it == view_counts_.end()) return;
  if (--it->second <= 0) {
    view_counts_.erase(it);
    // Last view on this epoch: its frontier cache can never be read again
    // at this epoch, so drop it now (nothing stale survives the epoch).
    adj_cache_->EvictEpoch(epoch);
  }
}

}  // namespace xfraud::stream
