#ifndef XFRAUD_STREAM_STREAMING_TOPOLOGY_H_
#define XFRAUD_STREAM_STREAMING_TOPOLOGY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "xfraud/common/clock.h"
#include "xfraud/common/status.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/fault/faulty_kv.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/replicated_kv.h"
#include "xfraud/kv/sharded_kv.h"
#include "xfraud/kv/snapshot.h"
#include "xfraud/stream/graph_ingestor.h"

namespace xfraud::stream {

/// EpochSource over a grid of LogKvStore cells that all receive the same
/// writes (the write path fans every Put out to each replica). Keeps the
/// cells' epoch counters in lockstep:
///
///  - published_epoch() is the minimum over cells — the newest epoch that
///    is committed *everywhere*, the only epoch safe to hand to readers.
///  - PublishEpoch advances every cell that is still behind min+1, so a
///    crash between cells leaves the grid at most one epoch skewed and a
///    retry (or recovery) is idempotent.
///  - DiscardPending first rolls lagging cells *forward*: a cell behind the
///    maximum holds the full next epoch in its durable pending tail (the
///    writer flushes everywhere before publishing anywhere), so completing
///    its publish restores alignment without inventing data. Only then is
///    the pending tail truncated on every cell.
///  - Pins, TTL, and compaction fan out to every cell.
class FanoutEpochSource : public kv::EpochSource {
 public:
  /// Cells are not owned and must outlive this object (at least one).
  explicit FanoutEpochSource(std::vector<kv::LogKvStore*> cells);

  Result<uint64_t> PublishEpoch() override;
  uint64_t published_epoch() const override;
  Status PinEpoch(uint64_t epoch) override;
  void UnpinEpoch(uint64_t epoch) override;
  Status DiscardPending() override;
  Result<int64_t> Compact() override;

 private:
  std::vector<kv::LogKvStore*> cells_;
  // Serializes publish/discard/compact so the cells' counters cannot
  // interleave; pins only touch per-cell state and take no grid lock.
  std::mutex mu_;
};

/// A pinned, consistent read view of the streaming graph: an RAII epoch pin
/// plus epoch-forwarding wrappers over the serving FeatureStore. While the
/// view is alive its epoch cannot be TTL-expired or compacted away, so
/// every read — point lookups and whole sampling walks — observes the exact
/// committed state of that epoch even while the ingestor publishes past it.
class GraphView {
 public:
  GraphView() = default;
  ~GraphView() { Release(); }

  GraphView(GraphView&& other) noexcept
      : snapshot_(std::move(other.snapshot_)),
        store_(other.store_),
        on_release_(std::move(other.on_release_)) {
    other.store_ = nullptr;
    other.on_release_ = nullptr;
  }
  GraphView& operator=(GraphView&& other) noexcept {
    if (this != &other) {
      Release();
      snapshot_ = std::move(other.snapshot_);
      store_ = other.store_;
      on_release_ = std::move(other.on_release_);
      other.store_ = nullptr;
      other.on_release_ = nullptr;
    }
    return *this;
  }
  GraphView(const GraphView&) = delete;
  GraphView& operator=(const GraphView&) = delete;

  /// Pins the latest published epoch of `epochs` and binds it to `store`
  /// (both not owned, must outlive the view). `on_release` (may be null)
  /// runs once when the view is released — the topology uses it to drop
  /// the epoch's adjacency-cache entries when its last view goes away.
  static Result<GraphView> Open(const kv::FeatureStore* store,
                                kv::EpochSource* epochs,
                                std::function<void(uint64_t)> on_release);

  bool valid() const { return store_ != nullptr; }
  uint64_t epoch() const { return snapshot_.epoch(); }
  const kv::FeatureStore* features() const { return store_; }

  /// Epoch-forwarding reads (see kv::FeatureStore for semantics).
  Result<int64_t> NumNodes() const;
  Status ReadFeatures(int32_t node, std::vector<float>* out) const;
  Result<graph::MiniBatch> LoadBatch(const std::vector<int32_t>& seeds,
                                     int hops, int fanout,
                                     xfraud::Rng* rng) const;
  Result<graph::MiniBatch> LoadBatchDegraded(
      const std::vector<int32_t>& seeds, int hops, int fanout,
      xfraud::Rng* rng, kv::FeatureStore::DegradedLoadStats* stats) const;

  /// Drops the pin (idempotent; also run by the destructor).
  void Release();

 private:
  GraphView(kv::SnapshotHandle snapshot, const kv::FeatureStore* store,
            std::function<void(uint64_t)> on_release)
      : snapshot_(std::move(snapshot)),
        store_(store),
        on_release_(std::move(on_release)) {}

  kv::SnapshotHandle snapshot_;
  const kv::FeatureStore* store_ = nullptr;
  std::function<void(uint64_t)> on_release_;
};

struct StreamingOptions {
  /// Directory holding the cell logs ("<dir>/cell_<shard>_<replica>");
  /// created if missing. Reopening the same directory recovers the grid.
  /// Empty: a fresh directory under the system temp dir, removed when the
  /// topology is destroyed (a grid for one BulkLoad-ed frozen graph).
  std::string dir;
  int num_shards = 2;
  int num_replicas = 2;
  /// Chaos profile. Positioned faults (kill_replica / kill_shard /
  /// slow_replica) bite only the serving read path; the randomized per-op
  /// faults (kv_error / kv_corruption / torn_write / kv_latency) hit the
  /// ingest write path too — a write stack that cannot absorb them is
  /// exactly what the chaos harness exists to catch.
  fault::FaultPlan plan;
  /// Read-time TTL in epochs forwarded to every cell (0 = keep forever).
  uint64_t ttl_epochs = 0;
  Clock* clock = nullptr;
};

/// The serving tier's S×R KV grid (paper §3.3.3 / Appendix C): S shards ×
/// R replicas of crash-safe LogKvStore cells, with an epoch surface over
/// the grid that makes it the mutable, versioned ingestion tier (DESIGN.md
/// §15). A frozen graph is loaded once with BulkLoad; a stream is appended
/// through ingestor().
///
///   serving():  ShardedKvStore
///                 └─ per shard: ReplicatedKvStore (failover/breaker)
///                      └─ per replica: [FaultyKvStore(r,s) →] LogKvStore
///   ingest():   ShardedKvStore
///                 └─ per shard: ReplicatedKvStore (Put fans to replicas)
///                      └─ per replica: [FaultyKvStore(-1,-1) →] LogKvStore
///   epochs():   FanoutEpochSource over all S×R cells
///
/// The two stacks share the same cells; they differ only in fault
/// positioning (a killed replica must not block ingest — real ingestors
/// write through a quorum path, and replica death is a *serving* fault in
/// this reproduction) and in breaker state. Open() recovers from any crash:
/// cell logs replay their torn tails, and the ingestor reattaches to the
/// last epoch that published on every cell.
class StreamingTopology {
 public:
  static Result<std::unique_ptr<StreamingTopology>> Open(
      StreamingOptions options);

  ~StreamingTopology();

  /// Writes `g` into every cell, one replica column at a time through a
  /// ShardedKvStore over the raw cells — setup is not under chaos — then
  /// publishes it as epoch 1 and reattaches the ingestor.
  /// FailedPrecondition unless the grid has never published an epoch.
  Status BulkLoad(const graph::HeteroGraph& g);

  /// The hardened read path (hand to a FeatureStore), and the one this
  /// topology's own features()/OpenView() use.
  kv::KvStore* serving() const { return serving_.get(); }
  kv::EpochSource* epochs() const { return epochs_.get(); }
  GraphIngestor* ingestor() const { return ingestor_.get(); }
  /// Serving FeatureStore with the shared adjacency cache attached.
  kv::FeatureStore* features() const { return features_.get(); }
  kv::AdjacencyCache* adjacency_cache() const { return adj_cache_.get(); }
  /// Null when the plan injects nothing.
  fault::FaultInjector* injector() const { return injector_.get(); }

  kv::LogKvStore* cell(int shard, int replica) const {
    return cells_[static_cast<size_t>(shard) * options_.num_replicas +
                  replica]
        .get();
  }
  int num_shards() const { return options_.num_shards; }
  int num_replicas() const { return options_.num_replicas; }

  /// Pins the latest published epoch as a GraphView over the serving path.
  /// Views of one epoch share the adjacency cache; when the last view on an
  /// epoch is released its cache entries are evicted (the incremental
  /// sampler-invalidation protocol — nothing stale outlives its epoch).
  Result<GraphView> OpenView();

 private:
  explicit StreamingTopology(StreamingOptions options);
  Status Init();
  void ReleaseViewEpoch(uint64_t epoch);

  StreamingOptions options_;
  bool owns_dir_ = false;  // options_.dir was created by Init: remove it
  std::vector<std::unique_ptr<kv::LogKvStore>> cells_;  // [shard*R + replica]
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<std::unique_ptr<fault::FaultyKvStore>> serving_faulty_;
  std::vector<std::unique_ptr<fault::FaultyKvStore>> ingest_faulty_;
  std::vector<std::unique_ptr<kv::ReplicatedKvStore>> serving_shards_;
  std::vector<std::unique_ptr<kv::ReplicatedKvStore>> ingest_shards_;
  std::unique_ptr<kv::ShardedKvStore> serving_;
  std::unique_ptr<kv::ShardedKvStore> ingest_;
  std::unique_ptr<FanoutEpochSource> epochs_;
  std::unique_ptr<kv::AdjacencyCache> adj_cache_;
  std::unique_ptr<kv::FeatureStore> features_;
  std::unique_ptr<GraphIngestor> ingestor_;

  std::mutex view_mu_;
  std::map<uint64_t, int> view_counts_;  // epoch -> live GraphViews
};

}  // namespace xfraud::stream

#endif  // XFRAUD_STREAM_STREAMING_TOPOLOGY_H_
