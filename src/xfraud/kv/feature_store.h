#ifndef XFRAUD_KV_FEATURE_STORE_H_
#define XFRAUD_KV_FEATURE_STORE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xfraud/common/retry.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/graph/mini_batch.h"
#include "xfraud/kv/kvstore.h"
#include "xfraud/kv/snapshot.h"

namespace xfraud::kv {

/// The FeatureStore record format. These functions are its one owner: the
/// bulk loader (FeatureStore::Ingest), the streaming writer
/// (stream::GraphIngestor) and every reader go through them. Rows use the
/// common/bytes.h encoding.
///
///   "m"      -> {num_nodes: i64, feature_dim: i64}
///   "n<id>"  -> {type: u8, label: i8, has_features: u8}
///   "f<id>"  -> f32[feature_dim] (transaction nodes only)
///   "a<id>"  -> {neighbor: i32, edge_type: u8}[in_degree]
inline constexpr char kMetaKey[] = "m";
std::string NodeKey(int32_t id);
std::string FeatKey(int32_t id);
std::string AdjKey(int32_t id);

std::string EncodeMetaRow(int64_t num_nodes, int64_t feature_dim);
Status DecodeMetaRow(std::string_view raw, int64_t* num_nodes,
                     int64_t* feature_dim);

std::string EncodeNodeRow(graph::NodeType type, int8_t label,
                          bool has_features);
/// Corruption on a short row or a type byte outside NodeType.
Status DecodeNodeRow(std::string_view raw, graph::NodeType* type,
                     int8_t* label);

std::string EncodeFeatureRow(const float* row, int64_t dim);
/// Corruption unless the row is a whole number of floats.
Status DecodeFeatureRow(std::string_view raw, std::vector<float>* out);

/// Appends one in-edge to an adjacency row.
void AppendAdjEntry(int32_t neighbor, uint8_t edge_type, std::string* row);
/// Corruption on a partial entry or an edge-type byte outside EdgeType.
Status DecodeAdjRow(std::string_view raw, std::vector<int32_t>* neighbors,
                    std::vector<uint8_t>* edge_types);

/// Serves graph data (node metadata, features, adjacency) out of a KvStore —
/// the data-loading path of paper §3.3.3: the graph is ingested once, then
/// every DDP worker's loader materializes its mini-batches by KV reads
/// instead of holding the whole graph in memory. Rows are laid out as above.
class FeatureStore {
 public:
  /// Wraps (not owning) a KvStore.
  explicit FeatureStore(KvStore* store) : store_(store) {}

  /// Configures retry-with-backoff for every read this store issues. The
  /// default policy performs a single attempt (no behavior change); set
  /// `max_attempts > 1` to ride out transient IoError/Corruption from the
  /// backing store (the expected failure mode of the paper's networked KV
  /// serving path). Not thread-safe against concurrent reads — configure
  /// before handing the store to loader threads.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Optional per-epoch adjacency cache shared with other readers of the
  /// same backing store. Only epoch-pinned reads consult it — adjacency is
  /// immutable within a published epoch, while the head mutates under
  /// writers. Not thread-safe against concurrent reads — configure before
  /// handing the store to loader threads. The cache must outlive this store.
  void set_adjacency_cache(AdjacencyCache* cache) { adj_cache_ = cache; }

  /// Writes the whole graph into the store as one KvStore::PutBatch: the
  /// meta row, then per node its node, feature (transaction nodes) and
  /// adjacency rows, in node order.
  Status Ingest(const graph::HeteroGraph& g);

  /// Point reads take an optional pinned epoch (default: head). The epoch
  /// is forwarded to the backing store's GetAt — a store without version
  /// history fails loudly with FailedPrecondition rather than serving a
  /// possibly mixed-epoch answer.
  /// Number of nodes recorded in the store's metadata.
  Result<int64_t> NumNodes(uint64_t epoch = kHeadEpoch) const;
  Result<int64_t> FeatureDim(uint64_t epoch = kHeadEpoch) const;

  /// Reads one node's feature row (NotFound for entity nodes).
  Status ReadFeatures(int32_t node, std::vector<float>* out,
                      uint64_t epoch = kHeadEpoch) const;

  /// Reads one node's in-neighbour list.
  Status ReadNeighbors(int32_t node, std::vector<int32_t>* neighbors,
                       std::vector<uint8_t>* edge_types,
                       uint64_t epoch = kHeadEpoch) const;

  /// Node metadata.
  Status ReadNode(int32_t node, graph::NodeType* type, int8_t* label,
                  uint64_t epoch = kHeadEpoch) const;

  /// Materializes a model-ready batch for `seeds` by pure KV reads: BFS the
  /// k-hop neighbourhood (`hops`, fan-out capped at `fanout`) through "a"
  /// records and fill features from "f" records. This is the loader path
  /// whose single- vs multi-threaded throughput Figures 12-13 compare.
  ///
  /// Honors the calling thread's DeadlineScope: each BFS hop and each node
  /// materialization checks the remaining budget and fails fast with
  /// DeadlineExceeded once it is spent, so a dead request never keeps
  /// issuing KV reads.
  ///
  /// `epoch` is deliberately explicit (no default): a whole batch is read
  /// at ONE epoch — kHeadEpoch for the frozen/offline path, or a pinned
  /// published epoch for streaming reads — so rows from different epochs
  /// can never be silently merged into one tensor.
  Result<graph::MiniBatch> LoadBatch(const std::vector<int32_t>& seeds,
                                      int hops, int fanout, xfraud::Rng* rng,
                                      uint64_t epoch) const;

  /// What LoadBatchDegraded had to paper over (all zero on a clean load).
  struct DegradedLoadStats {
    /// Feature reads that exhausted replicas/retries → row zero-imputed.
    int64_t imputed_feature_rows = 0;
    /// Adjacency reads that failed → node kept, neighborhood not expanded
    /// and its induced edges dropped.
    int64_t failed_adjacency_reads = 0;
    /// Non-seed node records that failed → node type imputed as kTxn.
    int64_t imputed_node_types = 0;

    bool degraded() const {
      return imputed_feature_rows + failed_adjacency_reads +
                 imputed_node_types >
             0;
    }
    int64_t total() const {
      return imputed_feature_rows + failed_adjacency_reads +
             imputed_node_types;
    }
  };

  /// Degraded-tolerant LoadBatch for the serving path (PR 4's
  /// zero-imputation idea applied to online reads): read failures on
  /// features, adjacency, or non-seed node records degrade the batch
  /// (zero-imputed rows, skipped expansions) instead of failing it, with
  /// the damage tallied in `stats`. Failures that make the batch
  /// meaningless — metadata or a seed's own node record unreadable, or the
  /// deadline expiring — still fail. Identical to LoadBatch on a healthy
  /// store, including the RNG stream.
  Result<graph::MiniBatch> LoadBatchDegraded(
      const std::vector<int32_t>& seeds, int hops, int fanout,
      xfraud::Rng* rng, uint64_t epoch, DegradedLoadStats* stats) const;

 private:
  Result<graph::MiniBatch> LoadBatchImpl(const std::vector<int32_t>& seeds,
                                          int hops, int fanout,
                                          xfraud::Rng* rng, uint64_t epoch,
                                          DegradedLoadStats* stats) const;
  /// All reads funnel through here: one KV Get (or epoch-pinned GetAt)
  /// under the retry policy, with a deterministic per-key jitter stream.
  Status GetWithRetry(const std::string& key, std::string* value,
                      uint64_t epoch) const;

  KvStore* store_;
  RetryPolicy retry_;
  AdjacencyCache* adj_cache_ = nullptr;
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_FEATURE_STORE_H_
