#ifndef XFRAUD_STREAM_GRAPH_INGESTOR_H_
#define XFRAUD_STREAM_GRAPH_INGESTOR_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xfraud/common/clock.h"
#include "xfraud/common/status.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/graph/graph_builder.h"
#include "xfraud/kv/kvstore.h"
#include "xfraud/kv/snapshot.h"

namespace xfraud::stream {

/// Streaming counterpart of graph::GraphBuilder + kv::FeatureStore::Ingest
/// (DESIGN.md §15): transactions append continuously into the KV serving
/// schema instead of being frozen into one offline graph. Writes go through
/// `write_path` (the crash-safe WAL write stack) into the *pending* epoch;
/// PublishEpoch() commits everything buffered since the last publish as one
/// atomic, immutable epoch that pinned readers (kv::SnapshotHandle /
/// GraphView) can sample and score against while the writer keeps going.
///
/// It writes the FeatureStore rows ("m", "n<id>", "f<id>", "a<id>") through
/// kv/feature_store.h's row codec — the same functions FeatureStore::Ingest
/// uses — and persists its id assignment so it can reattach after a crash:
///   "t<txn_id>"          -> i32 node id
///   "e<type_byte><key>"  -> i32 node id   (entity interning, per type)
///
/// Node ids are assigned exactly as GraphBuilder would for the same record
/// sequence (transaction first, then new entities in buyer → email →
/// payment → address order), so a replayed log produces the identical graph
/// the offline builder yields.
///
/// Crash safety: Append buffers in memory; the flush inside PublishEpoch
/// writes every record into the pending epoch and only then commits. A
/// failed flush (e.g. an injected torn write) leaves the buffer intact —
/// retrying PublishEpoch rewrites the same keys in place (pending-epoch
/// upserts), so partial or half-persisted values never reach a committed
/// epoch. After a real crash, Attach() rolls the store back to its last
/// fully published epoch and rebuilds the id maps from the log.
///
/// Thread-compatible: one writer thread calls Append/PublishEpoch; the
/// background compactor and any number of snapshot readers run
/// concurrently (the stores underneath carry the synchronization).
class GraphIngestor {
 public:
  /// Neither is owned; both must outlive the ingestor. `write_path` is the
  /// write-side KV stack (fans a Put out to every replica); `epochs` is the
  /// matching epoch control surface (fans publish/pin/compact out to every
  /// cell). For a single LogKvStore, pass it as both.
  GraphIngestor(kv::KvStore* write_path, kv::EpochSource* epochs);
  ~GraphIngestor();

  GraphIngestor(const GraphIngestor&) = delete;
  GraphIngestor& operator=(const GraphIngestor&) = delete;

  /// Recovers ingestor state from the store: discards any uncommitted
  /// pending writes (a crashed half-epoch), then rebuilds the txn/entity id
  /// maps and feature dim from the last published state. Call once before
  /// the first Append when the store may hold prior data; a fresh store
  /// attaches to an empty graph.
  Status Attach();

  /// Buffers one transaction (AlreadyExists on duplicate id,
  /// InvalidArgument on feature-dim drift). Nothing is readable — even at
  /// the head — until the next PublishEpoch.
  Status Append(const graph::TransactionRecord& record);

  /// Flushes the buffer through the WAL write path and commits it as the
  /// next epoch; returns the published epoch number. On error the buffer
  /// is retained and the call is safe to retry (idempotent: pending-epoch
  /// writes replace in place). Publishing an empty buffer is legal and
  /// yields an empty epoch.
  Result<uint64_t> PublishEpoch();

  /// Node id of a transaction (buffered or published); -1 if unknown.
  int32_t TxnNode(const std::string& txn_id) const;

  /// Total nodes assigned so far (published + buffered).
  int64_t num_nodes() const { return next_id_; }
  /// Transactions buffered since the last successful publish.
  int64_t buffered() const { return static_cast<int64_t>(buffered_txns_); }

  /// Starts the background compaction loop: every `interval_s` it runs one
  /// epochs->Compact() cycle, preceded by the injector's planned
  /// stall_compaction pause (slept on `clock`) when `injector` is non-null.
  /// Readers stay pinned throughout — compaction preserves every pinned
  /// epoch. StopCompactor (or the destructor) joins the thread.
  void StartCompactor(Clock* clock, double interval_s,
                      fault::FaultInjector* injector);
  void StopCompactor();

  /// Compaction cycles completed (tests: prove the loop ran under chaos).
  int64_t compaction_cycles() const;

 private:
  /// A node created in the current unpublished buffer.
  struct PendingNode {
    int32_t id;
    graph::NodeType type;
    int8_t label;
  };

  int32_t InternEntity(graph::NodeType type, const std::string& key);
  /// Writes every buffered record into the pending epoch (no commit).
  Status FlushBuffer();
  void ClearBuffer();
  void CompactorLoop(Clock* clock, double interval_s,
                     fault::FaultInjector* injector);

  kv::KvStore* write_path_;
  kv::EpochSource* epochs_;

  // Id assignment (covers published and buffered nodes). Point lookups
  // only — iteration order never escapes.
  std::unordered_map<std::string, int32_t> txn_ids_;
  std::unordered_map<std::string, int32_t>
      entity_ids_[graph::kNumNodeTypes];
  int32_t next_id_ = 0;
  int64_t feature_dim_ = -1;

  // The unpublished buffer, all keyed or ordered deterministically so the
  // flush issues KV ops in a replayable sequence.
  std::vector<PendingNode> new_nodes_;                    // ascending id
  std::vector<std::pair<int32_t, std::vector<float>>> new_features_;
  std::map<int32_t, std::vector<std::pair<int32_t, uint8_t>>> pending_adj_;
  std::vector<std::pair<std::string, int32_t>> new_id_keys_;  // "t"/"e" rows
  size_t buffered_txns_ = 0;

  std::thread compactor_;
  mutable std::mutex compactor_mu_;
  std::condition_variable compactor_cv_;
  bool compactor_stop_ = false;
  int64_t compaction_cycles_ = 0;  // guarded by compactor_mu_
};

}  // namespace xfraud::stream

#endif  // XFRAUD_STREAM_GRAPH_INGESTOR_H_
