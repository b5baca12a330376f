#include "xfraud/stream/graph_ingestor.h"

#include <chrono>

#include "xfraud/common/bytes.h"
#include "xfraud/common/logging.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/obs/metrics.h"
#include "xfraud/obs/registry.h"

namespace xfraud::stream {

namespace {

// Ingestor id-map keys; their rows hold the interned node id as an i32.
std::string TxnKey(const std::string& txn_id) { return "t" + txn_id; }
std::string EntityKey(graph::NodeType type, const std::string& key) {
  std::string out = "e";
  out.push_back(static_cast<char>(type));
  out += key;
  return out;
}

std::string EncodeId(int32_t id) { return ByteWriter().I32(id).Release(); }

struct StreamMetrics {
  obs::Counter* appended_txns;
  obs::Counter* published_epochs;
  obs::Counter* compactions;
  obs::Counter* flush_failures;

  static const StreamMetrics& Get() {
    static const StreamMetrics m = [] {
      auto& r = obs::Registry::Global();
      return StreamMetrics{r.counter("stream/appended_txns"),
                           r.counter("stream/published_epochs"),
                           r.counter("stream/compactions"),
                           r.counter("stream/flush_failures")};
    }();
    return m;
  }
};

}  // namespace

GraphIngestor::GraphIngestor(kv::KvStore* write_path,
                             kv::EpochSource* epochs)
    : write_path_(write_path), epochs_(epochs) {
  XF_CHECK(write_path_ != nullptr);
  XF_CHECK(epochs_ != nullptr);
}

GraphIngestor::~GraphIngestor() { StopCompactor(); }

Status GraphIngestor::Attach() {
  // Roll the store back to its last fully published epoch: a crashed
  // half-epoch is dropped, a crash mid-publish is completed (the fan-out
  // EpochSource aligns its cells before truncating).
  XF_RETURN_IF_ERROR(epochs_->DiscardPending());

  txn_ids_.clear();
  // Array-of-maps iterated in array order, and only to clear.
  // xfraud-analyze: allow(unordered-iter)
  for (auto& table : entity_ids_) table.clear();
  ClearBuffer();
  next_id_ = 0;
  feature_dim_ = -1;

  std::string meta;
  Status ms = write_path_->Get(kv::kMetaKey, &meta);
  if (ms.IsNotFound()) return Status::OK();  // fresh store, empty graph
  XF_RETURN_IF_ERROR(ms);
  int64_t num_nodes = 0, dim = 0;
  XF_RETURN_IF_ERROR(kv::DecodeMetaRow(meta, &num_nodes, &dim));
  next_id_ = static_cast<int32_t>(num_nodes);
  if (num_nodes > 0) feature_dim_ = dim;

  // Rebuild the id maps from the persisted interning rows. The scans see
  // the head, which after DiscardPending equals the last published state.
  int32_t id = 0;
  auto read_id = [this, &id](const std::string& key) {
    std::string raw;
    XF_RETURN_IF_ERROR(write_path_->Get(key, &raw));
    ByteReader in(raw);
    id = in.I32();
    return in.ok() ? Status::OK() : Status::Corruption("bad id row: " + key);
  };
  for (const std::string& key : write_path_->KeysWithPrefix("t")) {
    XF_RETURN_IF_ERROR(read_id(key));
    txn_ids_.emplace(key.substr(1), id);
  }
  for (const std::string& key : write_path_->KeysWithPrefix("e")) {
    if (key.size() < 2 ||
        static_cast<uint8_t>(key[1]) >= graph::kNumNodeTypes) {
      return Status::Corruption("bad entity id row: " + key);
    }
    XF_RETURN_IF_ERROR(read_id(key));
    entity_ids_[static_cast<uint8_t>(key[1])].emplace(key.substr(2), id);
  }
  return Status::OK();
}

int32_t GraphIngestor::InternEntity(graph::NodeType type,
                                    const std::string& key) {
  auto& table = entity_ids_[static_cast<int>(type)];
  auto it = table.find(key);
  if (it != table.end()) return it->second;
  int32_t id = next_id_++;
  table.emplace(key, id);
  new_nodes_.push_back({id, type, graph::kLabelUnknown});
  new_id_keys_.emplace_back(EntityKey(type, key), id);
  return id;
}

Status GraphIngestor::Append(const graph::TransactionRecord& record) {
  if (record.txn_id.empty()) {
    return Status::InvalidArgument("transaction id must be non-empty");
  }
  if (txn_ids_.count(record.txn_id) != 0) {
    return Status::AlreadyExists("duplicate transaction id: " +
                                 record.txn_id);
  }
  if (feature_dim_ < 0) {
    feature_dim_ = static_cast<int64_t>(record.features.size());
  } else if (feature_dim_ != static_cast<int64_t>(record.features.size())) {
    return Status::InvalidArgument("inconsistent feature dimension for txn " +
                                   record.txn_id);
  }

  // Same assignment order as graph::GraphBuilder: the transaction node
  // first, then any new entities in buyer → email → payment → address
  // order — a replayed log reproduces the offline builder's ids exactly.
  int32_t txn = next_id_++;
  txn_ids_.emplace(record.txn_id, txn);
  new_nodes_.push_back({txn, graph::NodeType::kTxn, record.label});
  new_features_.emplace_back(txn, record.features);
  new_id_keys_.emplace_back(TxnKey(record.txn_id), txn);

  auto link = [&](graph::NodeType type, const std::string& key) {
    if (key.empty()) return;
    int32_t entity = InternEntity(type, key);
    pending_adj_[txn].emplace_back(
        entity, static_cast<uint8_t>(graph::EntityToTxnEdge(type)));
    pending_adj_[entity].emplace_back(
        txn, static_cast<uint8_t>(graph::TxnToEntityEdge(type)));
  };
  link(graph::NodeType::kBuyer, record.buyer_id);
  link(graph::NodeType::kEmail, record.email);
  link(graph::NodeType::kPmt, record.payment_token);
  link(graph::NodeType::kAddr, record.shipping_address);

  ++buffered_txns_;
  if (obs::IsEnabled()) StreamMetrics::Get().appended_txns->Increment();
  return Status::OK();
}

Status GraphIngestor::FlushBuffer() {
  const uint64_t published = epochs_->published_epoch();

  // 1. Node metadata, ascending id (new_nodes_ is appended in id order).
  for (const PendingNode& node : new_nodes_) {
    XF_RETURN_IF_ERROR(write_path_->Put(
        kv::NodeKey(node.id),
        kv::EncodeNodeRow(node.type, node.label,
                          node.type == graph::NodeType::kTxn)));
  }

  // 2. Transaction feature rows.
  for (const auto& [id, features] : new_features_) {
    XF_RETURN_IF_ERROR(write_path_->Put(
        kv::FeatKey(id),
        kv::EncodeFeatureRow(features.data(),
                             static_cast<int64_t>(features.size()))));
  }

  // 3. Adjacency: each touched node's new list = its last *published* list
  // plus the buffered additions. Reading the published epoch (never the
  // head) makes a retried flush idempotent — a torn remnant from a failed
  // attempt sits in the pending epoch and is simply overwritten, never
  // folded back into the base.
  for (const auto& [node, additions] : pending_adj_) {
    std::string adj;
    if (published > 0) {
      Status as = write_path_->GetAt(kv::AdjKey(node), published, &adj);
      if (!as.ok() && !as.IsNotFound()) return as;
      // NotFound: node is new this epoch (or its row TTL-expired).
    }
    for (const auto& [src, etype] : additions) {
      kv::AppendAdjEntry(src, etype, &adj);
    }
    XF_RETURN_IF_ERROR(write_path_->Put(kv::AdjKey(node), adj));
  }

  // 4. Id-map rows, then metadata last (a reader of epoch N that can see
  // "m" can see everything it describes).
  for (const auto& [key, id] : new_id_keys_) {
    XF_RETURN_IF_ERROR(write_path_->Put(key, EncodeId(id)));
  }
  return write_path_->Put(
      kv::kMetaKey,
      kv::EncodeMetaRow(next_id_, feature_dim_ < 0 ? 0 : feature_dim_));
}

Result<uint64_t> GraphIngestor::PublishEpoch() {
  Status flushed = FlushBuffer();
  if (!flushed.ok()) {
    // Buffer retained: the caller retries and the pending-epoch writes
    // replace in place. Nothing half-written can be published.
    if (obs::IsEnabled()) StreamMetrics::Get().flush_failures->Increment();
    return flushed;
  }
  Result<uint64_t> epoch = epochs_->PublishEpoch();
  if (!epoch.ok()) return epoch.status();
  ClearBuffer();
  if (obs::IsEnabled()) StreamMetrics::Get().published_epochs->Increment();
  return epoch;
}

void GraphIngestor::ClearBuffer() {
  new_nodes_.clear();
  new_features_.clear();
  pending_adj_.clear();
  new_id_keys_.clear();
  buffered_txns_ = 0;
}

int32_t GraphIngestor::TxnNode(const std::string& txn_id) const {
  auto it = txn_ids_.find(txn_id);
  return it == txn_ids_.end() ? -1 : it->second;
}

void GraphIngestor::StartCompactor(Clock* clock, double interval_s,
                                   fault::FaultInjector* injector) {
  XF_CHECK(!compactor_.joinable()) << "compactor already running";
  XF_CHECK(clock != nullptr);
  compactor_stop_ = false;
  compactor_ = std::thread(
      [this, clock, interval_s, injector] {
        CompactorLoop(clock, interval_s, injector);
      });
}

void GraphIngestor::StopCompactor() {
  {
    std::lock_guard<std::mutex> lock(compactor_mu_);
    compactor_stop_ = true;
  }
  compactor_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
}

int64_t GraphIngestor::compaction_cycles() const {
  std::lock_guard<std::mutex> lock(compactor_mu_);
  return compaction_cycles_;
}

void GraphIngestor::CompactorLoop(Clock* clock, double interval_s,
                                  fault::FaultInjector* injector) {
  std::unique_lock<std::mutex> lock(compactor_mu_);
  for (;;) {
    // The inter-cycle pacing is a real-time cv wait (so StopCompactor can
    // interrupt it immediately); the *injected* stall below sleeps on the
    // injectable clock, which is what chaos tests measure.
    compactor_cv_.wait_for(lock, std::chrono::duration<double>(interval_s),
                           [this] { return compactor_stop_; });
    if (compactor_stop_) return;
    lock.unlock();
    if (injector != nullptr) {
      double stall = injector->NextCompactionStall();
      if (stall > 0.0) clock->SleepFor(stall);
    }
    // A failed cycle (e.g. transient I/O) is retried at the next interval;
    // compaction is pure garbage collection, never required for progress.
    Result<int64_t> reclaimed = epochs_->Compact();
    if (reclaimed.ok() && obs::IsEnabled()) {
      StreamMetrics::Get().compactions->Increment();
    }
    lock.lock();
    ++compaction_cycles_;
  }
}

}  // namespace xfraud::stream
