#include "xfraud/kv/feature_store.h"

#include <functional>

#include "xfraud/common/bytes.h"
#include "xfraud/common/clock.h"
#include "xfraud/common/logging.h"

namespace xfraud::kv {

namespace {

std::string RowKey(char prefix, int32_t id) {
  std::string key(1, prefix);
  key += std::to_string(id);
  return key;
}

// Polls the calling thread's DeadlineScope (serving-path requests open one
// around sampling + KV reads); no scope means no deadline.
Status CheckDeadline(const char* stage) {
  const Deadline* deadline = DeadlineScope::Current();
  if (deadline != nullptr && deadline->Expired()) {
    return Status::DeadlineExceeded(std::string(stage) +
                                    ": request deadline exhausted");
  }
  return Status::OK();
}

}  // namespace

std::string NodeKey(int32_t id) { return RowKey('n', id); }
std::string FeatKey(int32_t id) { return RowKey('f', id); }
std::string AdjKey(int32_t id) { return RowKey('a', id); }

std::string EncodeMetaRow(int64_t num_nodes, int64_t feature_dim) {
  return ByteWriter().I64(num_nodes).I64(feature_dim).Release();
}

Status DecodeMetaRow(std::string_view raw, int64_t* num_nodes,
                     int64_t* feature_dim) {
  ByteReader in(raw);
  *num_nodes = in.I64();
  *feature_dim = in.I64();
  return in.ok() ? Status::OK() : Status::Corruption("bad metadata record");
}

std::string EncodeNodeRow(graph::NodeType type, int8_t label,
                          bool has_features) {
  return ByteWriter()
      .U8(static_cast<uint8_t>(type))
      .I8(label)
      .U8(has_features ? 1 : 0)
      .Release();
}

Status DecodeNodeRow(std::string_view raw, graph::NodeType* type,
                     int8_t* label) {
  ByteReader in(raw);
  const uint8_t type_byte = in.U8();
  *label = in.I8();
  in.U8();  // has_features: implied by the "f" row's presence
  if (!in.ok()) return Status::Corruption("bad node record");
  if (type_byte >= graph::kNumNodeTypes) {
    return Status::Corruption("bad node type byte " +
                              std::to_string(type_byte));
  }
  *type = static_cast<graph::NodeType>(type_byte);
  return Status::OK();
}

std::string EncodeFeatureRow(const float* row, int64_t dim) {
  return ByteWriter().Array(row, static_cast<size_t>(dim)).Release();
}

Status DecodeFeatureRow(std::string_view raw, std::vector<float>* out) {
  if (raw.size() % sizeof(float) != 0) {
    return Status::Corruption("bad feature record size");
  }
  ByteReader(raw).Array(raw.size() / sizeof(float), out);
  return Status::OK();
}

void AppendAdjEntry(int32_t neighbor, uint8_t edge_type, std::string* row) {
  ByteWriter(row).I32(neighbor).U8(edge_type);
}

Status DecodeAdjRow(std::string_view raw, std::vector<int32_t>* neighbors,
                    std::vector<uint8_t>* edge_types) {
  constexpr size_t kEntry = sizeof(int32_t) + sizeof(uint8_t);
  if (raw.size() % kEntry != 0) {
    return Status::Corruption("bad adjacency record size");
  }
  const size_t count = raw.size() / kEntry;
  neighbors->resize(count);
  edge_types->resize(count);
  ByteReader in(raw);
  for (size_t i = 0; i < count; ++i) {
    (*neighbors)[i] = in.I32();
    (*edge_types)[i] = in.U8();
    if ((*edge_types)[i] >= graph::kNumEdgeTypes) {
      return Status::Corruption("bad edge type byte " +
                                std::to_string((*edge_types)[i]));
    }
  }
  return Status::OK();
}

Status FeatureStore::GetWithRetry(const std::string& key, std::string* value,
                                  uint64_t epoch) const {
  auto read = [&] {
    return epoch == kHeadEpoch ? store_->Get(key, value)
                               : store_->GetAt(key, epoch, value);
  };
  if (!retry_.enabled()) return read();
  // Jitter stream keyed by the record so concurrent loader threads
  // retrying different keys don't back off in lockstep, while a replayed
  // run retries each key on the identical schedule.
  uint64_t jitter_seed =
      Rng::StreamSeed(0x5254525EULL, std::hash<std::string>{}(key));
  return RetryWithBackoff(retry_, jitter_seed, read);
}

Status FeatureStore::Ingest(const graph::HeteroGraph& g) {
  std::vector<KvRecord> records;
  records.reserve(1 + 3 * static_cast<size_t>(g.num_nodes()));
  records.push_back(
      {kMetaKey, EncodeMetaRow(g.num_nodes(), g.feature_dim())});
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    records.push_back({NodeKey(v), EncodeNodeRow(g.node_type(v), g.label(v),
                                                 g.HasFeatures(v))});
    if (g.HasFeatures(v)) {
      records.push_back(
          {FeatKey(v), EncodeFeatureRow(g.Features(v), g.feature_dim())});
    }
    std::string adj;
    for (int64_t e = g.InDegreeBegin(v); e < g.InDegreeEnd(v); ++e) {
      AppendAdjEntry(g.neighbors()[e],
                     static_cast<uint8_t>(g.edge_types()[e]), &adj);
    }
    records.push_back({AdjKey(v), std::move(adj)});
  }
  return store_->PutBatch(records);
}

Result<int64_t> FeatureStore::NumNodes(uint64_t epoch) const {
  std::string meta;
  XF_RETURN_IF_ERROR(GetWithRetry(kMetaKey, &meta, epoch));
  int64_t num_nodes = 0, dim = 0;
  XF_RETURN_IF_ERROR(DecodeMetaRow(meta, &num_nodes, &dim));
  return num_nodes;
}

Result<int64_t> FeatureStore::FeatureDim(uint64_t epoch) const {
  std::string meta;
  XF_RETURN_IF_ERROR(GetWithRetry(kMetaKey, &meta, epoch));
  int64_t num_nodes = 0, dim = 0;
  XF_RETURN_IF_ERROR(DecodeMetaRow(meta, &num_nodes, &dim));
  return dim;
}

Status FeatureStore::ReadFeatures(int32_t node, std::vector<float>* out,
                                  uint64_t epoch) const {
  std::string raw;
  XF_RETURN_IF_ERROR(GetWithRetry(FeatKey(node), &raw, epoch));
  return DecodeFeatureRow(raw, out);
}

Status FeatureStore::ReadNeighbors(int32_t node,
                                   std::vector<int32_t>* neighbors,
                                   std::vector<uint8_t>* edge_types,
                                   uint64_t epoch) const {
  std::string raw;
  // Adjacency rows are immutable within a published epoch, so epoch-pinned
  // reads may be served from (and fill) the shared per-epoch cache. Head
  // rows mutate under writers — never cached.
  const bool cacheable = adj_cache_ != nullptr && epoch != kHeadEpoch;
  if (!cacheable || !adj_cache_->Lookup(epoch, node, &raw)) {
    XF_RETURN_IF_ERROR(GetWithRetry(AdjKey(node), &raw, epoch));
    if (cacheable) adj_cache_->Insert(epoch, node, raw);
  }
  return DecodeAdjRow(raw, neighbors, edge_types);
}

Status FeatureStore::ReadNode(int32_t node, graph::NodeType* type,
                              int8_t* label, uint64_t epoch) const {
  std::string raw;
  XF_RETURN_IF_ERROR(GetWithRetry(NodeKey(node), &raw, epoch));
  return DecodeNodeRow(raw, type, label);
}

Result<graph::MiniBatch> FeatureStore::LoadBatch(
    const std::vector<int32_t>& seeds, int hops, int fanout, xfraud::Rng* rng,
    uint64_t epoch) const {
  return LoadBatchImpl(seeds, hops, fanout, rng, epoch, nullptr);
}

Result<graph::MiniBatch> FeatureStore::LoadBatchDegraded(
    const std::vector<int32_t>& seeds, int hops, int fanout,
    xfraud::Rng* rng, uint64_t epoch, DegradedLoadStats* stats) const {
  *stats = DegradedLoadStats{};
  return LoadBatchImpl(seeds, hops, fanout, rng, epoch, stats);
}

Result<graph::MiniBatch> FeatureStore::LoadBatchImpl(
    const std::vector<int32_t>& seeds, int hops, int fanout,
    xfraud::Rng* rng, uint64_t epoch, DegradedLoadStats* stats) const {
  // Metadata must be readable — without the feature dim no batch shape
  // exists, degraded or not.
  Result<int64_t> dim = FeatureDim(epoch);
  if (!dim.ok()) return dim.status();

  graph::MiniBatch batch;
  graph::Subgraph& sub = batch.sub;
  auto add_node = [&sub](int32_t global) {
    auto [it, inserted] = sub.local_of.emplace(
        global, static_cast<int32_t>(sub.nodes.size()));
    if (inserted) sub.nodes.push_back(global);
    return it->second;
  };

  std::vector<int32_t> frontier;
  for (int32_t seed : seeds) {
    if (sub.local_of.count(seed) == 0) {
      add_node(seed);
      frontier.push_back(seed);
    }
  }
  // BFS expansion through KV adjacency reads.
  std::vector<int32_t> neighbors;
  std::vector<uint8_t> etypes;
  for (int hop = 0; hop < hops && !frontier.empty(); ++hop) {
    std::vector<int32_t> next;
    for (int32_t v : frontier) {
      XF_RETURN_IF_ERROR(CheckDeadline("feature_store/expand"));
      Status ns = ReadNeighbors(v, &neighbors, &etypes, epoch);
      if (!ns.ok()) {
        if (stats == nullptr) return ns;
        // Degraded: the node stays in the batch, its neighborhood is
        // simply not expanded this hop.
        ++stats->failed_adjacency_reads;
        continue;
      }
      int64_t degree = static_cast<int64_t>(neighbors.size());
      int64_t take = fanout < 0 ? degree
                                : std::min<int64_t>(degree, fanout);
      // Partial shuffle when capping.
      std::vector<int64_t> order(degree);
      for (int64_t i = 0; i < degree; ++i) order[i] = i;
      if (take < degree) {
        for (int64_t i = 0; i < take; ++i) {
          int64_t j = i + static_cast<int64_t>(rng->NextBounded(degree - i));
          std::swap(order[i], order[j]);
        }
      }
      for (int64_t i = 0; i < take; ++i) {
        int32_t u = neighbors[order[i]];
        if (sub.local_of.count(u) == 0) {
          add_node(u);
          next.push_back(u);
        }
      }
    }
    frontier = std::move(next);
  }

  // Induce edges and fill tensors via KV reads.
  batch.features = nn::Tensor(static_cast<int64_t>(sub.nodes.size()),
                              dim.value());
  batch.node_types.resize(sub.nodes.size());
  for (size_t local = 0; local < sub.nodes.size(); ++local) {
    int32_t global = sub.nodes[local];
    XF_RETURN_IF_ERROR(CheckDeadline("feature_store/materialize"));
    graph::NodeType type = graph::NodeType::kTxn;
    int8_t label = graph::kLabelUnknown;
    Status node_status = ReadNode(global, &type, &label, epoch);
    if (!node_status.ok()) {
      if (stats == nullptr) return node_status;
      // Degraded: impute the type (kTxn keeps the row flowing through the
      // transaction projections, matching its zeroed features).
      ++stats->imputed_node_types;
      type = graph::NodeType::kTxn;
    }
    batch.node_types[local] = static_cast<int32_t>(type);

    std::vector<float> feat;
    Status fs = ReadFeatures(global, &feat, epoch);
    if (fs.ok()) {
      XF_CHECK_EQ(static_cast<int64_t>(feat.size()), dim.value());
      std::copy(feat.begin(), feat.end(),
                batch.features.Row(static_cast<int64_t>(local)));
    } else if (!fs.IsNotFound()) {
      if (stats == nullptr) return fs;
      // Degraded: the row was zero-initialized; flag it and move on.
      ++stats->imputed_feature_rows;
    }

    Status as = ReadNeighbors(global, &neighbors, &etypes, epoch);
    if (!as.ok()) {
      if (stats == nullptr) return as;
      ++stats->failed_adjacency_reads;
      neighbors.clear();
      etypes.clear();
    }
    for (size_t i = 0; i < neighbors.size(); ++i) {
      auto it = sub.local_of.find(neighbors[i]);
      if (it == sub.local_of.end()) continue;
      sub.src.push_back(it->second);
      sub.dst.push_back(static_cast<int32_t>(local));
      sub.etypes.push_back(static_cast<graph::EdgeType>(etypes[i]));
      batch.edge_src.push_back(it->second);
      batch.edge_dst.push_back(static_cast<int32_t>(local));
      batch.edge_types.push_back(static_cast<int32_t>(etypes[i]));
    }
  }

  for (int32_t seed : seeds) {
    // A seed whose own record is unreadable fails the batch even in
    // degraded mode — there is nothing meaningful to score.
    graph::NodeType type;
    int8_t label;
    XF_RETURN_IF_ERROR(ReadNode(seed, &type, &label, epoch));
    batch.target_locals.push_back(sub.local_of.at(seed));
    batch.target_labels.push_back(label == graph::kLabelFraud ? 1 : 0);
  }
  return batch;
}

}  // namespace xfraud::kv
