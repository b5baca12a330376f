#include "xfraud/graph/hetero_graph.h"

#include "xfraud/common/logging.h"

namespace xfraud::graph {

const char* NodeTypeName(NodeType type) {
  switch (type) {
    case NodeType::kTxn:
      return "txn";
    case NodeType::kPmt:
      return "pmt";
    case NodeType::kEmail:
      return "email";
    case NodeType::kAddr:
      return "addr";
    case NodeType::kBuyer:
      return "buyer";
  }
  return "?";
}

const char* EdgeTypeName(EdgeType type) {
  switch (type) {
    case EdgeType::kTxnToPmt:
      return "txn->pmt";
    case EdgeType::kPmtToTxn:
      return "pmt->txn";
    case EdgeType::kTxnToEmail:
      return "txn->email";
    case EdgeType::kEmailToTxn:
      return "email->txn";
    case EdgeType::kTxnToAddr:
      return "txn->addr";
    case EdgeType::kAddrToTxn:
      return "addr->txn";
    case EdgeType::kTxnToBuyer:
      return "txn->buyer";
    case EdgeType::kBuyerToTxn:
      return "buyer->txn";
  }
  return "?";
}

EdgeType TxnToEntityEdge(NodeType entity) {
  switch (entity) {
    case NodeType::kPmt:
      return EdgeType::kTxnToPmt;
    case NodeType::kEmail:
      return EdgeType::kTxnToEmail;
    case NodeType::kAddr:
      return EdgeType::kTxnToAddr;
    case NodeType::kBuyer:
      return EdgeType::kTxnToBuyer;
    case NodeType::kTxn:
      break;
  }
  XF_CHECK(false) << "txn is not a linking entity";
  return EdgeType::kTxnToPmt;
}

EdgeType EntityToTxnEdge(NodeType entity) {
  switch (entity) {
    case NodeType::kPmt:
      return EdgeType::kPmtToTxn;
    case NodeType::kEmail:
      return EdgeType::kEmailToTxn;
    case NodeType::kAddr:
      return EdgeType::kAddrToTxn;
    case NodeType::kBuyer:
      return EdgeType::kBuyerToTxn;
    case NodeType::kTxn:
      break;
  }
  XF_CHECK(false) << "txn is not a linking entity";
  return EdgeType::kPmtToTxn;
}

HeteroGraph::HeteroGraph(std::vector<NodeType> node_types,
                         std::vector<int64_t> offsets,
                         std::vector<int32_t> neighbors,
                         std::vector<EdgeType> edge_types,
                         nn::Tensor txn_features,
                         std::vector<int32_t> feature_row,
                         std::vector<int8_t> labels)
    : node_types_(std::move(node_types)),
      offsets_(std::move(offsets)),
      neighbors_(std::move(neighbors)),
      edge_types_(std::move(edge_types)),
      txn_features_(std::move(txn_features)),
      feature_row_(std::move(feature_row)),
      labels_(std::move(labels)) {
  XF_CHECK_EQ(offsets_.size(), node_types_.size() + 1);
  XF_CHECK_EQ(neighbors_.size(), edge_types_.size());
  XF_CHECK_EQ(feature_row_.size(), node_types_.size());
  XF_CHECK_EQ(labels_.size(), node_types_.size());
  // CSR contract: offsets bracket the edge array and are monotone, every
  // neighbour id is a valid node, every feature row points into the feature
  // block. A violation here is how a corrupt deserialized graph would
  // otherwise surface as silent out-of-bounds reads deep in the sampler.
  XF_CHECK_EQ(offsets_.front(), 0);
  XF_CHECK_EQ(offsets_.back(), static_cast<int64_t>(neighbors_.size()));
  for (size_t v = 0; v + 1 < offsets_.size(); ++v) {
    XF_CHECK_LE(offsets_[v], offsets_[v + 1]) << "offsets not monotone at " << v;
  }
  for (size_t e = 0; e < neighbors_.size(); ++e) {
    XF_CHECK_BOUNDS(neighbors_[e], num_nodes()) << "edge " << e;
  }
  for (size_t v = 0; v < feature_row_.size(); ++v) {
    if (feature_row_[v] >= 0) {
      XF_CHECK_LT(feature_row_[v], txn_features_.rows()) << "node " << v;
    }
  }
}

std::vector<int32_t> HeteroGraph::LabeledTransactions() const {
  std::vector<int32_t> out;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    if (node_types_[v] == NodeType::kTxn && labels_[v] != kLabelUnknown) {
      out.push_back(static_cast<int32_t>(v));
    }
  }
  return out;
}

std::vector<int32_t> HeteroGraph::NodesOfType(NodeType type) const {
  std::vector<int32_t> out;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    if (node_types_[v] == type) out.push_back(static_cast<int32_t>(v));
  }
  return out;
}

std::vector<int64_t> HeteroGraph::NodeTypeCounts() const {
  std::vector<int64_t> counts(kNumNodeTypes, 0);
  for (NodeType t : node_types_) ++counts[static_cast<int>(t)];
  return counts;
}

double HeteroGraph::FraudRate() const {
  int64_t labeled = 0;
  int64_t fraud = 0;
  for (int64_t v = 0; v < num_nodes(); ++v) {
    if (node_types_[v] != NodeType::kTxn) continue;
    if (labels_[v] == kLabelUnknown) continue;
    ++labeled;
    fraud += labels_[v] == kLabelFraud;
  }
  return labeled == 0 ? 0.0 : static_cast<double>(fraud) / labeled;
}

double HeteroGraph::AvgDegree() const {
  return num_nodes() == 0
             ? 0.0
             : static_cast<double>(num_edges()) / num_nodes();
}

}  // namespace xfraud::graph
