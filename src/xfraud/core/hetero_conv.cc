#include "xfraud/core/hetero_conv.h"

#include <cmath>

#include "xfraud/common/logging.h"

namespace xfraud::core {

using nn::Var;

namespace {

/// The first layer's K/V source rows: one per distinct (source node, edge
/// type) pair, in order of first appearance. Returns each pair's node and
/// edge type; kv_row maps each edge to its pair.
void SourceTypePairs(int64_t num_nodes, const std::vector<int32_t>& edge_src,
                     const std::vector<int32_t>& edge_types,
                     std::vector<int32_t>* pair_src,
                     std::vector<int32_t>* pair_type,
                     std::vector<int32_t>* kv_row) {
  kv_row->resize(edge_src.size());
  std::vector<int32_t> slot_of(
      static_cast<size_t>(num_nodes) * graph::kNumEdgeTypes, -1);
  for (size_t e = 0; e < edge_src.size(); ++e) {
    int32_t& slot =
        slot_of[static_cast<size_t>(edge_src[e]) * graph::kNumEdgeTypes +
                static_cast<size_t>(edge_types[e])];
    if (slot < 0) {
      slot = static_cast<int32_t>(pair_src->size());
      pair_src->push_back(edge_src[e]);
      pair_type->push_back(edge_types[e]);
    }
    (*kv_row)[e] = slot;
  }
}

}  // namespace

HeteroConvLayer::HeteroConvLayer(int64_t dim, int num_heads, float dropout,
                                 bool first_layer, bool use_residual,
                                 xfraud::Rng* rng)
    : dim_(dim),
      num_heads_(num_heads),
      head_dim_(dim / num_heads),
      dropout_(dropout),
      first_layer_(first_layer),
      use_residual_(use_residual),
      norm_(dim) {
  XF_CHECK_EQ(head_dim_ * num_heads, dim) << "dim must divide num_heads";
  q_linears_.reserve(graph::kNumNodeTypes);
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    q_linears_.emplace_back(dim, dim, rng);
    k_linears_.emplace_back(dim, dim, rng);
    v_linears_.emplace_back(dim, dim, rng);
  }
  float bound = std::sqrt(6.0f / static_cast<float>(dim));
  w_att_src_ = Var(nn::Tensor::Uniform(graph::kNumNodeTypes, dim, bound, rng),
                   /*requires_grad=*/true);
  w_att_dst_ = Var(nn::Tensor::Uniform(graph::kNumNodeTypes, dim, bound, rng),
                   /*requires_grad=*/true);
  edge_type_emb_ = Var(nn::Tensor(graph::kNumEdgeTypes, dim, 0.0f),
                       /*requires_grad=*/true);
}

Var HeteroConvLayer::Forward(const Var& node_input,
                             const std::vector<int32_t>& node_types,
                             const std::vector<int32_t>& edge_src,
                             const std::vector<int32_t>& edge_dst,
                             const std::vector<int32_t>& edge_types,
                             const ForwardOptions& options) const {
  int64_t num_nodes = node_input.rows();
  XF_CHECK_EQ(node_input.cols(), dim_);
  XF_CHECK_EQ(edge_src.size(), edge_dst.size());
  XF_CHECK_EQ(edge_src.size(), edge_types.size());
  XF_CHECK_EQ(static_cast<int64_t>(node_types.size()), num_nodes);

  if (edge_src.empty()) {
    // Isolated batch: no messages; normalization + activation only.
    return nn::Relu(norm_.Forward(node_input));
  }

  // Per-edge endpoint types, which select the attention parameter rows.
  std::vector<int32_t> src_types(edge_src.size());
  std::vector<int32_t> dst_types(edge_src.size());
  for (size_t e = 0; e < edge_src.size(); ++e) {
    XF_CHECK_BOUNDS(edge_src[e], num_nodes);
    XF_CHECK_BOUNDS(edge_dst[e], num_nodes);
    XF_CHECK_BOUNDS(edge_types[e], graph::kNumEdgeTypes);
    src_types[e] = node_types[edge_src[e]];
    dst_types[e] = node_types[edge_dst[e]];
  }

  // Queries are per target node (eqs. 2/3); AttentionScores reads them
  // through edge_dst.
  Var q_nodes = ApplyTypedLinear(q_linears_, node_input, node_types);

  // An edge's key and value depend only on its source state plus — at the
  // first layer — the edge-type embedding (eqs. 4-7), so both live at the
  // source rows, forward and backward: the nodes themselves at later
  // layers, the distinct (source, edge type) pairs at the first. kv_row
  // maps each edge to its row; the attention ops read K and V through it.
  Var kv_input = node_input;
  std::vector<int32_t> kv_row = edge_src;
  std::vector<int32_t> pair_node_types;
  if (first_layer_) {
    std::vector<int32_t> pair_src;
    std::vector<int32_t> pair_type;
    SourceTypePairs(num_nodes, edge_src, edge_types, &pair_src, &pair_type,
                    &kv_row);
    kv_input = nn::Add(nn::IndexRows(node_input, pair_src),
                       nn::IndexRows(edge_type_emb_, pair_type));
    for (int32_t node : pair_src) pair_node_types.push_back(node_types[node]);
  }
  const std::vector<int32_t>& kv_types =
      first_layer_ ? pair_node_types : node_types;
  Var k = ApplyTypedLinear(k_linears_, kv_input, kv_types);
  Var v = ApplyTypedLinear(v_linears_, kv_input, kv_types);

  // eq. 8, per head, with the attention parameter rows selected by
  // endpoint type: one fused op over the edges.
  float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Var scores = nn::AttentionScores(k, kv_row, q_nodes, edge_dst, w_att_src_,
                                   src_types, w_att_dst_, dst_types,
                                   num_heads_, inv_sqrt_dk);  // [E, H]

  Var agg;
  if (options.edge_mask == nullptr) {
    // Hot path (train + serve): eqs. 9-10 + the eq. 1 aggregate in one
    // fused kernel — softmax-normalize per target, per-head value
    // weighting, scatter-add — instead of five full passes over the [E,D]
    // message block. Bit-identical to the composed ops below, including
    // dropout RNG consumption.
    agg = nn::AttentionAggregate(scores, v, kv_row, edge_dst, num_nodes,
                                 head_dim_, dropout_, options.training,
                                 options.rng);
  } else {
    // Explainer path: the learned edge mask multiplies the message block
    // between weighting and aggregation, so it stays on the composed ops.
    // eq. 9: normalize over each target's in-neighbourhood, per head.
    Var att = nn::SegmentSoftmax(scores, edge_dst, num_nodes);
    att = nn::Dropout(att, dropout_, options.training, options.rng);

    // eq. 10: per-head value weighting, concatenated back to [E, dim].
    Var v_edges = nn::IndexRows(v, kv_row);
    Var messages;
    for (int h = 0; h < num_heads_; ++h) {
      Var v_h = nn::SliceCols(v_edges, h * head_dim_, head_dim_);
      Var att_h = nn::SliceCols(att, h, 1);
      Var msg_h = nn::MulColBroadcast(v_h, att_h);
      messages = messages.defined() ? nn::ConcatCols(messages, msg_h) : msg_h;
    }
    messages = nn::MulColBroadcast(messages, *options.edge_mask);

    // eq. 1 aggregate (paper §3.2.1 step 2).
    agg = nn::ScatterAddRows(messages, edge_dst, num_nodes);
  }
  Var h = use_residual_ ? nn::Add(agg, node_input) : agg;
  return nn::Relu(norm_.Forward(h));
}

void HeteroConvLayer::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParameter>* out) const {
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    std::string type_name = graph::NodeTypeName(static_cast<graph::NodeType>(t));
    q_linears_[t].CollectParameters(prefix + "q." + type_name + ".", out);
    k_linears_[t].CollectParameters(prefix + "k." + type_name + ".", out);
    v_linears_[t].CollectParameters(prefix + "v." + type_name + ".", out);
  }
  out->push_back({prefix + "w_att_src", w_att_src_});
  out->push_back({prefix + "w_att_dst", w_att_dst_});
  if (first_layer_) out->push_back({prefix + "edge_type_emb", edge_type_emb_});
  norm_.CollectParameters(prefix + "norm.", out);
}

}  // namespace xfraud::core
