#include "xfraud/core/hetero_conv.h"

#include <cmath>
#include <numeric>
#include <utility>

#include "xfraud/common/logging.h"

namespace xfraud::core {

using nn::Var;

namespace {

/// The distinct (source node, edge type) pairs of an edge list, in order of
/// first appearance: each pair's node and edge type, and each edge's pair.
void SourceTypePairs(int64_t num_nodes, const std::vector<int32_t>& edge_src,
                     const std::vector<int32_t>& edge_types,
                     std::vector<int32_t>* pair_src,
                     std::vector<int32_t>* pair_type,
                     std::vector<int32_t>* edge_pair) {
  edge_pair->resize(edge_src.size());
  std::vector<int32_t> slot_of(
      static_cast<size_t>(num_nodes) * graph::kNumEdgeTypes, -1);
  for (size_t e = 0; e < edge_src.size(); ++e) {
    XF_CHECK_BOUNDS(edge_src[e], num_nodes);
    XF_CHECK_BOUNDS(edge_types[e], graph::kNumEdgeTypes);
    int32_t& slot =
        slot_of[static_cast<size_t>(edge_src[e]) * graph::kNumEdgeTypes +
                static_cast<size_t>(edge_types[e])];
    if (slot < 0) {
      slot = static_cast<int32_t>(pair_src->size());
      pair_src->push_back(edge_src[e]);
      pair_type->push_back(edge_types[e]);
    }
    (*edge_pair)[e] = slot;
  }
}

/// `rows` (ids below `bound`, ascending) as the inverse map id -> position;
/// ids not in `rows` map to -1.
std::vector<int32_t> PositionOf(const std::vector<int32_t>& rows,
                                int64_t bound) {
  std::vector<int32_t> pos(static_cast<size_t>(bound), -1);
  for (size_t i = 0; i < rows.size(); ++i) {
    pos[rows[i]] = static_cast<int32_t>(i);
  }
  return pos;
}

/// The ids i < marked.size() with marked[i] set, ascending.
std::vector<int32_t> MarkedIds(const std::vector<char>& marked) {
  std::vector<int32_t> ids;
  for (size_t i = 0; i < marked.size(); ++i) {
    if (marked[i]) ids.push_back(static_cast<int32_t>(i));
  }
  return ids;
}

}  // namespace

LayerPlan FullLayerPlan(std::vector<int32_t> input_types,
                        const std::vector<int32_t>& src,
                        const std::vector<int32_t>& dst,
                        const std::vector<int32_t>& types) {
  XF_CHECK_EQ(types.size(), src.size());
  const int64_t num_rows = static_cast<int64_t>(input_types.size());
  const int64_t num_edges = static_cast<int64_t>(src.size());
  LayerPlan plan;
  plan.input_types = std::move(input_types);
  plan.output_rows.resize(static_cast<size_t>(num_rows));
  std::iota(plan.output_rows.begin(), plan.output_rows.end(), 0);
  plan.edge_src = src;
  plan.edge_dst = dst;
  plan.edge_types = types;
  plan.edge_rows.resize(static_cast<size_t>(num_edges));
  std::iota(plan.edge_rows.begin(), plan.edge_rows.end(), 0);
  plan.num_batch_edges = num_edges;
  SourceTypePairs(num_rows, src, types, &plan.pair_src, &plan.pair_type,
                  &plan.edge_pair);
  return plan;
}

ReceptiveFieldPlan PlanReceptiveField(const std::vector<int32_t>& node_types,
                                      const std::vector<int32_t>& edge_src,
                                      const std::vector<int32_t>& edge_dst,
                                      const std::vector<int32_t>& edge_types,
                                      const std::vector<int32_t>& targets,
                                      int num_layers) {
  const int64_t num_nodes = static_cast<int64_t>(node_types.size());
  const size_t num_edges = edge_src.size();
  XF_CHECK_EQ(edge_dst.size(), num_edges);
  XF_CHECK_EQ(edge_types.size(), num_edges);
  XF_CHECK_GE(num_layers, 0);
  for (size_t e = 0; e < num_edges; ++e) {
    XF_CHECK_BOUNDS(edge_src[e], num_nodes);
    XF_CHECK_BOUNDS(edge_dst[e], num_nodes);
    XF_CHECK_BOUNDS(edge_types[e], graph::kNumEdgeTypes);
  }
  // Walk back from the targets: `needed` marks the rows layer l outputs,
  // then the rows it reads, which the layer below outputs.
  std::vector<char> needed(static_cast<size_t>(num_nodes), 0);
  for (int32_t t : targets) {
    XF_CHECK_BOUNDS(t, num_nodes);
    needed[t] = 1;
  }
  ReceptiveFieldPlan plan;
  if (num_layers == 0) {
    // The targets read the input block, which covers every node.
    plan.target_rows = targets;
    return plan;
  }
  plan.layers.resize(static_cast<size_t>(num_layers));
  // Layer l's output rows as batch ids, and each id's output row.
  std::vector<int32_t> output = MarkedIds(needed);
  std::vector<int32_t> out_pos = PositionOf(output, num_nodes);
  plan.target_rows.reserve(targets.size());
  for (int32_t t : targets) plan.target_rows.push_back(out_pos[t]);
  for (int l = num_layers - 1; l >= 0; --l) {
    LayerPlan& layer = plan.layers[static_cast<size_t>(l)];
    std::vector<int32_t> kept;
    for (size_t e = 0; e < num_edges; ++e) {
      if (needed[edge_dst[e]]) kept.push_back(static_cast<int32_t>(e));
    }
    // Layer 0 reads the input projection, which covers every node in
    // batch order; a later layer reads the rows the layer below outputs.
    std::vector<int32_t> input;
    std::vector<int32_t> in_pos;
    if (l == 0) {
      layer.input_types = node_types;
    } else {
      for (int32_t e : kept) needed[edge_src[e]] = 1;
      input = MarkedIds(needed);
      in_pos = PositionOf(input, num_nodes);
      layer.input_types.reserve(input.size());
      for (int32_t id : input) layer.input_types.push_back(node_types[id]);
    }
    auto input_row = [&](int32_t id) { return l == 0 ? id : in_pos[id]; };
    layer.output_rows.reserve(output.size());
    for (int32_t id : output) layer.output_rows.push_back(input_row(id));
    layer.edge_src.reserve(kept.size());
    layer.edge_dst.reserve(kept.size());
    layer.edge_types.reserve(kept.size());
    for (int32_t e : kept) {
      layer.edge_src.push_back(input_row(edge_src[e]));
      layer.edge_dst.push_back(out_pos[edge_dst[e]]);
      layer.edge_types.push_back(edge_types[e]);
    }
    layer.edge_rows = std::move(kept);
    layer.num_batch_edges = static_cast<int64_t>(num_edges);
    output = std::move(input);
    out_pos = std::move(in_pos);
  }

  // The first layer's K/V pairs keep the order in which they first appear
  // among all the batch's edges, so each pair row's gradient lands in its
  // whole-batch place.
  LayerPlan& first = plan.layers.front();
  std::vector<int32_t> all_src;
  std::vector<int32_t> all_type;
  std::vector<int32_t> pair_of_edge;
  SourceTypePairs(num_nodes, edge_src, edge_types, &all_src, &all_type,
                  &pair_of_edge);
  std::vector<int32_t> compact(all_src.size(), -1);
  for (int32_t e : first.edge_rows) compact[pair_of_edge[e]] = 0;
  for (size_t p = 0; p < compact.size(); ++p) {
    if (compact[p] < 0) continue;
    compact[p] = static_cast<int32_t>(first.pair_src.size());
    first.pair_src.push_back(all_src[p]);
    first.pair_type.push_back(all_type[p]);
  }
  first.edge_pair.reserve(first.edge_rows.size());
  for (int32_t e : first.edge_rows) {
    first.edge_pair.push_back(compact[pair_of_edge[e]]);
  }
  return plan;
}

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

Var HeteroConvLayer::Forward(const Var& node_input, const LayerPlan& plan,
                             const ForwardOptions& options) const {
  const int64_t num_inputs = node_input.rows();
  const int64_t num_outputs = static_cast<int64_t>(plan.output_rows.size());
  const size_t num_edges = plan.edge_src.size();
  XF_CHECK_EQ(node_input.cols(), dim_);
  XF_CHECK_EQ(static_cast<int64_t>(plan.input_types.size()), num_inputs);
  XF_CHECK_EQ(plan.edge_dst.size(), num_edges);
  XF_CHECK_EQ(plan.edge_types.size(), num_edges);
  XF_CHECK_EQ(plan.edge_rows.size(), num_edges);

  // Each output row's type selects its Q and attention parameters.
  std::vector<int32_t> output_types(plan.output_rows.size());
  for (size_t i = 0; i < plan.output_rows.size(); ++i) {
    XF_CHECK_BOUNDS(plan.output_rows[i], num_inputs);
    output_types[i] = plan.input_types[plan.output_rows[i]];
  }
  // Per-edge endpoint types, which select the attention parameter rows.
  std::vector<int32_t> src_types(num_edges);
  std::vector<int32_t> dst_types(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    XF_CHECK_BOUNDS(plan.edge_src[e], num_inputs);
    XF_CHECK_BOUNDS(plan.edge_dst[e], num_outputs);
    XF_CHECK_BOUNDS(plan.edge_types[e], graph::kNumEdgeTypes);
    XF_CHECK_BOUNDS(plan.edge_rows[e], plan.num_batch_edges);
    src_types[e] = plan.input_types[plan.edge_src[e]];
    dst_types[e] = output_types[plan.edge_dst[e]];
  }

  if (plan.num_batch_edges == 0) {
    // Isolated batch: no messages; normalization + activation only.
    return nn::Relu(norm_.Forward(nn::IndexRows(node_input, plan.output_rows)));
  }

  // Queries are per output row (eqs. 2/3), projected straight from their
  // input rows; AttentionScores reads them through edge_dst. The tape
  // reaches node_input through K first, so the backward runs this op after
  // V's and before K's: node_input's grad takes its terms in the order
  // residual, V, Q, K, the order the trained bits were recorded with.
  Var q_nodes = ApplyTypedLinear(q_linears_, node_input, output_types,
                                 &plan.output_rows);

  // An edge's key and value depend only on its source state plus — at the
  // first layer — the edge-type embedding (eqs. 4-7), so both live at the
  // source rows, forward and backward: at later layers the distinct kept-
  // edge sources, ascending, read in place from the input rows; at the
  // first, the plan's (source, edge type) pairs. kv_row maps each edge to
  // its row; the attention ops read K and V through it.
  Var kv_input = node_input;
  const std::vector<int32_t>* kv_input_rows = nullptr;
  std::vector<int32_t> kv_types;
  std::vector<int32_t> kv_src;
  std::vector<int32_t> edge_kv;
  const std::vector<int32_t>* kv_row = &edge_kv;
  if (first_layer_) {
    XF_CHECK_EQ(plan.edge_pair.size(), num_edges);
    XF_CHECK_EQ(plan.pair_type.size(), plan.pair_src.size());
    const int64_t num_pairs = static_cast<int64_t>(plan.pair_src.size());
    for (size_t p = 0; p < plan.pair_src.size(); ++p) {
      XF_CHECK_BOUNDS(plan.pair_src[p], num_inputs);
      XF_CHECK_BOUNDS(plan.pair_type[p], graph::kNumEdgeTypes);
      kv_types.push_back(plan.input_types[plan.pair_src[p]]);
    }
    for (int32_t pair : plan.edge_pair) XF_CHECK_BOUNDS(pair, num_pairs);
    kv_input = nn::Add(nn::IndexRows(node_input, plan.pair_src),
                       nn::IndexRows(edge_type_emb_, plan.pair_type));
    kv_row = &plan.edge_pair;
  } else {
    std::vector<char> is_source(static_cast<size_t>(num_inputs), 0);
    for (int32_t s : plan.edge_src) is_source[s] = 1;
    kv_src = MarkedIds(is_source);
    std::vector<int32_t> kv_pos = PositionOf(kv_src, num_inputs);
    edge_kv.reserve(num_edges);
    for (int32_t s : plan.edge_src) edge_kv.push_back(kv_pos[s]);
    kv_types.reserve(kv_src.size());
    for (int32_t s : kv_src) kv_types.push_back(plan.input_types[s]);
    kv_input_rows = &kv_src;
  }
  Var k = ApplyTypedLinear(k_linears_, kv_input, kv_types, kv_input_rows);
  Var v = ApplyTypedLinear(v_linears_, kv_input, kv_types, kv_input_rows);

  // eq. 8, per head, with the attention parameter rows selected by
  // endpoint type: one fused op over the edges.
  float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  Var scores = nn::AttentionScores(k, *kv_row, q_nodes, plan.edge_dst,
                                   w_att_src_, src_types, w_att_dst_,
                                   dst_types, num_heads_,
                                   inv_sqrt_dk);  // [E, H]

  // eqs. 9-10 + the eq. 1 aggregate in one fused op. Attention dropout
  // draws its mask over the batch's whole [E, H] edge block and each kept
  // edge reads its own row (as it reads the explainer's edge mask), so the
  // RNG stream and every mask value are those of a whole-batch forward.
  Var edge_weight;
  if (options.edge_mask != nullptr) {
    XF_CHECK_EQ(options.edge_mask->rows(), plan.num_batch_edges);
    edge_weight = nn::IndexRows(*options.edge_mask, plan.edge_rows);
  }
  Var agg = nn::AttentionAggregate(scores, v, *kv_row, plan.edge_dst,
                                   num_outputs, head_dim_, dropout_,
                                   options.training, options.rng,
                                   &plan.edge_rows, plan.num_batch_edges,
                                   edge_weight);
  Var h = use_residual_
              ? nn::Add(agg, nn::IndexRows(node_input, plan.output_rows))
              : agg;
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
