#ifndef XFRAUD_CORE_HETERO_CONV_H_
#define XFRAUD_CORE_HETERO_CONV_H_

#include <vector>

#include "xfraud/core/gnn_model.h"
#include "xfraud/graph/hetero_graph.h"
#include "xfraud/nn/modules.h"

namespace xfraud::core {

/// The rows and edges one HeteroConvLayer::Forward call runs over: one
/// layer of a receptive-field plan (PlanReceptiveField). Row ids index the
/// layer's input block; edge ids index the batch's edge list.
struct LayerPlan {
  /// Node type of each input row.
  std::vector<int32_t> input_types;
  /// The input rows the layer outputs, one output row each, in order.
  std::vector<int32_t> output_rows;
  /// The kept edges, in batch order: each one's source (an input row), its
  /// destination (an index into output_rows) and its edge type.
  std::vector<int32_t> edge_src;
  std::vector<int32_t> edge_dst;
  std::vector<int32_t> edge_types;
  /// Each kept edge's row of the batch's [num_batch_edges, ·] edge blocks:
  /// the attention-dropout mask, drawn over all of them, and
  /// ForwardOptions::edge_mask.
  std::vector<int32_t> edge_rows;
  int64_t num_batch_edges = 0;
  /// First layer only: its keys and values live at the distinct (source,
  /// edge type) pairs of the batch's edges, in order of first appearance
  /// in the batch, restricted to the pairs a kept edge reads. pair_src and
  /// pair_type hold each pair's input row and edge type; edge_pair maps
  /// each kept edge to its pair.
  std::vector<int32_t> pair_src;
  std::vector<int32_t> pair_type;
  std::vector<int32_t> edge_pair;
};

/// The plan of a layer that outputs every input row and keeps every edge —
/// a whole-graph forward. src, dst and types describe the edges over the
/// rows typed by input_types.
LayerPlan FullLayerPlan(std::vector<int32_t> input_types,
                        const std::vector<int32_t>& src,
                        const std::vector<int32_t>& dst,
                        const std::vector<int32_t>& types);

/// The receptive field of an L-layer stack over a batch of N nodes whose
/// layer-0 input covers every node.
struct ReceptiveFieldPlan {
  std::vector<LayerPlan> layers;
  /// Each target's row of the last layer's output.
  std::vector<int32_t> target_rows;
};

/// Walks back from the targets (GraphSAGE's minibatch Algorithm 2): the
/// last layer outputs the distinct targets, and each earlier layer outputs
/// the rows the next one reads — its output rows (queries, residual) and
/// its kept edges' sources (keys, values). A layer keeps the edges whose
/// destination it outputs. Output rows ascend in batch node id at every
/// layer, and kept edges keep batch order, so each row's sums take the
/// same terms in the same order as a whole-batch forward, less the ones
/// that carry no signal to a target.
ReceptiveFieldPlan PlanReceptiveField(const std::vector<int32_t>& node_types,
                                      const std::vector<int32_t>& edge_src,
                                      const std::vector<int32_t>& edge_dst,
                                      const std::vector<int32_t>& edge_types,
                                      const std::vector<int32_t>& targets,
                                      int num_layers);

/// One heterogeneous convolution layer of the xFraud detector
/// (paper §3.2.2, eqs. 2-10).
///
/// For every edge e = (v_s, v_t) and attention head i:
///   Q^i(v_t) = Q-Linear_{τ(v_t)}^i(input_t)                       (eq. 2/3)
///   K^i(v_s) = K-Linear_{τ(v_s)}^i(input_s [+ φ(e)^emb at l=1])   (eq. 4/5)
///   V^i(v_s) = V-Linear_{τ(v_s)}^i(input_s [+ φ(e)^emb at l=1])   (eq. 6/7)
///   α-head^i = (K^i(v_s)·w_att_{τ(v_s)} + Q^i(v_t)·w_att_{τ(v_t)}) / √d_k
///                                                                  (eq. 8)
///   α        = softmax over N(v_t) of the per-head scores          (eq. 9)
///   msg      = ‖_i V^i(v_s) ⊙ dropout(α-head^i)                    (eq. 10)
///   H^l[v_t] = Aggregate (sum over incoming messages)              (eq. 1)
/// followed by layer normalization and ReLU (paper §3.2.1 step 2), with an
/// optional residual connection.
///
/// Node-type embeddings and edge-type embeddings are zero-initialized
/// learnable tables (paper §3.2.2 item (1)); type embeddings enter the layer
/// inputs at l = 1 only, exactly as eqs. 2-7 prescribe. The attention
/// weights w_att are per-node-type vectors (one d_k block per head),
/// uniform-random initialized. The softmax in eq. 9 is a segment softmax
/// keyed by the target node, computed per head.
class HeteroConvLayer : public nn::Module {
 public:
  HeteroConvLayer(int64_t dim, int num_heads, float dropout, bool first_layer,
                  bool use_residual, xfraud::Rng* rng);

  /// Runs the layer over `plan`. `node_input` is H^{l-1} at the plan's
  /// input rows [M, dim]; returns H^l at its output rows
  /// [|output_rows|, dim]. Q, the residual and the layer norm run over the
  /// output rows, K and V over the kept edges' distinct sources (the first
  /// layer: over its (source, edge type) pairs), attention over the kept
  /// edges. Q and the later layers' K and V read their input rows in place.
  /// `options.edge_mask` optionally rescales each edge's message
  /// ([num_batch_edges, 1], explainer hook; AttentionAggregate's weight).
  nn::Var Forward(const nn::Var& node_input, const LayerPlan& plan,
                  const ForwardOptions& options) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParameter>* out) const override;

 private:
  int64_t dim_;
  int num_heads_;
  int64_t head_dim_;
  float dropout_;
  bool first_layer_;
  bool use_residual_;

  std::vector<nn::Linear> q_linears_;  // one per node type
  std::vector<nn::Linear> k_linears_;
  std::vector<nn::Linear> v_linears_;
  nn::Var w_att_src_;  // [kNumNodeTypes, dim]: per-type, per-head d_k blocks
  nn::Var w_att_dst_;
  nn::Var edge_type_emb_;  // [kNumEdgeTypes, dim], zero-init (layer 1 only)
  nn::LayerNormModule norm_;
};

}  // namespace xfraud::core

#endif  // XFRAUD_CORE_HETERO_CONV_H_
