// Structural invariants of the xFraud heterogeneous convolution layer
// (paper eqs. 2-10): permutation equivariance, locality, attention
// normalization, and the typed-linear machinery it is built on.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/core/gnn_model.h"
#include "xfraud/core/hetero_conv.h"
#include "xfraud/nn/ops.h"
#include "normwise_error.h"

namespace xfraud::core {
namespace {

/// A small fixed hetero graph: 2 txns sharing a buyer, each with own pmt.
///   nodes: 0 txn, 1 txn, 2 buyer, 3 pmt, 4 pmt
struct TinyGraph {
  std::vector<int32_t> node_types = {
      static_cast<int32_t>(graph::NodeType::kTxn),
      static_cast<int32_t>(graph::NodeType::kTxn),
      static_cast<int32_t>(graph::NodeType::kBuyer),
      static_cast<int32_t>(graph::NodeType::kPmt),
      static_cast<int32_t>(graph::NodeType::kPmt)};
  std::vector<int32_t> src = {2, 2, 3, 4, 0, 1, 0, 1};
  std::vector<int32_t> dst = {0, 1, 0, 1, 2, 2, 3, 4};
  std::vector<int32_t> etypes = {
      static_cast<int32_t>(graph::EdgeType::kBuyerToTxn),
      static_cast<int32_t>(graph::EdgeType::kBuyerToTxn),
      static_cast<int32_t>(graph::EdgeType::kPmtToTxn),
      static_cast<int32_t>(graph::EdgeType::kPmtToTxn),
      static_cast<int32_t>(graph::EdgeType::kTxnToBuyer),
      static_cast<int32_t>(graph::EdgeType::kTxnToBuyer),
      static_cast<int32_t>(graph::EdgeType::kTxnToPmt),
      static_cast<int32_t>(graph::EdgeType::kTxnToPmt)};
};

nn::Var RandomInput(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  return nn::Var(nn::Tensor::Uniform(n, dim, 1.0f, &rng), false);
}

TEST(HeteroConvTest, OutputShapeMatchesInput) {
  Rng rng(1);
  HeteroConvLayer layer(16, 4, 0.0f, /*first_layer=*/true,
                        /*use_residual=*/true, &rng);
  TinyGraph g;
  nn::Var h = RandomInput(5, 16, 2);
  nn::Var out = layer.Forward(
      h, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes), ForwardOptions{});
  EXPECT_EQ(out.rows(), 5);
  EXPECT_EQ(out.cols(), 16);
}

TEST(HeteroConvTest, PermutationEquivariance) {
  // Relabeling the nodes and permuting the input rows must permute the
  // output rows identically — message passing has no positional notion.
  Rng rng(3);
  HeteroConvLayer layer(8, 2, 0.0f, true, true, &rng);
  TinyGraph g;
  nn::Var h = RandomInput(5, 8, 4);
  nn::Var out = layer.Forward(
      h, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes), ForwardOptions{});

  // Permutation: rotate node ids by 2 (perm[old] = new).
  std::vector<int32_t> perm = {2, 3, 4, 0, 1};
  std::vector<int32_t> p_types(5);
  nn::Tensor p_input(5, 8);
  for (int32_t v = 0; v < 5; ++v) {
    p_types[perm[v]] = g.node_types[v];
    std::copy(h.value().Row(v), h.value().Row(v) + 8,
              p_input.Row(perm[v]));
  }
  std::vector<int32_t> p_src(g.src.size()), p_dst(g.dst.size());
  for (size_t e = 0; e < g.src.size(); ++e) {
    p_src[e] = perm[g.src[e]];
    p_dst[e] = perm[g.dst[e]];
  }
  nn::Var p_h(p_input, false);
  nn::Var p_out = layer.Forward(
      p_h, FullLayerPlan(p_types, p_src, p_dst, g.etypes), ForwardOptions{});
  for (int32_t v = 0; v < 5; ++v) {
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(p_out.value().At(perm[v], c), out.value().At(v, c), 1e-5)
          << "node " << v << " col " << c;
    }
  }
}

TEST(HeteroConvTest, EdgeOrderInvariance) {
  // Shuffling the edge list must not change the result (aggregation is a
  // sum over an unordered neighbourhood).
  Rng rng(5);
  HeteroConvLayer layer(8, 2, 0.0f, true, true, &rng);
  TinyGraph g;
  nn::Var h = RandomInput(5, 8, 6);
  nn::Var base = layer.Forward(
      h, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes), ForwardOptions{});
  std::vector<size_t> order(g.src.size());
  std::iota(order.begin(), order.end(), size_t{0});
  Rng shuffle_rng(7);
  shuffle_rng.Shuffle(&order);
  std::vector<int32_t> s_src, s_dst, s_et;
  for (size_t e : order) {
    s_src.push_back(g.src[e]);
    s_dst.push_back(g.dst[e]);
    s_et.push_back(g.etypes[e]);
  }
  nn::Var shuffled = layer.Forward(
      h, FullLayerPlan(g.node_types, s_src, s_dst, s_et), ForwardOptions{});
  ASSERT_TRUE(base.value().SameShape(shuffled.value()));
  for (int64_t i = 0; i < base.value().size(); ++i) {
    EXPECT_NEAR(base.value().data()[i], shuffled.value().data()[i], 1e-5);
  }
}

TEST(HeteroConvTest, LocalityNoCrossTalkBetweenComponents) {
  // Nodes 3 (pmt of txn 0) and 1/4: changing txn 1's input must not change
  // node 3's output in a single layer (they are not adjacent).
  Rng rng(9);
  HeteroConvLayer layer(8, 2, 0.0f, true, /*use_residual=*/false, &rng);
  TinyGraph g;
  nn::Var h1 = RandomInput(5, 8, 10);
  nn::Tensor modified = h1.value();
  for (int64_t c = 0; c < 8; ++c) modified.At(1, c) += 5.0f;  // perturb txn 1
  nn::Var h2(modified, false);
  nn::Var out1 = layer.Forward(
      h1, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes),
      ForwardOptions{});
  nn::Var out2 = layer.Forward(
      h2, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes),
      ForwardOptions{});
  // Node 3's only in-neighbour is txn 0 -> unchanged.
  for (int64_t c = 0; c < 8; ++c) {
    EXPECT_NEAR(out1.value().At(3, c), out2.value().At(3, c), 1e-5);
  }
  // Node 4's only in-neighbour is txn 1 -> changed.
  double delta = 0.0;
  for (int64_t c = 0; c < 8; ++c) {
    delta += std::fabs(out1.value().At(4, c) - out2.value().At(4, c));
  }
  EXPECT_GT(delta, 1e-3);
}

TEST(HeteroConvTest, EmptyEdgeListIsHandled) {
  Rng rng(11);
  HeteroConvLayer layer(8, 2, 0.0f, true, true, &rng);
  nn::Var h = RandomInput(3, 8, 12);
  std::vector<int32_t> types = {0, 1, 2};
  nn::Var out = layer.Forward(
      h, FullLayerPlan(types, {}, {}, {}), ForwardOptions{});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 8);
}

TEST(HeteroConvTest, FirstLayerUsesEdgeTypeEmbedding) {
  // With first_layer=true, perturbing the edge-type embedding table must
  // change the output; the table is exposed as a parameter.
  Rng rng(13);
  HeteroConvLayer layer(8, 2, 0.0f, /*first_layer=*/true, true, &rng);
  TinyGraph g;
  nn::Var h = RandomInput(5, 8, 14);
  nn::Var base = layer.Forward(
      h, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes), ForwardOptions{});
  auto params = layer.Parameters();
  bool found = false;
  for (auto& p : params) {
    if (p.name.find("edge_type_emb") != std::string::npos) {
      found = true;
      p.var.mutable_value().Fill(0.5f);
    }
  }
  ASSERT_TRUE(found);
  nn::Var perturbed = layer.Forward(
      h, FullLayerPlan(g.node_types, g.src, g.dst, g.etypes), ForwardOptions{});
  double delta = 0.0;
  ASSERT_TRUE(base.value().SameShape(perturbed.value()));
  for (int64_t i = 0; i < base.value().size(); ++i) {
    delta += std::fabs(base.value().data()[i] - perturbed.value().data()[i]);
  }
  EXPECT_GT(delta, 1e-3);
}

TEST(HeteroConvTest, OutOfRangeEdgeIndexThrows) {
  // Malformed edge lists are caught before any row is read, in every build
  // type, at both layer kinds, with and without a tape.
  TinyGraph g;
  for (bool first_layer : {true, false}) {
    Rng rng(19);
    HeteroConvLayer layer(8, 2, 0.0f, first_layer, true, &rng);
    nn::Var h(RandomInput(5, 8, 20).value(), /*requires_grad=*/true);
    for (bool no_grad : {false, true}) {
      for (int field = 0; field < 3; ++field) {
        for (int32_t bad : {-1, field == 2 ? graph::kNumEdgeTypes : 5}) {
          SCOPED_TRACE("first_layer=" + std::to_string(first_layer) +
                       " no_grad=" + std::to_string(no_grad) +
                       " field=" + std::to_string(field) +
                       " index=" + std::to_string(bad));
          LayerPlan plan =
              FullLayerPlan(g.node_types, g.src, g.dst, g.etypes);
          std::vector<int32_t>* edited =
              field == 0 ? &plan.edge_src
                         : (field == 1 ? &plan.edge_dst : &plan.edge_types);
          (*edited)[3] = bad;
          std::optional<nn::NoGradGuard> guard;
          if (no_grad) guard.emplace();
          EXPECT_THROW(layer.Forward(h, plan, ForwardOptions{}), CheckError);
        }
      }
    }
  }
}

TEST(HeteroConvTest, OutputRowOutOfRangeThrows) {
  // A plan's output rows must be input rows, and a kept edge's destination
  // must index the output rows: both are caught before any row is read, in
  // every build type, at both layer kinds, with and without a tape.
  TinyGraph g;
  for (bool first_layer : {true, false}) {
    Rng rng(19);
    HeteroConvLayer layer(8, 2, 0.0f, first_layer, true, &rng);
    nn::Var h(RandomInput(5, 8, 20).value(), /*requires_grad=*/true);
    for (bool no_grad : {false, true}) {
      // Outputs {0, 1, 2}: edges 0-5 end there, edges 6 and 7 do not.
      LayerPlan three = FullLayerPlan(g.node_types, g.src, g.dst, g.etypes);
      three.output_rows = {0, 1, 2};
      for (auto* edges : {&three.edge_src, &three.edge_dst,
                          &three.edge_types, &three.edge_rows}) {
        edges->resize(6);
      }
      three.edge_pair.resize(6);
      std::vector<std::pair<std::string, LayerPlan>> cases;
      for (int32_t bad : {-1, 5}) {
        LayerPlan plan = FullLayerPlan(g.node_types, g.src, g.dst, g.etypes);
        plan.output_rows[2] = bad;
        cases.emplace_back("output row " + std::to_string(bad), plan);
      }
      for (int32_t bad : {-1, 3}) {
        LayerPlan plan = three;
        plan.edge_dst[4] = bad;
        cases.emplace_back("edge_dst " + std::to_string(bad), plan);
      }
      {
        // Edge 6 ends at node 3, outside the output rows.
        LayerPlan plan = three;
        plan.edge_src.push_back(g.src[6]);
        plan.edge_dst.push_back(g.dst[6]);
        plan.edge_types.push_back(g.etypes[6]);
        plan.edge_rows.push_back(6);
        plan.edge_pair.push_back(0);
        cases.emplace_back("edge_dst outside the output rows", plan);
      }
      // The well-formed three-row plan runs: the checks reject only bad rows.
      {
        std::optional<nn::NoGradGuard> guard;
        if (no_grad) guard.emplace();
        nn::Var out = layer.Forward(h, three, ForwardOptions{});
        EXPECT_EQ(out.rows(), 3);
      }
      for (const auto& [name, plan] : cases) {
        SCOPED_TRACE("first_layer=" + std::to_string(first_layer) +
                     " no_grad=" + std::to_string(no_grad) + " " + name);
        std::optional<nn::NoGradGuard> guard;
        if (no_grad) guard.emplace();
        EXPECT_THROW(layer.Forward(h, plan, ForwardOptions{}), CheckError);
      }
    }
  }
}

/// The per-edge K/V chain that HeteroConvLayer::Forward ran before keys
/// and values moved to their source rows, over the layer's own parameters:
/// gather node_input per edge (+ the edge-type embedding at the first
/// layer), then both typed linears over all E rows, read by the attention
/// ops through the identity row map. The oracle of the test below.
nn::Var PerEdgeChainForward(const HeteroConvLayer& layer, bool first_layer,
                            bool use_residual, int num_heads,
                            const nn::Var& node_input,
                            const std::vector<int32_t>& node_types,
                            const std::vector<int32_t>& src,
                            const std::vector<int32_t>& dst,
                            const std::vector<int32_t>& etypes,
                            float dropout, const ForwardOptions& options) {
  std::map<std::string, nn::Var> p;
  for (const auto& named : layer.Parameters()) p[named.name] = named.var;
  auto typed = [&](const char* which, const nn::Var& x,
                   const std::vector<int32_t>& types) {
    std::vector<nn::Var> weights;
    std::vector<nn::Var> biases;
    for (int t = 0; t < graph::kNumNodeTypes; ++t) {
      std::string name = std::string(which) + "." +
                         graph::NodeTypeName(static_cast<graph::NodeType>(t));
      weights.push_back(p.at(name + ".weight"));
      biases.push_back(p.at(name + ".bias"));
    }
    return nn::TypedLinear(x, types, weights, biases);
  };
  std::vector<int32_t> src_types;
  std::vector<int32_t> dst_types;
  for (size_t e = 0; e < src.size(); ++e) {
    src_types.push_back(node_types[src[e]]);
    dst_types.push_back(node_types[dst[e]]);
  }
  nn::Var q_nodes = typed("q", node_input, node_types);
  nn::Var kv_input = nn::IndexRows(node_input, src);
  if (first_layer) {
    kv_input = nn::Add(kv_input, nn::IndexRows(p.at("edge_type_emb"), etypes));
  }
  nn::Var k_edges = typed("k", kv_input, src_types);
  nn::Var v_edges = typed("v", kv_input, src_types);
  const int64_t head_dim = node_input.cols() / num_heads;
  std::vector<int32_t> per_edge(src.size());
  std::iota(per_edge.begin(), per_edge.end(), 0);
  nn::Var scores = nn::AttentionScores(
      k_edges, per_edge, q_nodes, dst, p.at("w_att_src"), src_types,
      p.at("w_att_dst"), dst_types, num_heads,
      1.0f / std::sqrt(static_cast<float>(head_dim)));
  nn::Var agg = nn::AttentionAggregate(scores, v_edges, per_edge, dst,
                                       node_input.rows(), head_dim, dropout,
                                       options.training, options.rng);
  nn::Var h = use_residual ? nn::Add(agg, node_input) : agg;
  return nn::Relu(nn::LayerNorm(h, p.at("norm.gamma"), p.at("norm.beta")));
}

TEST(HeteroConvTest, SourceRowKvMatchesPerEdgeChainWithinBound) {
  // A batch where sources repeat, as in sampled subgraphs: 12 nodes, 60
  // edges, so K/V source rows (nodes, or (node, edge type) pairs at the
  // first layer) are shared by several edges. The forward is bitwise the
  // per-edge chain's. The gradients sum each source row's upstream terms
  // before the projection backward instead of after it, so they differ in
  // rounding only: DESIGN §13.5 bounds each tensor's norm-wise relative
  // error by 1e-5.
  const double kGradBound = 1e-5;
  double max_rel_err = 0.0;
  const int64_t kNodes = 12;
  const int64_t kDim = 8;
  const int kHeads = 2;
  const float kDropout = 0.25f;
  Rng graph_rng(21);
  std::vector<int32_t> node_types(kNodes);
  for (auto& t : node_types) {
    t = static_cast<int32_t>(graph_rng.NextBounded(graph::kNumNodeTypes));
  }
  std::vector<int32_t> src, dst, etypes;
  for (int e = 0; e < 60; ++e) {
    src.push_back(static_cast<int32_t>(graph_rng.NextBounded(kNodes)));
    dst.push_back(static_cast<int32_t>(graph_rng.NextBounded(kNodes)));
    etypes.push_back((src.back() + e % 2) % graph::kNumEdgeTypes);
  }
  Rng data_rng(22);
  nn::Tensor input = nn::Tensor::Uniform(kNodes, kDim, 1.0f, &data_rng);
  nn::Tensor upstream = nn::Tensor::Uniform(kNodes, kDim, 1.0f, &data_rng);

  for (bool first_layer : {true, false}) {
    SCOPED_TRACE("first_layer=" + std::to_string(first_layer));
    Rng init_rng(23);
    HeteroConvLayer layer(kDim, kHeads, kDropout, first_layer,
                          /*use_residual=*/true, &init_rng);
    std::vector<nn::NamedParameter> params = layer.Parameters();
    // The first layer's edge-type embedding is zero at init; make it count.
    for (auto& named : params) {
      if (named.name == "edge_type_emb") {
        Rng emb_rng(24);
        named.var.mutable_value() =
            nn::Tensor::Uniform(graph::kNumEdgeTypes, kDim, 1.0f, &emb_rng);
      }
    }

    struct Result {
      nn::Tensor out;
      nn::Tensor input_grad;
      std::vector<nn::Tensor> param_grads;
    };
    // Training forward with dropout, then backward of a weighted sum.
    auto run = [&](bool per_edge_chain) {
      for (auto& named : params) named.var.ZeroGrad();
      nn::Var h(input, /*requires_grad=*/true);
      Rng dropout_rng(25);
      ForwardOptions options;
      options.training = true;
      options.rng = &dropout_rng;
      nn::Var out =
          per_edge_chain
              ? PerEdgeChainForward(layer, first_layer, true, kHeads, h,
                                    node_types, src, dst, etypes, kDropout,
                                    options)
              : layer.Forward(
                    h, FullLayerPlan(node_types, src, dst, etypes), options);
      nn::Sum(nn::Mul(out, nn::Constant(upstream))).Backward();
      Result r{out.value(), h.grad(), {}};
      for (auto& named : params) r.param_grads.push_back(named.var.grad());
      return r;
    };
    Result fused = run(false);
    Result chain = run(true);
    EXPECT_TRUE(fused.out.BitwiseEqual(chain.out));
    double err = NormwiseRelativeError(fused.input_grad, chain.input_grad);
    EXPECT_LE(err, kGradBound) << "node_input";
    max_rel_err = std::max(max_rel_err, err);
    for (size_t i = 0; i < params.size(); ++i) {
      err = NormwiseRelativeError(fused.param_grads[i], chain.param_grads[i]);
      EXPECT_LE(err, kGradBound) << params[i].name;
      max_rel_err = std::max(max_rel_err, err);
    }

    // Inference: the untaped forward builds no per-edge input block and
    // must equal the taped forward bit for bit.
    nn::Var h(input, /*requires_grad=*/true);
    nn::Var taped = layer.Forward(
        h, FullLayerPlan(node_types, src, dst, etypes), ForwardOptions{});
    EXPECT_TRUE(taped.requires_grad());
    nn::NoGradGuard guard;
    nn::Var untaped = layer.Forward(
        h, FullLayerPlan(node_types, src, dst, etypes), ForwardOptions{});
    EXPECT_FALSE(untaped.requires_grad());
    EXPECT_TRUE(untaped.value().BitwiseEqual(taped.value()));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", max_rel_err);
  RecordProperty("max_grad_rel_err", buf);
}

TEST(TypedLinearTest, MatchesManualGrouping) {
  Rng rng(15);
  std::vector<nn::Linear> linears;
  for (int t = 0; t < 3; ++t) linears.emplace_back(4, 4, &rng);
  nn::Var x = RandomInput(6, 4, 16);
  std::vector<int32_t> types = {0, 1, 2, 0, 1, 2};
  nn::Var out = ApplyTypedLinear(linears, x, types);
  // Row r must equal linears[types[r]].Forward(row r).
  for (int32_t r = 0; r < 6; ++r) {
    nn::Tensor row(1, 4);
    std::copy(x.value().Row(r), x.value().Row(r) + 4, row.Row(0));
    nn::Var single = linears[types[r]].Forward(nn::Var(row, false));
    for (int64_t c = 0; c < 4; ++c) {
      EXPECT_NEAR(out.value().At(r, c), single.value().At(0, c), 1e-5);
    }
  }
}

TEST(TypedLinearTest, MissingTypesAreFine) {
  Rng rng(17);
  std::vector<nn::Linear> linears;
  for (int t = 0; t < 5; ++t) linears.emplace_back(4, 4, &rng);
  nn::Var x = RandomInput(3, 4, 18);
  std::vector<int32_t> types = {2, 2, 2};  // only type 2 present
  nn::Var out = ApplyTypedLinear(linears, x, types);
  EXPECT_EQ(out.rows(), 3);
}

}  // namespace
}  // namespace xfraud::core
