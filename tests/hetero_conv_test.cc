// Structural invariants of the xFraud heterogeneous convolution layer
// (paper eqs. 2-10): permutation equivariance, locality, attention
// normalization, and the typed-linear machinery it is built on.

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "xfraud/core/gnn_model.h"
#include "xfraud/core/hetero_conv.h"

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
  nn::Var out = layer.Forward(h, g.node_types, g.src, g.dst, g.etypes,
                              ForwardOptions{});
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
  nn::Var out = layer.Forward(h, g.node_types, g.src, g.dst, g.etypes,
                              ForwardOptions{});

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
  nn::Var p_out = layer.Forward(p_h, p_types, p_src, p_dst, g.etypes,
                                ForwardOptions{});
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
  nn::Var base = layer.Forward(h, g.node_types, g.src, g.dst, g.etypes,
                               ForwardOptions{});
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
  nn::Var shuffled = layer.Forward(h, g.node_types, s_src, s_dst, s_et,
                                   ForwardOptions{});
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
  nn::Var out1 = layer.Forward(h1, g.node_types, g.src, g.dst, g.etypes,
                               ForwardOptions{});
  nn::Var out2 = layer.Forward(h2, g.node_types, g.src, g.dst, g.etypes,
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
  nn::Var out = layer.Forward(h, types, {}, {}, {}, ForwardOptions{});
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
  nn::Var base = layer.Forward(h, g.node_types, g.src, g.dst, g.etypes,
                               ForwardOptions{});
  auto params = layer.Parameters();
  bool found = false;
  for (auto& p : params) {
    if (p.name.find("edge_type_emb") != std::string::npos) {
      found = true;
      p.var.mutable_value().Fill(0.5f);
    }
  }
  ASSERT_TRUE(found);
  nn::Var perturbed = layer.Forward(h, g.node_types, g.src, g.dst, g.etypes,
                                    ForwardOptions{});
  double delta = 0.0;
  ASSERT_TRUE(base.value().SameShape(perturbed.value()));
  for (int64_t i = 0; i < base.value().size(); ++i) {
    delta += std::fabs(base.value().data()[i] - perturbed.value().data()[i]);
  }
  EXPECT_GT(delta, 1e-3);
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
