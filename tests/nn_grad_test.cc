// Property tests: every differentiable op's analytic gradient is compared
// against central finite differences on random inputs.

#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/common/rng.h"
#include "xfraud/core/hetero_conv.h"
#include "xfraud/nn/ops.h"

namespace xfraud::nn {
namespace {

// Builds a scalar loss from `inputs` and checks d(loss)/d(input) for every
// input against central differences.
void CheckGradients(std::vector<Var>& inputs,
                    const std::function<Var(std::vector<Var>&)>& fn,
                    float eps = 1e-3f, float tol = 2e-2f) {
  Var loss = fn(inputs);
  ASSERT_EQ(loss.rows(), 1);
  ASSERT_EQ(loss.cols(), 1);
  for (auto& in : inputs) in.ZeroGrad();
  loss.Backward();

  for (size_t vi = 0; vi < inputs.size(); ++vi) {
    Var& in = inputs[vi];
    if (!in.requires_grad()) continue;
    Tensor analytic = in.grad();
    ASSERT_TRUE(in.mutable_value().SameShape(analytic));
    for (int64_t i = 0; i < in.value().size(); ++i) {
      float orig = in.mutable_value().data()[i];
      in.mutable_value().data()[i] = orig + eps;
      float up = fn(inputs).item();
      in.mutable_value().data()[i] = orig - eps;
      float down = fn(inputs).item();
      in.mutable_value().data()[i] = orig;
      float numeric = (up - down) / (2.0f * eps);
      float got = analytic.data()[i];
      float scale = std::max({1.0f, std::fabs(numeric), std::fabs(got)});
      EXPECT_NEAR(got, numeric, tol * scale)
          << "input " << vi << " element " << i;
    }
  }
}

Tensor RandomTensor(int64_t r, int64_t c, Rng* rng, float scale = 1.0f) {
  return Tensor::Uniform(r, c, scale, rng);
}

TEST(GradCheck, MatMul) {
  Rng rng(1);
  std::vector<Var> in = {Var(RandomTensor(3, 4, &rng), true),
                         Var(RandomTensor(4, 2, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Tanh(MatMul(v[0], v[1])));
  });
}

TEST(GradCheck, AddSubMul) {
  Rng rng(2);
  std::vector<Var> in = {Var(RandomTensor(3, 3, &rng), true),
                         Var(RandomTensor(3, 3, &rng), true),
                         Var(RandomTensor(3, 3, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Mul(Add(v[0], v[1]), Sub(v[0], v[2])));
  });
}

TEST(GradCheck, AddRowBroadcast) {
  Rng rng(3);
  std::vector<Var> in = {Var(RandomTensor(4, 3, &rng), true),
                         Var(RandomTensor(1, 3, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Tanh(AddRowBroadcast(v[0], v[1])));
  });
}

TEST(GradCheck, ScaleAndAddConst) {
  Rng rng(4);
  std::vector<Var> in = {Var(RandomTensor(2, 5, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(AddConst(Scale(v[0], -1.7f), 0.3f));
  });
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(5);
  // Shift values away from 0 so finite differences are valid.
  Tensor t = RandomTensor(3, 4, &rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] += (t.data()[i] >= 0 ? 0.5f : -0.5f);
  }
  std::vector<Var> in = {Var(std::move(t), true)};
  CheckGradients(in, [](std::vector<Var>& v) { return Sum(Relu(v[0])); });
}

TEST(GradCheck, LeakyRelu) {
  Rng rng(6);
  Tensor t = RandomTensor(3, 4, &rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] += (t.data()[i] >= 0 ? 0.5f : -0.5f);
  }
  std::vector<Var> in = {Var(std::move(t), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(LeakyRelu(v[0], 0.2f));
  });
}

TEST(GradCheck, TanhSigmoidLog) {
  Rng rng(7);
  Tensor t = RandomTensor(3, 3, &rng);
  std::vector<Var> in = {Var(std::move(t), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Log(AddConst(Sigmoid(Tanh(v[0])), 0.5f)));
  });
}

TEST(GradCheck, RowSoftmax) {
  Rng rng(8);
  std::vector<Var> in = {Var(RandomTensor(4, 5, &rng, 2.0f), true),
                         Var(RandomTensor(4, 5, &rng), false)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Mul(RowSoftmax(v[0]), v[1]));
  });
}

TEST(GradCheck, CrossEntropy) {
  Rng rng(9);
  std::vector<Var> in = {Var(RandomTensor(6, 3, &rng, 2.0f), true)};
  std::vector<int> labels = {0, 2, 1, 1, 0, 2};
  CheckGradients(in, [&labels](std::vector<Var>& v) {
    return CrossEntropy(v[0], labels);
  });
}

TEST(GradCheck, CrossEntropyWithClassWeights) {
  Rng rng(10);
  std::vector<Var> in = {Var(RandomTensor(5, 2, &rng, 2.0f), true)};
  std::vector<int> labels = {0, 1, 1, 0, 1};
  std::vector<float> weights = {1.0f, 4.0f};
  CheckGradients(in, [&](std::vector<Var>& v) {
    return CrossEntropy(v[0], labels, weights);
  });
}

TEST(GradCheck, ConcatAndSlice) {
  Rng rng(11);
  std::vector<Var> in = {Var(RandomTensor(3, 2, &rng), true),
                         Var(RandomTensor(3, 4, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    Var cat = ConcatCols(v[0], v[1]);
    return Sum(Tanh(SliceCols(cat, 1, 4)));
  });
}

TEST(GradCheck, IndexRows) {
  Rng rng(12);
  std::vector<Var> in = {Var(RandomTensor(5, 3, &rng), true)};
  std::vector<int32_t> idx = {4, 0, 0, 2, 3, 1, 4};
  CheckGradients(in, [&idx](std::vector<Var>& v) {
    return Sum(Tanh(IndexRows(v[0], idx)));
  });
}

TEST(GradCheck, ScatterAddRows) {
  Rng rng(13);
  std::vector<Var> in = {Var(RandomTensor(6, 3, &rng), true)};
  std::vector<int32_t> idx = {0, 1, 1, 2, 0, 3};
  CheckGradients(in, [&idx](std::vector<Var>& v) {
    return Sum(Tanh(ScatterAddRows(v[0], idx, 4)));
  });
}

TEST(GradCheck, SegmentSoftmax) {
  Rng rng(14);
  std::vector<Var> in = {Var(RandomTensor(7, 2, &rng, 2.0f), true),
                         Var(RandomTensor(7, 2, &rng), false)};
  std::vector<int32_t> seg = {0, 0, 1, 1, 1, 2, 0};
  CheckGradients(in, [&seg](std::vector<Var>& v) {
    return Sum(Mul(SegmentSoftmax(v[0], seg, 3), v[1]));
  });
}

TEST(GradCheck, LinearBiasActNoBias) {
  Rng rng(30);
  std::vector<Var> in = {Var(RandomTensor(3, 4, &rng), true),
                         Var(RandomTensor(4, 2, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Tanh(LinearBiasAct(v[0], v[1], Var())));
  });
}

TEST(GradCheck, LinearBiasActWithBiasAndRelu) {
  Rng rng(31);
  // Bias pushed away from zero so no pre-activation sits on the ReLU kink
  // (finite differences are invalid there).
  Tensor bias = RandomTensor(1, 2, &rng);
  for (int64_t i = 0; i < bias.size(); ++i) {
    bias.data()[i] += (bias.data()[i] >= 0 ? 2.0f : -2.0f);
  }
  std::vector<Var> in = {Var(RandomTensor(4, 3, &rng, 0.3f), true),
                         Var(RandomTensor(3, 2, &rng, 0.3f), true),
                         Var(std::move(bias), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Tanh(
        LinearBiasAct(v[0], v[1], v[2], kernels::Activation::kRelu)));
  });
}

TEST(GradCheck, TypedLinear) {
  Rng rng(33);
  // Three types, one of them absent from `types`; type 1 is bias-free.
  std::vector<Var> in = {Var(RandomTensor(5, 3, &rng), true),   // x
                         Var(RandomTensor(3, 2, &rng), true),   // W_0
                         Var(RandomTensor(1, 2, &rng), true),   // b_0
                         Var(RandomTensor(3, 2, &rng), true),   // W_1
                         Var(RandomTensor(3, 2, &rng), true),   // W_2
                         Var(RandomTensor(1, 2, &rng), true)};  // b_2
  std::vector<int32_t> types = {1, 0, 1, 0, 0};
  CheckGradients(in, [&types](std::vector<Var>& v) {
    return Sum(Tanh(TypedLinear(v[0], types, {v[1], v[3], v[4]},
                                {v[2], Var(), v[5]})));
  });
}

TEST(GradCheck, AttentionScores) {
  Rng rng(34);
  // 6 edges over 4 nodes, 2 heads of width 2; repeated targets and types.
  // The keys live at 5 source rows: rows 0 and 3 are read by several
  // edges, rows 2 and 4 by none, and source type 2 by no edge.
  std::vector<Var> in = {Var(RandomTensor(5, 4, &rng), true),   // k
                         Var(RandomTensor(4, 4, &rng), true),   // q_nodes
                         Var(RandomTensor(3, 4, &rng), true),   // w_att_src
                         Var(RandomTensor(2, 4, &rng), true)};  // w_att_dst
  std::vector<int32_t> kv_row = {0, 3, 0, 1, 3, 0};
  std::vector<int32_t> dst = {0, 2, 2, 3, 0, 2};
  std::vector<int32_t> src_types = {1, 0, 1, 1, 0, 1};
  std::vector<int32_t> dst_types = {0, 1, 1, 1, 0, 1};
  CheckGradients(in, [&](std::vector<Var>& v) {
    return Sum(Tanh(AttentionScores(v[0], kv_row, v[1], dst, v[2], src_types,
                                     v[3], dst_types, /*num_heads=*/2,
                                     /*scale=*/0.7f)));
  });
}

TEST(GradCheck, AttentionAggregate) {
  Rng rng(32);
  // The values live at 4 source rows: row 1 is read by three edges, row 2
  // by none; target node 3 receives no edge.
  std::vector<Var> in = {Var(RandomTensor(5, 2, &rng, 2.0f), true),   // scores
                         Var(RandomTensor(4, 6, &rng), true)};        // values
  std::vector<int32_t> kv_row = {1, 0, 1, 3, 1};
  std::vector<int32_t> dst = {0, 1, 1, 2, 0};
  CheckGradients(in, [&](std::vector<Var>& v) {
    return Sum(Tanh(AttentionAggregate(v[0], v[1], kv_row, dst,
                                       /*num_nodes=*/4, /*head_dim=*/3,
                                       /*dropout_p=*/0.0f,
                                       /*training=*/false, nullptr)));
  });
}

TEST(GradCheck, AttentionAggregateEdgeWeight) {
  Rng rng(36);
  // The AttentionAggregate shapes above plus a per-edge weight [5, 1], one
  // entry negative: the gradient reaches scores, values and the weight.
  std::vector<Var> in = {Var(RandomTensor(5, 2, &rng, 2.0f), true),   // scores
                         Var(RandomTensor(4, 6, &rng), true),         // values
                         Var(RandomTensor(5, 1, &rng), true)};        // weight
  std::vector<int32_t> kv_row = {1, 0, 1, 3, 1};
  std::vector<int32_t> dst = {0, 1, 1, 2, 0};
  CheckGradients(in, [&](std::vector<Var>& v) {
    return Sum(Tanh(AttentionAggregate(v[0], v[1], kv_row, dst,
                                       /*num_nodes=*/4, /*head_dim=*/3,
                                       /*dropout_p=*/0.0f,
                                       /*training=*/false, nullptr, nullptr,
                                       0, v[2])));
  });
}

TEST(GradCheck, HeteroConvLayer) {
  // A sampled-batch shape in miniature: 7 nodes, 16 edges, sources and
  // (source, edge type) pairs shared by several edges. The gradient reaches
  // node_input, the edge-type embedding (first layer only) and the K/V
  // weights through the source rows.
  const int64_t kNodes = 7;
  const int64_t kDim = 4;
  Rng graph_rng(35);
  std::vector<int32_t> node_types(kNodes);
  for (auto& t : node_types) {
    t = static_cast<int32_t>(graph_rng.NextBounded(graph::kNumNodeTypes));
  }
  std::vector<int32_t> src, dst, etypes;
  for (int e = 0; e < 16; ++e) {
    src.push_back(static_cast<int32_t>(graph_rng.NextBounded(kNodes)));
    dst.push_back(static_cast<int32_t>(graph_rng.NextBounded(kNodes)));
    etypes.push_back(static_cast<int32_t>(graph_rng.NextBounded(2)));
  }
  const std::string src_type = graph::NodeTypeName(
      static_cast<graph::NodeType>(node_types[src[0]]));
  for (bool first_layer : {true, false}) {
    SCOPED_TRACE("first_layer=" + std::to_string(first_layer));
    Rng rng(36);
    core::HeteroConvLayer layer(kDim, /*num_heads=*/2, /*dropout=*/0.0f,
                                first_layer, /*use_residual=*/true, &rng);
    std::vector<Var> in = {Var(RandomTensor(kNodes, kDim, &rng), true)};
    for (auto& named : layer.Parameters()) {
      if (named.name == "edge_type_emb") {
        named.var.mutable_value() =
            RandomTensor(graph::kNumEdgeTypes, kDim, &rng);
        in.push_back(named.var);
      }
      if (named.name == "k." + src_type + ".weight" ||
          named.name == "v." + src_type + ".weight") {
        in.push_back(named.var);
      }
    }
    ASSERT_EQ(in.size(), first_layer ? 4u : 3u);
    Tensor upstream = RandomTensor(kNodes, kDim, &rng);
    // The layer norm over 4 columns curves sharply, so the central
    // difference needs a smaller step than the single-op checks.
    CheckGradients(
        in,
        [&](std::vector<Var>& v) {
          Var out = layer.Forward(
              v[0], core::FullLayerPlan(node_types, src, dst, etypes),
              core::ForwardOptions{});
          return Sum(Tanh(Mul(out, Constant(upstream))));
        },
        /*eps=*/1e-4f);
  }
}

TEST(GradCheck, MulColBroadcast) {
  Rng rng(15);
  std::vector<Var> in = {Var(RandomTensor(4, 3, &rng), true),
                         Var(RandomTensor(4, 1, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) {
    return Sum(Tanh(MulColBroadcast(v[0], v[1])));
  });
}

TEST(GradCheck, MeanOp) {
  Rng rng(16);
  std::vector<Var> in = {Var(RandomTensor(3, 4, &rng), true)};
  CheckGradients(in, [](std::vector<Var>& v) { return Mean(Tanh(v[0])); });
}

TEST(GradCheck, LayerNorm) {
  Rng rng(17);
  std::vector<Var> in = {Var(RandomTensor(4, 6, &rng, 2.0f), true),
                         Var(RandomTensor(1, 6, &rng), true),
                         Var(RandomTensor(1, 6, &rng), true)};
  CheckGradients(
      in,
      [](std::vector<Var>& v) {
        return Sum(Tanh(LayerNorm(v[0], v[1], v[2])));
      },
      /*eps=*/1e-2f, /*tol=*/4e-2f);
}

TEST(GradCheck, CompositePipelineLikeGnnLayer) {
  // A miniature message-passing layer: gather -> score -> segment softmax ->
  // weight -> scatter -> nonlinearity, exercising op composition end to end.
  Rng rng(18);
  std::vector<Var> in = {Var(RandomTensor(4, 3, &rng), true),   // node states
                         Var(RandomTensor(3, 1, &rng), true)};  // score vector
  std::vector<int32_t> src = {0, 1, 2, 3, 1};
  std::vector<int32_t> dst = {1, 0, 1, 2, 2};
  CheckGradients(in, [&](std::vector<Var>& v) {
    Var msgs = IndexRows(v[0], src);
    Var scores = MatMul(msgs, v[1]);
    Var att = SegmentSoftmax(scores, dst, 4);
    Var weighted = MulColBroadcast(msgs, att);
    Var agg = ScatterAddRows(weighted, dst, 4);
    return Sum(Tanh(agg));
  });
}

TEST(OpsTest, DropoutInferenceIsIdentity) {
  Rng rng(19);
  Var x(RandomTensor(3, 3, &rng), true);
  Var y = Dropout(x, 0.5f, /*training=*/false, &rng);
  ASSERT_TRUE(y.value().SameShape(x.value()));
  for (int64_t i = 0; i < x.value().size(); ++i) {
    EXPECT_EQ(y.value().data()[i], x.value().data()[i]);
  }
}

TEST(OpsTest, DropoutTrainingScalesSurvivors) {
  Rng rng(20);
  Tensor t(1, 10000, 1.0f);
  Var x(std::move(t), false);
  Var y = Dropout(x, 0.25f, /*training=*/true, &rng);
  int zeros = 0;
  for (int64_t i = 0; i < y.value().size(); ++i) {
    float v = y.value().data()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.75f, 1e-5);
    }
  }
  EXPECT_NEAR(zeros / 10000.0, 0.25, 0.02);
}

TEST(OpsTest, DropoutGradientMatchesMask) {
  Rng rng(21);
  Var x(Tensor(2, 4, 1.0f), true);
  Var y = Dropout(x, 0.5f, /*training=*/true, &rng);
  Var loss = Sum(y);
  loss.Backward();
  // Gradient equals the dropout mask (0 or 1/keep).
  ASSERT_TRUE(x.grad().SameShape(y.value()));
  for (int64_t i = 0; i < x.value().size(); ++i) {
    float g = x.grad().data()[i];
    float v = y.value().data()[i];
    EXPECT_FLOAT_EQ(g, v);  // since input was all ones.
  }
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Rng rng(22);
  Var x(RandomTensor(5, 7, &rng, 3.0f), false);
  Var y = RowSoftmax(x);
  for (int64_t r = 0; r < y.rows(); ++r) {
    double s = 0.0;
    for (int64_t c = 0; c < y.cols(); ++c) s += y.value().At(r, c);
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(OpsTest, SegmentSoftmaxSegmentsSumToOne) {
  Rng rng(23);
  Var x(RandomTensor(9, 3, &rng, 3.0f), false);
  std::vector<int32_t> seg = {0, 1, 0, 2, 1, 0, 2, 2, 1};
  Var y = SegmentSoftmax(x, seg, 3);
  for (int64_t c = 0; c < 3; ++c) {
    double sums[3] = {0, 0, 0};
    for (int64_t e = 0; e < 9; ++e) sums[seg[e]] += y.value().At(e, c);
    for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(OpsTest, SegmentSoftmaxSingletonSegmentIsOne) {
  Var x(Tensor(1, 1, -123.0f), false);
  Var y = SegmentSoftmax(x, {0}, 1);
  EXPECT_NEAR(y.value().At(0, 0), 1.0f, 1e-6);
}

TEST(OpsTest, InferenceBuildsNoTape) {
  Rng rng(24);
  Var a(RandomTensor(3, 3, &rng), /*requires_grad=*/false);
  Var b(RandomTensor(3, 3, &rng), /*requires_grad=*/false);
  Var c = MatMul(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty());
}

TEST(NoGradGuardTest, GuardedOpsRecordNoTape) {
  Rng rng(25);
  Var a(RandomTensor(3, 4, &rng), /*requires_grad=*/true);
  Var w(RandomTensor(4, 2, &rng), /*requires_grad=*/true);
  Var taped = Tanh(MatMul(a, w));
  Var guarded;
  {
    NoGradGuard no_tape;
    guarded = Tanh(MatMul(a, w));
  }
  EXPECT_TRUE(taped.requires_grad());
  EXPECT_TRUE(guarded.value().BitwiseEqual(taped.value()));
  EXPECT_FALSE(guarded.requires_grad());
  EXPECT_TRUE(guarded.impl()->parents.empty());
  EXPECT_FALSE(guarded.impl()->backward_fn);
  // The guard is gone: ops tape again.
  EXPECT_TRUE(MatMul(a, w).requires_grad());
}

TEST(NoGradGuardTest, NestsAndRestoresPerThread) {
  EXPECT_FALSE(NoGradGuard::Active());
  {
    NoGradGuard outer;
    EXPECT_TRUE(NoGradGuard::Active());
    {
      NoGradGuard inner;
      EXPECT_TRUE(NoGradGuard::Active());
    }
    EXPECT_TRUE(NoGradGuard::Active());  // inner restored outer's state
    // Another thread does not see this thread's guard, and its own guard
    // does not leak back here.
    bool other_before = true;
    bool other_inside = false;
    std::thread other([&] {
      other_before = NoGradGuard::Active();
      NoGradGuard theirs;
      other_inside = NoGradGuard::Active();
    });
    other.join();
    EXPECT_FALSE(other_before);
    EXPECT_TRUE(other_inside);
    EXPECT_TRUE(NoGradGuard::Active());
  }
  EXPECT_FALSE(NoGradGuard::Active());
}

TEST(NoGradGuardTest, BackwardUnderGuardThrows) {
  Var x(Tensor(2, 2, 1.0f), true);
  Var loss = Sum(x);
  NoGradGuard no_tape;
  EXPECT_THROW(loss.Backward(), CheckError);
}

TEST(OpsTest, GradAccumulatesAcrossUses) {
  // f(x) = sum(x) + sum(x) => grad is 2 everywhere.
  Var x(Tensor(2, 2, 1.0f), true);
  Var loss = Add(Sum(x), Sum(x));
  loss.Backward();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(x.grad().data()[i], 2.0f);
}

}  // namespace
}  // namespace xfraud::nn
