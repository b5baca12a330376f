#include <cmath>
#include <cstdio>
#include <utility>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/optim.h"
#include "xfraud/nn/serialize.h"

namespace xfraud::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear linear(4, 3, &rng);
  Var x(Tensor(2, 4, 1.0f), false);
  Var y = linear.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 3);
  auto params = linear.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "weight");
  EXPECT_EQ(params[1].name, "bias");
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(2);
  Linear linear(4, 3, &rng, /*with_bias=*/false);
  EXPECT_EQ(linear.Parameters().size(), 1u);
  // y(0) == 0 for zero input without bias.
  Var x(Tensor(1, 4, 0.0f), false);
  Var y = linear.Forward(x);
  for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(y.value().At(0, c), 0.0f);
}

TEST(EmbeddingTest, LookupAndGradient) {
  Rng rng(3);
  Embedding emb(5, 4, &rng);
  Var rows = emb.Forward({2, 2, 0});
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_EQ(rows.cols(), 4);
  // Rows 0 and 1 are the same table row.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_EQ(rows.value().At(0, c), rows.value().At(1, c));
  }
  Var loss = Sum(rows);
  emb.ZeroGrad();
  loss.Backward();
  // Table row 2 used twice -> grad 2; row 0 once -> grad 1; others 0.
  auto params = emb.Parameters();
  const Tensor& g = params[0].var.grad();
  EXPECT_FLOAT_EQ(g.At(2, 0), 2.0f);
  EXPECT_FLOAT_EQ(g.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(g.At(4, 0), 0.0f);
}

TEST(EmbeddingTest, ZeroInitOptionStartsAtZero) {
  Rng rng(4);
  Embedding emb(3, 4, &rng, /*zero_init=*/true);
  Var rows = emb.Forward({0, 1, 2});
  for (int64_t i = 0; i < rows.value().size(); ++i) {
    EXPECT_EQ(rows.value().data()[i], 0.0f);
  }
}

TEST(LayerNormModuleTest, NormalizesRows) {
  LayerNormModule norm(8);
  Rng rng(5);
  Var x(Tensor::Uniform(4, 8, 3.0f, &rng), false);
  Var y = norm.Forward(x);
  // gamma=1, beta=0 initially: each row ~ zero mean, unit variance.
  for (int64_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (int64_t c = 0; c < 8; ++c) mean += y.value().At(r, c);
    mean /= 8;
    for (int64_t c = 0; c < 8; ++c) {
      double d = y.value().At(r, c) - mean;
      var += d * d;
    }
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(MlpTest, OutputShapeAndDeterminismInEval) {
  Rng rng(6);
  Mlp mlp(10, 16, 2, 0.5f, &rng);
  Var x(Tensor::Uniform(3, 10, 1.0f, &rng), false);
  Var a = mlp.Forward(x, /*training=*/false, nullptr);
  Var b = mlp.Forward(x, /*training=*/false, nullptr);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 2);
  ASSERT_TRUE(a.value().SameShape(b.value()));
  for (int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value().data()[i], b.value().data()[i]);
  }
}

TEST(AdamWTest, ConvergesOnLeastSquares) {
  // Minimize ||X w - y||^2 for a known w*.
  Rng rng(7);
  Var w(Tensor(3, 1, 0.0f), true);
  Tensor x_data = Tensor::Uniform(64, 3, 1.0f, &rng);
  Tensor w_star(3, 1);
  w_star.At(0, 0) = 1.5f;
  w_star.At(1, 0) = -2.0f;
  w_star.At(2, 0) = 0.5f;
  Var x(x_data, false);
  Tensor y_data(64, 1);
  for (int64_t r = 0; r < 64; ++r) {
    float acc = 0.0f;
    for (int64_t c = 0; c < 3; ++c) acc += x_data.At(r, c) * w_star.At(c, 0);
    y_data.At(r, 0) = acc;
  }
  Var y(y_data, false);

  AdamW opt({{"w", w}}, AdamWOptions{.lr = 0.05f, .weight_decay = 0.0f});
  for (int step = 0; step < 400; ++step) {
    Var residual = Sub(MatMul(x, w), y);
    Var loss = Mean(Mul(residual, residual));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(w.value().At(c, 0), w_star.At(c, 0), 0.05);
  }
}

TEST(AdamWTest, WeightDecayShrinksWeights) {
  // Zero gradient, positive decay: weights decay toward zero.
  Var w(Tensor(2, 2, 1.0f), true);
  AdamW opt({{"w", w}}, AdamWOptions{.lr = 0.1f, .weight_decay = 0.5f});
  w.grad().Fill(0.0f);
  for (int i = 0; i < 10; ++i) opt.Step();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_LT(w.value().data()[i], 1.0f);
    EXPECT_GT(w.value().data()[i], 0.0f);
  }
}

TEST(AdamWTest, ClipGradNormScalesDown) {
  Var w(Tensor(1, 4, 0.0f), true);
  AdamW opt({{"w", w}}, AdamWOptions{});
  w.grad().Fill(3.0f);  // norm = 6
  double before = opt.ClipGradNorm(1.0);
  EXPECT_NEAR(before, 6.0, 1e-5);
  double norm_after = 0.0;
  for (int64_t i = 0; i < 4; ++i) {
    norm_after += w.grad().data()[i] * w.grad().data()[i];
  }
  EXPECT_NEAR(std::sqrt(norm_after), 1.0, 1e-5);
}

TEST(AdamWTest, ClipLeavesSmallGradientsAlone) {
  Var w(Tensor(1, 4, 0.0f), true);
  AdamW opt({{"w", w}}, AdamWOptions{});
  w.grad().Fill(0.01f);
  opt.ClipGradNorm(1.0);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(w.grad().data()[i], 0.01f);
  }
}

TEST(SerializeTest, RejectsCorruptMagic) {
  std::string path = testing::TempDir() + "/bad_magic.ckpt";
  {
    FILE* f = fopen(path.c_str(), "wb");
    fwrite("NOPE", 1, 4, f);
    fclose(f);
  }
  Rng rng(8);
  Linear linear(2, 2, &rng);
  auto params = linear.Parameters();
  Status s = LoadParameters(path, &params);
  EXPECT_TRUE(s.IsCorruption());
}

TEST(SerializeTest, RejectsHostileTensorShapes) {
  Rng rng(8);
  Linear linear(2, 2, &rng);
  auto params = linear.Parameters();
  const std::string path = testing::TempDir() + "/hostile.ckpt";
  // One parameter claiming 2^20 × 2^20 floats, then a negative shape, and a
  // shape whose element count overflows int64.
  for (auto [rows, cols] : {std::pair<int64_t, int64_t>{1 << 20, 1 << 20},
                            {-1, 4},
                            {int64_t{1} << 62, 8}}) {
    ByteWriter out;
    out.Bytes("XFCK").U32(1).Str("w").I64(rows).I64(cols).F32(1.0f);
    ASSERT_TRUE(AtomicWriteFileWithCrc(path, out.Release()).ok());
    Status s = LoadParameters(path, &params);
    EXPECT_TRUE(s.IsCorruption()) << rows << "x" << cols << ": "
                                  << s.ToString();
  }
}

TEST(SerializeTest, RejectsMissingParameter) {
  std::string path = testing::TempDir() + "/partial.ckpt";
  Rng rng(9);
  Linear small(2, 2, &rng);
  ASSERT_TRUE(SaveParameters(small.Parameters(), path).ok());
  // A different module expects differently-named params.
  Embedding emb(2, 2, &rng);
  auto params = emb.Parameters();
  Status s = LoadParameters(path, &params);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(SerializeTest, RejectsShapeMismatch) {
  std::string path = testing::TempDir() + "/shape.ckpt";
  Rng rng(10);
  Linear a(2, 2, &rng);
  ASSERT_TRUE(SaveParameters(a.Parameters(), path).ok());
  Linear b(2, 3, &rng);  // same names, different shapes
  auto params = b.Parameters();
  Status s = LoadParameters(path, &params);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(SerializeTest, CopyParametersMatchesValues) {
  Rng r1(11), r2(12);
  Linear a(3, 3, &r1), b(3, 3, &r2);
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_TRUE(CopyParameters(pa, &pb).ok());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_TRUE(pa[i].var.value().SameShape(pb[i].var.value()));
    for (int64_t j = 0; j < pa[i].var.value().size(); ++j) {
      EXPECT_EQ(pa[i].var.value().data()[j], pb[i].var.value().data()[j]);
    }
  }
}

TEST(ModuleTest, ParameterCountMatchesShapes) {
  Rng rng(13);
  Mlp mlp(10, 16, 2, 0.1f, &rng);
  // fc1: 10*16+16, ln1: 32, fc2: 16*16+16, ln2: 32, out: 16*2+2.
  EXPECT_EQ(mlp.ParameterCount(), 10 * 16 + 16 + 32 + 16 * 16 + 16 + 32 +
                                      16 * 2 + 2);
}

}  // namespace
}  // namespace xfraud::nn
