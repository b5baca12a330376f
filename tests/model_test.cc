// Model-level tests: shape/grad sanity for the detector and baselines, and
// the end-to-end "does it learn" integration checks.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "xfraud/baselines/gat.h"
#include "xfraud/baselines/gem.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/train/trainer.h"

namespace xfraud {
namespace {

using baselines::GatConfig;
using baselines::GatModel;
using baselines::GemConfig;
using baselines::GemModel;
using core::DetectorConfig;
using core::ForwardOptions;
using core::XFraudDetector;
using data::SimDataset;
using data::TransactionGenerator;

class ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = TransactionGenerator::SimSmall();
    config.num_buyers = 600;
    config.num_fraud_rings = 14;
    config.num_stolen_cards = 30;
    // Weak feature signal: the graph must contribute for high AUC.
    config.feature_signal = 0.8;
    ds_ = new SimDataset(TransactionGenerator::Make(config, "test"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  sample::MiniBatch MakeSmallBatch(int n_seeds = 8) const {
    sample::SageSampler sampler(2, 8);
    Rng rng(1);
    std::vector<int32_t> seeds(ds_->train_nodes.begin(),
                               ds_->train_nodes.begin() + n_seeds);
    return sampler.SampleBatch(ds_->graph, seeds, &rng);
  }

  static SimDataset* ds_;
};

SimDataset* ModelTest::ds_ = nullptr;

DetectorConfig SmallDetectorConfig(int64_t feature_dim) {
  DetectorConfig c;
  c.feature_dim = feature_dim;
  c.hidden_dim = 16;
  c.num_heads = 2;
  c.num_layers = 2;
  return c;
}

TEST_F(ModelTest, DetectorForwardShape) {
  Rng rng(2);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto batch = MakeSmallBatch();
  nn::Var logits = model.Forward(batch, ForwardOptions{});
  EXPECT_EQ(logits.rows(), static_cast<int64_t>(batch.target_locals.size()));
  EXPECT_EQ(logits.cols(), 2);
}

TEST_F(ModelTest, NoGradGuardForwardMatchesTapedBitwise) {
  Rng rng(2);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto batch = MakeSmallBatch();
  nn::Var taped = model.Forward(batch, ForwardOptions{});
  nn::Var guarded;
  {
    nn::NoGradGuard no_tape;
    guarded = model.Forward(batch, ForwardOptions{});
  }
  EXPECT_TRUE(taped.requires_grad());  // parameters put eval on the tape
  EXPECT_TRUE(guarded.value().BitwiseEqual(taped.value()));
  EXPECT_FALSE(guarded.requires_grad());
  EXPECT_TRUE(guarded.impl()->parents.empty());
  EXPECT_FALSE(guarded.impl()->backward_fn);
}

TEST_F(ModelTest, DetectorParametersNonEmptyAndNamed) {
  Rng rng(3);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto params = model.Parameters();
  EXPECT_GT(params.size(), 30u);  // typed QKV x 2 layers + head + embeddings
  std::set<std::string> names;
  for (const auto& p : params) {
    EXPECT_TRUE(p.var.requires_grad());
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate name " << p.name;
  }
  EXPECT_GT(model.ParameterCount(), 1000);
}

TEST_F(ModelTest, DetectorBackwardTouchesAllLayerParams) {
  Rng rng(4);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto batch = MakeSmallBatch();
  ForwardOptions opts;
  opts.training = true;
  opts.rng = &rng;
  nn::Var logits = model.Forward(batch, opts);
  nn::Var loss = nn::CrossEntropy(logits, batch.target_labels);
  model.ZeroGrad();
  loss.Backward();
  int touched = 0;
  for (auto& p : model.Parameters()) {
    if (p.var.grad().Norm() > 0) ++touched;
  }
  // Most parameters should receive gradient (some typed linears may not see
  // their type in a small batch).
  EXPECT_GT(touched, static_cast<int>(model.Parameters().size() / 2));
}

TEST_F(ModelTest, GatForwardShape) {
  Rng rng(5);
  GatConfig config;
  config.feature_dim = ds_->graph.feature_dim();
  config.hidden_dim = 16;
  config.num_heads = 2;
  GatModel model(config, &rng);
  auto batch = MakeSmallBatch();
  nn::Var logits = model.Forward(batch, ForwardOptions{});
  EXPECT_EQ(logits.rows(), static_cast<int64_t>(batch.target_locals.size()));
  EXPECT_EQ(logits.cols(), 2);
}

TEST_F(ModelTest, GemForwardShape) {
  Rng rng(6);
  GemConfig config;
  config.feature_dim = ds_->graph.feature_dim();
  config.hidden_dim = 16;
  GemModel model(config, &rng);
  auto batch = MakeSmallBatch();
  nn::Var logits = model.Forward(batch, ForwardOptions{});
  EXPECT_EQ(logits.rows(), static_cast<int64_t>(batch.target_locals.size()));
  EXPECT_EQ(logits.cols(), 2);
}

TEST_F(ModelTest, EdgeMaskChangesOutput) {
  Rng rng(7);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto batch = MakeSmallBatch();
  nn::Var base = model.Forward(batch, ForwardOptions{});
  // Half-weight mask must alter the logits (messages are rescaled).
  nn::Var mask(nn::Tensor(batch.num_edges(), 1, 0.5f), false);
  ForwardOptions opts;
  opts.edge_mask = &mask;
  nn::Var masked = model.Forward(batch, opts);
  double diff = 0.0;
  ASSERT_TRUE(base.value().SameShape(masked.value()));
  for (int64_t i = 0; i < base.value().size(); ++i) {
    diff += std::fabs(base.value().data()[i] - masked.value().data()[i]);
  }
  EXPECT_GT(diff, 1e-4);
}

TEST_F(ModelTest, AllOnesEdgeMaskIsIdentity) {
  Rng rng(8);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto batch = MakeSmallBatch();
  nn::Var base = model.Forward(batch, ForwardOptions{});
  nn::Var mask(nn::Tensor(batch.num_edges(), 1, 1.0f), false);
  ForwardOptions opts;
  opts.edge_mask = &mask;
  nn::Var masked = model.Forward(batch, opts);
  ASSERT_TRUE(base.value().SameShape(masked.value()));
  for (int64_t i = 0; i < base.value().size(); ++i) {
    EXPECT_NEAR(base.value().data()[i], masked.value().data()[i], 1e-5);
  }
}

TEST_F(ModelTest, FeatureOverrideIsDifferentiable) {
  Rng rng(9);
  XFraudDetector model(SmallDetectorConfig(ds_->graph.feature_dim()), &rng);
  auto batch = MakeSmallBatch();
  nn::Var features(batch.features, /*requires_grad=*/true);
  ForwardOptions opts;
  opts.features_override = &features;
  nn::Var logits = model.Forward(batch, opts);
  nn::Var loss = nn::CrossEntropy(logits, batch.target_labels);
  loss.Backward();
  EXPECT_GT(features.grad().Norm(), 0.0);
}

TEST_F(ModelTest, DeterministicConstructionAndForward) {
  auto batch = MakeSmallBatch();
  Rng r1(42), r2(42);
  XFraudDetector m1(SmallDetectorConfig(ds_->graph.feature_dim()), &r1);
  XFraudDetector m2(SmallDetectorConfig(ds_->graph.feature_dim()), &r2);
  nn::Var a = m1.Forward(batch, ForwardOptions{});
  nn::Var b = m2.Forward(batch, ForwardOptions{});
  ASSERT_TRUE(a.value().SameShape(b.value()));
  for (int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value().data()[i], b.value().data()[i]);
  }
}

TEST_F(ModelTest, CheckpointRoundTrip) {
  auto batch = MakeSmallBatch();
  Rng r1(10), r2(99);
  XFraudDetector m1(SmallDetectorConfig(ds_->graph.feature_dim()), &r1);
  XFraudDetector m2(SmallDetectorConfig(ds_->graph.feature_dim()), &r2);
  std::string path = testing::TempDir() + "/detector.ckpt";
  ASSERT_TRUE(nn::SaveParameters(m1.Parameters(), path).ok());
  auto params2 = m2.Parameters();
  ASSERT_TRUE(nn::LoadParameters(path, &params2).ok());
  nn::Var a = m1.Forward(batch, ForwardOptions{});
  nn::Var b = m2.Forward(batch, ForwardOptions{});
  ASSERT_TRUE(a.value().SameShape(b.value()));
  for (int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value().data()[i], b.value().data()[i]);
  }
}

TEST_F(ModelTest, DetectorLearnsOnSyntheticData) {
  Rng rng(11);
  DetectorConfig config = SmallDetectorConfig(ds_->graph.feature_dim());
  XFraudDetector model(config, &rng);
  sample::SageSampler sampler(2, 8);
  train::TrainOptions opts;
  opts.max_epochs = 22;
  opts.patience = 22;
  opts.batch_size = 256;
  opts.lr = 2e-3f;
  opts.class_weights = {1.0f, 4.0f};
  train::Trainer trainer(&model, &sampler, opts);
  auto result = trainer.Train(*ds_);
  auto test = trainer.Evaluate(ds_->graph, ds_->test_nodes);
  EXPECT_GT(test.auc, 0.80) << "detector failed to learn";
  // Loss decreased.
  ASSERT_GE(result.history.size(), 2u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss);
}

TEST_F(ModelTest, TrainingImprovesOverUntrained) {
  Rng rng(12);
  DetectorConfig config = SmallDetectorConfig(ds_->graph.feature_dim());
  XFraudDetector model(config, &rng);
  sample::SageSampler sampler(2, 8);
  train::TrainOptions opts;
  opts.max_epochs = 4;
  opts.batch_size = 256;
  opts.class_weights = {1.0f, 4.0f};
  train::Trainer trainer(&model, &sampler, opts);
  auto before = trainer.Evaluate(ds_->graph, ds_->test_nodes);
  trainer.Train(*ds_);
  auto after = trainer.Evaluate(ds_->graph, ds_->test_nodes);
  EXPECT_GT(after.auc, before.auc + 0.05);
}

}  // namespace
}  // namespace xfraud
