#include <thread>

#include <gtest/gtest.h>

#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/tensor.h"
#include "xfraud/obs/registry.h"
#include "xfraud/train/trainer.h"

namespace xfraud::train {
namespace {

class TrainerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 300;
    config.num_fraud_rings = 8;
    config.num_stolen_cards = 12;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "trainer"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  static core::XFraudDetector MakeModel(uint64_t seed) {
    Rng rng(seed);
    core::DetectorConfig dc;
    dc.feature_dim = ds_->graph.feature_dim();
    dc.hidden_dim = 16;
    dc.num_heads = 2;
    dc.num_layers = 2;
    return core::XFraudDetector(dc, &rng);
  }

  static data::SimDataset* ds_;
};

data::SimDataset* TrainerTest::ds_ = nullptr;

TEST_F(TrainerTest, FraudProbabilitiesAreSoftmaxColumnOne) {
  nn::Tensor logits(3, 2);
  logits.At(0, 0) = 0.0f;
  logits.At(0, 1) = 0.0f;   // p = 0.5
  logits.At(1, 0) = -10.0f;
  logits.At(1, 1) = 10.0f;  // p ~ 1
  logits.At(2, 0) = 10.0f;
  logits.At(2, 1) = -10.0f;  // p ~ 0
  auto probs = core::FraudProbabilities(nn::Var(logits, false));
  EXPECT_NEAR(probs[0], 0.5, 1e-6);
  EXPECT_GT(probs[1], 0.999);
  EXPECT_LT(probs[2], 0.001);
}

TEST_F(TrainerTest, HistoryRecordsEveryEpoch) {
  auto model = MakeModel(1);
  sample::SageSampler sampler(2, 8);
  TrainOptions opts;
  opts.max_epochs = 3;
  opts.patience = 3;
  opts.batch_size = 128;
  Trainer trainer(&model, &sampler, opts);
  auto result = trainer.Train(*ds_);
  ASSERT_EQ(result.history.size(), 3u);
  for (int e = 0; e < 3; ++e) {
    EXPECT_EQ(result.history[e].epoch, e);
    EXPECT_GT(result.history[e].seconds, 0.0);
    EXPECT_GT(result.history[e].train_loss, 0.0);
  }
  EXPECT_GT(result.mean_epoch_seconds, 0.0);
  EXPECT_GE(result.best_epoch, 0);
}

TEST_F(TrainerTest, RecordsTensorCacheGaugesEachEpoch) {
  // On a fresh thread the cache counters start at zero. The gauges hold
  // them as of the last epoch's final step; evaluation after it only adds.
  nn::TensorCacheCounters at_end;
  std::thread([&] {
    auto model = MakeModel(4);
    sample::SageSampler sampler(2, 8);
    TrainOptions opts;
    opts.max_epochs = 2;
    opts.patience = 2;
    Trainer trainer(&model, &sampler, opts);
    ASSERT_TRUE(trainer.Train(*ds_).error.ok());
    at_end = nn::TensorCacheStats();
  }).join();
  obs::Registry& r = obs::Registry::Global();
  const double hits = r.gauge("trainer/tensor_cache_hits")->value();
  const double misses = r.gauge("trainer/tensor_cache_misses")->value();
  const double evictions = r.gauge("trainer/tensor_cache_evictions")->value();
  const double cached = r.gauge("trainer/tensor_cache_cached_bytes")->value();
  EXPECT_GT(hits, 0.0);
  EXPECT_LE(hits, static_cast<double>(at_end.hits));
  EXPECT_GT(misses, 0.0);
  EXPECT_LE(misses, static_cast<double>(at_end.misses));
  EXPECT_LE(evictions, static_cast<double>(at_end.evictions));
  EXPECT_GE(cached, 0.0);
  EXPECT_LE(cached, static_cast<double>(nn::kTensorCacheMaxBytes));
}

TEST_F(TrainerTest, EarlyStoppingHaltsOnPlateau) {
  // Zero learning rate: val AUC never improves after epoch 0, so training
  // must stop after `patience` stale epochs.
  auto model = MakeModel(2);
  sample::SageSampler sampler(2, 8);
  TrainOptions opts;
  opts.max_epochs = 50;
  opts.patience = 2;
  opts.lr = 0.0f;
  opts.batch_size = 256;
  Trainer trainer(&model, &sampler, opts);
  auto result = trainer.Train(*ds_);
  // Epoch 0 sets the best; epochs 1 and 2 are stale -> stop at 3 epochs.
  EXPECT_LE(result.history.size(), 4u);
}

TEST_F(TrainerTest, EvaluateCoversAllRequestedNodes) {
  auto model = MakeModel(3);
  sample::SageSampler sampler(2, 8);
  Trainer trainer(&model, &sampler, TrainOptions{});
  auto eval = trainer.Evaluate(ds_->graph, ds_->test_nodes, 64);
  EXPECT_EQ(eval.scores.size(), ds_->test_nodes.size());
  EXPECT_EQ(eval.labels.size(), ds_->test_nodes.size());
  for (double s : eval.scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  for (size_t i = 0; i < ds_->test_nodes.size(); ++i) {
    EXPECT_EQ(eval.labels[i], ds_->graph.label(ds_->test_nodes[i]));
  }
  EXPECT_GT(eval.secs_per_batch_mean, 0.0);
}

TEST_F(TrainerTest, TrainStepReducesLossOnFixedBatch) {
  auto model = MakeModel(4);
  sample::SageSampler sampler(2, 8);
  TrainOptions opts;
  opts.lr = 5e-3f;
  Trainer trainer(&model, &sampler, opts);
  Rng rng(5);
  std::vector<int32_t> seeds(ds_->train_nodes.begin(),
                             ds_->train_nodes.begin() + 64);
  auto batch = sampler.SampleBatch(ds_->graph, seeds, &rng);
  double first = trainer.TrainStep(batch);
  double last = first;
  for (int i = 0; i < 30; ++i) last = trainer.TrainStep(batch);
  EXPECT_LT(last, first * 0.8) << "overfitting a fixed batch must work";
}

}  // namespace
}  // namespace xfraud::train
