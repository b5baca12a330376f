#include <algorithm>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/explain/feature_importance.h"
#include "xfraud/explain/gnn_explainer.h"
#include "xfraud/explain/hit_rate.h"
#include "xfraud/explain/hybrid.h"
#include "xfraud/explain/visualize.h"
#include "xfraud/train/trainer.h"

namespace xfraud::explain {
namespace {

TEST(HitRateTest, IdenticalRankingsHitOne) {
  std::vector<double> w = {0.9, 0.5, 0.8, 0.1, 0.3, 0.7};
  Rng rng(1);
  EXPECT_NEAR(TopkHitRate(w, w, 3, &rng), 1.0, 1e-12);
}

TEST(HitRateTest, DisjointTopSetsHitZero) {
  std::vector<double> a = {1.0, 1.0, 0.0, 0.0};
  std::vector<double> b = {0.0, 0.0, 1.0, 1.0};
  Rng rng(2);
  EXPECT_NEAR(TopkHitRate(a, b, 2, &rng), 0.0, 1e-12);
}

TEST(HitRateTest, PartialOverlap) {
  // top2(a) = {0,1}; top2(b) = {1,2} -> hit rate 1/2.
  std::vector<double> a = {0.9, 0.8, 0.1, 0.0};
  std::vector<double> b = {0.1, 0.9, 0.8, 0.0};
  Rng rng(3);
  EXPECT_NEAR(TopkHitRate(a, b, 2, &rng), 0.5, 1e-12);
}

TEST(HitRateTest, TiesAveragedOverDraws) {
  // Reference: all 4 tied; candidate picks 2 specific ones. Expected hit
  // rate of a random 2-subset against {0,1}: E[overlap]/2 = 0.5.
  std::vector<double> reference = {1.0, 1.0, 1.0, 1.0};
  std::vector<double> candidate = {1.0, 1.0, 0.0, 0.0};
  Rng rng(4);
  double rate = TopkHitRate(reference, candidate, 2, &rng, 4000);
  EXPECT_NEAR(rate, 0.5, 0.03);
}

TEST(HitRateTest, KLargerThanEdgesClamps) {
  std::vector<double> w = {0.5, 0.4};
  Rng rng(5);
  EXPECT_NEAR(TopkHitRate(w, w, 10, &rng), 1.0, 1e-12);
}

TEST(HitRateTest, RandomBaselineMatchesHypergeometricMean) {
  // For n edges and top-k sets drawn at random, E[hit rate] = k/n.
  std::vector<double> reference(20);
  for (size_t i = 0; i < reference.size(); ++i) reference[i] = i * 0.05;
  Rng rng(6);
  double rate = RandomHitRate(reference, 5, &rng, 40, 50);
  EXPECT_NEAR(rate, 5.0 / 20.0, 0.05);
}

TEST(TopkIndicesTest, ReturnsLargest) {
  std::vector<double> w = {0.1, 0.9, 0.5, 0.7};
  Rng rng(7);
  auto top = TopkIndices(w, 2, &rng);
  std::sort(top.begin(), top.end());
  EXPECT_EQ(top[0], 1);
  EXPECT_EQ(top[1], 3);
}

TEST(RidgeTest, RecoversLinearCoefficients) {
  // y = 2 x0 - 1 x1, no noise, tiny alpha.
  Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.NextDouble(), b = rng.NextDouble();
    x.push_back({a, b});
    y.push_back(2.0 * a - 1.0 * b);
  }
  auto beta = RidgeRegression(x, y, 1e-8);
  EXPECT_NEAR(beta[0], 2.0, 1e-4);
  EXPECT_NEAR(beta[1], -1.0, 1e-4);
}

TEST(RidgeTest, AlphaShrinksCoefficients) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    double a = rng.NextDouble();
    x.push_back({a});
    y.push_back(3.0 * a);
  }
  auto small = RidgeRegression(x, y, 1e-6);
  auto large = RidgeRegression(x, y, 100.0);
  EXPECT_GT(small[0], large[0]);
  EXPECT_GT(large[0], 0.0);
}

CommunityWeights SyntheticCommunity(Rng* rng, int n_edges,
                                    double centrality_fit,
                                    double explainer_fit) {
  // Human scores; centrality/explainer are noisy readings with controlled
  // fidelity.
  CommunityWeights c;
  for (int i = 0; i < n_edges; ++i) {
    double truth = rng->NextDouble();
    c.human.push_back(truth);
    c.centrality.push_back(centrality_fit * truth +
                           (1 - centrality_fit) * rng->NextDouble());
    c.explainer.push_back(explainer_fit * truth +
                          (1 - explainer_fit) * rng->NextDouble());
  }
  return c;
}

TEST(HybridTest, GridPrefersTheBetterSignal) {
  Rng rng(10);
  // Explainer is much more faithful than centrality here.
  std::vector<CommunityWeights> train;
  for (int i = 0; i < 8; ++i) {
    train.push_back(SyntheticCommunity(&rng, 40, 0.2, 0.95));
  }
  HybridExplainer hybrid = HybridExplainer::FitGrid(train, 10, &rng);
  EXPECT_GT(hybrid.b(), hybrid.a());
}

TEST(HybridTest, GridBeatsOrMatchesBothComponentsOnTrain) {
  Rng rng(11);
  std::vector<CommunityWeights> train;
  for (int i = 0; i < 10; ++i) {
    train.push_back(SyntheticCommunity(&rng, 50, 0.6, 0.6));
  }
  HybridExplainer hybrid = HybridExplainer::FitGrid(train, 10, &rng);
  double hybrid_rate = hybrid.MeanHitRate(train, 10, &rng);

  // Pure-centrality (A=1) and pure-explainer (A=0) via the grid ends.
  double centrality_only = 0.0, explainer_only = 0.0;
  for (const auto& c : train) {
    centrality_only += TopkHitRate(c.human, c.centrality, 10, &rng);
    explainer_only += TopkHitRate(c.human, c.explainer, 10, &rng);
  }
  centrality_only /= train.size();
  explainer_only /= train.size();
  EXPECT_GE(hybrid_rate + 0.02, std::max(centrality_only, explainer_only));
}

TEST(HybridTest, RidgeProducesFiniteCoefficients) {
  Rng rng(12);
  std::vector<CommunityWeights> train;
  for (int i = 0; i < 6; ++i) {
    train.push_back(SyntheticCommunity(&rng, 30, 0.5, 0.7));
  }
  HybridExplainer hybrid = HybridExplainer::FitRidge(train, 10, &rng);
  EXPECT_TRUE(std::isfinite(hybrid.a()));
  EXPECT_TRUE(std::isfinite(hybrid.b()));
  double rate = hybrid.MeanHitRate(train, 10, &rng);
  EXPECT_GT(rate, 0.3);  // far above the random baseline 10/30
}

TEST(HybridTest, PolynomialDegreeOneWinsOnLinearData) {
  // The paper finds degree 1 the best fit (Appendix F); on linearly
  // generated data higher degrees cannot help.
  Rng rng(13);
  std::vector<CommunityWeights> train;
  for (int i = 0; i < 6; ++i) {
    train.push_back(SyntheticCommunity(&rng, 40, 0.7, 0.7));
  }
  int degree = BestPolynomialDegree(train, 10, &rng, 3);
  EXPECT_EQ(degree, 1);
}

class ExplainerIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 600;
    config.num_fraud_rings = 14;
    config.num_stolen_cards = 30;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "explain-test"));
    Rng rng(21);
    core::DetectorConfig dc;
    dc.feature_dim = ds_->graph.feature_dim();
    dc.hidden_dim = 16;
    dc.num_heads = 2;
    dc.num_layers = 2;
    model_ = new core::XFraudDetector(dc, &rng);
    sample::SageSampler sampler(2, 8);
    train::TrainOptions opts;
    opts.max_epochs = 12;
    opts.patience = 12;
    opts.batch_size = 256;
    opts.lr = 2e-3f;
    opts.class_weights = {1.0f, 4.0f};
    train::Trainer trainer(model_, &sampler, opts);
    trainer.Train(*ds_);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete ds_;
    model_ = nullptr;
    ds_ = nullptr;
  }

  static sample::MiniBatch CommunityBatch(int32_t seed) {
    graph::Subgraph sub = graph::Community(ds_->graph, seed, 60);
    return sample::MakeBatch(ds_->graph, std::move(sub), {seed});
  }

  static data::SimDataset* ds_;
  static core::XFraudDetector* model_;
};

data::SimDataset* ExplainerIntegrationTest::ds_ = nullptr;
core::XFraudDetector* ExplainerIntegrationTest::model_ = nullptr;

TEST_F(ExplainerIntegrationTest, ProducesValidMasks) {
  int32_t seed = ds_->test_nodes[0];
  auto batch = CommunityBatch(seed);
  GnnExplainerOptions opts;
  opts.epochs = 30;
  GnnExplainer explainer(model_, opts);
  Explanation exp = explainer.Explain(batch);

  ASSERT_EQ(static_cast<int64_t>(exp.edge_mask.size()), batch.num_edges());
  for (double m : exp.edge_mask) {
    EXPECT_GT(m, 0.0);
    EXPECT_LT(m, 1.0);
  }
  EXPECT_EQ(exp.node_feature_mask.rows(), batch.num_nodes());
  EXPECT_EQ(exp.node_feature_mask.cols(), batch.features.cols());
  EXPECT_EQ(exp.undirected_edges.size(), exp.undirected_edge_weights.size());
}

TEST_F(ExplainerIntegrationTest, UndirectedWeightIsMaxOfDirections) {
  int32_t seed = ds_->test_nodes[1];
  auto batch = CommunityBatch(seed);
  GnnExplainerOptions opts;
  opts.epochs = 20;
  GnnExplainer explainer(model_, opts);
  Explanation exp = explainer.Explain(batch);
  for (size_t i = 0; i < exp.undirected_edges.size(); ++i) {
    const auto& e = exp.undirected_edges[i];
    double expected = 0.0;
    if (e.directed_a >= 0) expected = std::max(expected,
                                               exp.edge_mask[e.directed_a]);
    if (e.directed_b >= 0) expected = std::max(expected,
                                               exp.edge_mask[e.directed_b]);
    EXPECT_DOUBLE_EQ(exp.undirected_edge_weights[i], expected);
  }
}

TEST_F(ExplainerIntegrationTest, MaskSeparatesFromInitialization) {
  // After optimization the edge mask must have moved away from its random
  // initialization: some spread between min and max.
  int32_t seed = ds_->test_nodes[2];
  auto batch = CommunityBatch(seed);
  GnnExplainer explainer(model_, GnnExplainerOptions{});
  Explanation exp = explainer.Explain(batch);
  double lo = *std::min_element(exp.edge_mask.begin(), exp.edge_mask.end());
  double hi = *std::max_element(exp.edge_mask.begin(), exp.edge_mask.end());
  EXPECT_GT(hi - lo, 0.05);
}

TEST_F(ExplainerIntegrationTest, DeterministicGivenSeed) {
  int32_t seed = ds_->test_nodes[3];
  auto batch = CommunityBatch(seed);
  GnnExplainerOptions opts;
  opts.epochs = 10;
  opts.seed = 99;
  Explanation a = GnnExplainer(model_, opts).Explain(batch);
  Explanation b = GnnExplainer(model_, opts).Explain(batch);
  ASSERT_EQ(a.edge_mask.size(), b.edge_mask.size());
  for (size_t i = 0; i < a.edge_mask.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.edge_mask[i], b.edge_mask[i]);
  }
}

TEST_F(ExplainerIntegrationTest, GuardedBaseForwardLeavesExplanationUnchanged) {
  // The base prediction runs under a NoGradGuard; the mask optimisation
  // must not. The target label matches a taped forward's, an explanation
  // after a guarded forward on this thread equals one before it, and an
  // Explain wrapped in a guard is refused instead of silently skipping
  // its gradient steps.
  int32_t seed = ds_->test_nodes[4];
  auto batch = CommunityBatch(seed);
  GnnExplainerOptions opts;
  opts.epochs = 10;
  opts.seed = 7;
  Explanation before = GnnExplainer(model_, opts).Explain(batch);
  nn::Var taped = model_->Forward(batch, core::ForwardOptions{});
  EXPECT_EQ(before.predicted_label,
            taped.value().At(0, 1) > taped.value().At(0, 0) ? 1 : 0);
  {
    nn::NoGradGuard no_tape;
    model_->Forward(batch, core::ForwardOptions{});
    EXPECT_THROW(GnnExplainer(model_, opts).Explain(batch), CheckError);
  }
  Explanation after = GnnExplainer(model_, opts).Explain(batch);
  EXPECT_EQ(after.predicted_label, before.predicted_label);
  EXPECT_DOUBLE_EQ(after.final_loss, before.final_loss);
  ASSERT_EQ(after.edge_mask.size(), before.edge_mask.size());
  for (size_t i = 0; i < after.edge_mask.size(); ++i) {
    EXPECT_DOUBLE_EQ(after.edge_mask[i], before.edge_mask[i]);
  }
  EXPECT_TRUE(after.node_feature_mask.BitwiseEqual(before.node_feature_mask));
}

/// FNV-1a over the bytes of an explanation's outputs: the edge mask, the
/// feature mask, the final loss and the predicted label.
uint64_t ExplanationFingerprint(const Explanation& exp) {
  uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash ^= p[i];
      hash *= 1099511628211ull;
    }
  };
  mix(exp.edge_mask.data(), exp.edge_mask.size() * sizeof(double));
  mix(exp.node_feature_mask.data(),
      static_cast<size_t>(exp.node_feature_mask.size()) * sizeof(float));
  mix(&exp.final_loss, sizeof(exp.final_loss));
  mix(&exp.predicted_label, sizeof(exp.predicted_label));
  return hash;
}

TEST_F(ExplainerIntegrationTest, ExplanationBitsUnchangedByFusedScores) {
  // The fingerprint was recorded when HeteroConv still built the eq. 8
  // scores from three IndexRows gathers and per-head SliceCols → Mul →
  // RowSum → Add → Scale, joined by ConcatCols. nn::AttentionScores
  // replaced that chain in the fixture's training and in the explainer's
  // forwards; both must still produce the same bits. It was re-blessed
  // once, under DESIGN §13.5, when keys and values moved to their source
  // rows (the K/V gradients sum per source row before the projection
  // backward). The value depends on the platform's libm (exp/log in the
  // model and in the mask loss).
  auto batch = CommunityBatch(ds_->test_nodes[6]);
  GnnExplainerOptions opts;
  opts.epochs = 10;
  opts.seed = 7;
  Explanation exp = GnnExplainer(model_, opts).Explain(batch);
  EXPECT_EQ(ExplanationFingerprint(exp), 0x3016c99f04c7c26dull);
}

TEST_F(ExplainerIntegrationTest, FeatureImportanceViewsAreConsistent) {
  int32_t seed = ds_->test_nodes[5];
  auto batch = CommunityBatch(seed);
  GnnExplainerOptions opts;
  opts.epochs = 20;
  GnnExplainer explainer(model_, opts);
  Explanation exp = explainer.Explain(batch);
  FeatureImportance fi = ComputeFeatureImportance(exp, batch);
  int64_t dims = batch.features.cols();
  ASSERT_EQ(static_cast<int64_t>(fi.seed.size()), dims);
  ASSERT_EQ(static_cast<int64_t>(fi.community_mean.size()), dims);
  for (int64_t c = 0; c < dims; ++c) {
    EXPECT_GT(fi.seed[c], 0.0);
    EXPECT_LT(fi.seed[c], 1.0);
    EXPECT_NEAR(fi.seed_excess[c], fi.seed[c] - fi.community_mean[c], 1e-12);
  }
  std::string report = RenderFeatureImportance(fi, 3);
  EXPECT_NE(report.find("seed feature importance"), std::string::npos);
  EXPECT_NE(report.find("investigation leads"), std::string::npos);
}

TEST(TopDimensionsTest, ReturnsLargestStably) {
  std::vector<double> v = {0.1, 0.9, 0.9, 0.2};
  auto top = TopDimensions(v, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1);  // stable: first of the tied pair
  EXPECT_EQ(top[1], 2);
}

TEST_F(ExplainerIntegrationTest, RenderCommunityMentionsSeedAndBars) {
  int32_t seed = ds_->test_nodes[4];
  graph::Subgraph sub = graph::Community(ds_->graph, seed, 60);
  auto undirected = graph::UndirectedEdges(sub);
  std::vector<double> weights(undirected.size());
  Rng rng(3);
  for (auto& w : weights) w = rng.NextDouble();
  std::string text = RenderCommunity(ds_->graph, sub, weights, 10);
  EXPECT_NE(text.find("community:"), std::string::npos);
  EXPECT_NE(text.find("txn"), std::string::npos);
  EXPECT_NE(text.find("#"), std::string::npos);
  EXPECT_NE(text.find("*"), std::string::npos);  // seed marker
}

}  // namespace
}  // namespace xfraud::explain
