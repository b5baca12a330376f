// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  - KV-store contract across every backend;
//  - model invariants across every GNN architecture;
//  - centrality invariants across every measure and canonical graph family;
//  - metric invariants across dataset sizes and imbalance levels.

#include <cmath>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>

#include <gtest/gtest.h>

#include "xfraud/baselines/gat.h"
#include "xfraud/baselines/gem.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/explain/centrality.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/kv/sharded_kv.h"
#include "xfraud/train/metrics.h"

namespace xfraud {
namespace {

// ---------------------------------------------------------------- KV stores

class KvContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<kv::KvStore> Make() {
    const std::string& kind = GetParam();
    if (kind == "mem") return std::make_unique<kv::MemKvStore>();
    if (kind == "sharded") return kv::ShardedKvStore::InMemory(4);
    std::string path = testing::TempDir() + "/contract_" + kind + ".kv";
    std::remove(path.c_str());
    auto opened = kv::LogKvStore::Open(path);
    EXPECT_TRUE(opened.ok());
    return std::move(opened).value();
  }
};

TEST_P(KvContractTest, OverwriteKeepsLatestValue) {
  auto store = Make();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store->Put("k", "v" + std::to_string(i)).ok());
  }
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "v19");
  EXPECT_EQ(store->Count(), 1);
}

TEST_P(KvContractTest, DeleteThenReinsert) {
  auto store = Make();
  ASSERT_TRUE(store->Put("k", "a").ok());
  ASSERT_TRUE(store->Delete("k").ok());
  ASSERT_TRUE(store->Delete("k").ok());  // idempotent
  ASSERT_TRUE(store->Put("k", "b").ok());
  std::string value;
  ASSERT_TRUE(store->Get("k", &value).ok());
  EXPECT_EQ(value, "b");
}

TEST_P(KvContractTest, ManyKeysAllRetrievable) {
  auto store = Make();
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store
                    ->Put("key/" + std::to_string(i),
                          std::string(1 + i % 97, 'x'))
                    .ok());
  }
  EXPECT_EQ(store->Count(), n);
  std::string value;
  for (int i = 0; i < n; i += 17) {
    ASSERT_TRUE(store->Get("key/" + std::to_string(i), &value).ok());
    EXPECT_EQ(value.size(), static_cast<size_t>(1 + i % 97));
  }
  EXPECT_EQ(store->KeysWithPrefix("key/").size(), static_cast<size_t>(n));
  EXPECT_TRUE(store->KeysWithPrefix("nope").empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KvContractTest,
                         ::testing::Values("mem", "sharded", "log"),
                         [](const auto& param_info) { return param_info.param; });

// ------------------------------------------------------------------- models

class ModelContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 300;
    config.num_fraud_rings = 6;
    config.num_stolen_cards = 10;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "contract"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  std::unique_ptr<core::GnnModel> Make(uint64_t seed) {
    Rng rng(seed);
    const std::string& kind = GetParam();
    if (kind == "gat") {
      baselines::GatConfig c;
      c.feature_dim = ds_->graph.feature_dim();
      c.hidden_dim = 16;
      c.num_heads = 2;
      return std::make_unique<baselines::GatModel>(c, &rng);
    }
    if (kind == "gem") {
      baselines::GemConfig c;
      c.feature_dim = ds_->graph.feature_dim();
      c.hidden_dim = 16;
      return std::make_unique<baselines::GemModel>(c, &rng);
    }
    core::DetectorConfig c;
    c.feature_dim = ds_->graph.feature_dim();
    c.hidden_dim = 16;
    c.num_heads = 2;
    return std::make_unique<core::XFraudDetector>(c, &rng);
  }

  sample::MiniBatch Batch(int seeds = 8) {
    sample::SageSampler sampler(2, 8);
    Rng rng(1);
    std::vector<int32_t> s(ds_->train_nodes.begin(),
                           ds_->train_nodes.begin() + seeds);
    return sampler.SampleBatch(ds_->graph, s, &rng);
  }

  static data::SimDataset* ds_;
};

data::SimDataset* ModelContractTest::ds_ = nullptr;

TEST_P(ModelContractTest, LogitsShapeMatchesTargets) {
  auto model = Make(3);
  auto batch = Batch();
  nn::Var logits = model->Forward(batch, core::ForwardOptions{});
  EXPECT_EQ(logits.rows(), static_cast<int64_t>(batch.target_locals.size()));
  EXPECT_EQ(logits.cols(), 2);
}

TEST_P(ModelContractTest, GradientsFlowToMostParameters) {
  auto model = Make(4);
  auto batch = Batch();
  Rng rng(2);
  core::ForwardOptions opts;
  opts.training = true;
  opts.rng = &rng;
  nn::Var loss = nn::CrossEntropy(model->Forward(batch, opts),
                                  batch.target_labels);
  model->ZeroGrad();
  loss.Backward();
  int touched = 0;
  auto params = model->Parameters();
  for (auto& p : params) touched += p.var.grad().Norm() > 0;
  EXPECT_GT(touched, static_cast<int>(params.size()) / 2);
}

TEST_P(ModelContractTest, UnitEdgeMaskIsIdentity) {
  auto model = Make(5);
  auto batch = Batch();
  nn::Var base = model->Forward(batch, core::ForwardOptions{});
  nn::Var mask(nn::Tensor(batch.num_edges(), 1, 1.0f), false);
  core::ForwardOptions opts;
  opts.edge_mask = &mask;
  nn::Var masked = model->Forward(batch, opts);
  ASSERT_TRUE(base.value().SameShape(masked.value()));
  for (int64_t i = 0; i < base.value().size(); ++i) {
    EXPECT_NEAR(base.value().data()[i], masked.value().data()[i], 1e-5);
  }
}

TEST_P(ModelContractTest, ZeroEdgeMaskDisconnectsGraph) {
  // With all messages suppressed, predictions must not depend on which
  // neighbours exist — compare against an edgeless copy of the batch.
  auto model = Make(6);
  auto batch = Batch();
  nn::Var zero(nn::Tensor(batch.num_edges(), 1, 0.0f), false);
  core::ForwardOptions opts;
  opts.edge_mask = &zero;
  nn::Var masked = model->Forward(batch, opts);

  sample::MiniBatch edgeless = batch;
  edgeless.edge_src.clear();
  edgeless.edge_dst.clear();
  edgeless.edge_types.clear();
  nn::Var isolated = model->Forward(edgeless, core::ForwardOptions{});
  ASSERT_TRUE(masked.value().SameShape(isolated.value()));
  for (int64_t i = 0; i < masked.value().size(); ++i) {
    EXPECT_NEAR(masked.value().data()[i], isolated.value().data()[i], 1e-4);
  }
}

TEST_P(ModelContractTest, SameSeedSameOutputs) {
  auto batch = Batch();
  auto m1 = Make(7);
  auto m2 = Make(7);
  nn::Var a = m1->Forward(batch, core::ForwardOptions{});
  nn::Var b = m2->Forward(batch, core::ForwardOptions{});
  ASSERT_TRUE(a.value().SameShape(b.value()));
  for (int64_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value().data()[i], b.value().data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelContractTest,
                         ::testing::Values("detector", "gat", "gem"),
                         [](const auto& param_info) { return param_info.param; });

// -------------------------------------------------------------- centralities

using CentralityCase = std::tuple<int /*measure*/, std::string /*family*/>;

class CentralityPropertyTest
    : public ::testing::TestWithParam<CentralityCase> {
 protected:
  static std::vector<graph::UndirectedEdge> MakeFamily(
      const std::string& family, int* num_nodes) {
    std::vector<std::pair<int, int>> pairs;
    if (family == "path") {
      *num_nodes = 8;
      for (int i = 0; i + 1 < 8; ++i) pairs.emplace_back(i, i + 1);
    } else if (family == "star") {
      *num_nodes = 9;
      for (int i = 1; i < 9; ++i) pairs.emplace_back(0, i);
    } else if (family == "cycle") {
      *num_nodes = 7;
      for (int i = 0; i < 7; ++i) pairs.emplace_back(i, (i + 1) % 7);
    } else {  // barbell: two triangles joined by a bridge
      *num_nodes = 6;
      pairs = {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}};
    }
    std::vector<graph::UndirectedEdge> edges;
    for (auto [u, v] : pairs) {
      graph::UndirectedEdge e;
      e.u = u;
      e.v = v;
      edges.push_back(e);
    }
    return edges;
  }
};

TEST_P(CentralityPropertyTest, FiniteNonNegativeAndDeterministic) {
  auto [measure_idx, family] = GetParam();
  auto measure = static_cast<explain::CentralityMeasure>(measure_idx);
  int n = 0;
  auto edges = MakeFamily(family, &n);
  Rng r1(9), r2(9);
  auto w1 = explain::EdgeWeightsByCentrality(edges, n, measure, &r1);
  auto w2 = explain::EdgeWeightsByCentrality(edges, n, measure, &r2);
  ASSERT_EQ(w1.size(), edges.size());
  for (size_t e = 0; e < w1.size(); ++e) {
    EXPECT_TRUE(std::isfinite(w1[e]));
    EXPECT_GE(w1[e], -1e-9);
    EXPECT_EQ(w1[e], w2[e]) << "non-deterministic at edge " << e;
  }
}

TEST_P(CentralityPropertyTest, RespectsGraphSymmetry) {
  auto [measure_idx, family] = GetParam();
  auto measure = static_cast<explain::CentralityMeasure>(measure_idx);
  if (family == "barbell") return;  // only the vertex-transitive families
  int n = 0;
  auto edges = MakeFamily(family, &n);
  Rng rng(9);
  auto w = explain::EdgeWeightsByCentrality(edges, n, measure, &rng);
  if (family == "star") {
    // All star edges are equivalent by symmetry.
    for (size_t e = 1; e < w.size(); ++e) EXPECT_NEAR(w[e], w[0], 1e-6);
  }
  if (family == "cycle") {
    for (size_t e = 1; e < w.size(); ++e) EXPECT_NEAR(w[e], w[0], 1e-6);
  }
  if (family == "path") {
    // Mirror symmetry: edge i matches edge (m-1-i).
    for (size_t e = 0; e < w.size(); ++e) {
      EXPECT_NEAR(w[e], w[w.size() - 1 - e], 1e-6);
    }
  }
}

std::vector<CentralityCase> AllCentralityCases() {
  std::vector<CentralityCase> cases;
  for (int m = 0; m < explain::kNumCentralityMeasures; ++m) {
    // The approximate measure is sampling-based: determinism holds for a
    // fixed Rng (covered), symmetry only in expectation — skip it there.
    for (std::string_view family : {"path", "star", "cycle", "barbell"}) {
      if (m == static_cast<int>(
                   explain::CentralityMeasure::kApproxCurrentFlowBetweenness) &&
          family != "barbell") {
        continue;
      }
      cases.emplace_back(m, family);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllMeasuresAndFamilies, CentralityPropertyTest,
    ::testing::ValuesIn(AllCentralityCases()),
    [](const auto& param_info) {
      std::string name =
          std::string(explain::CentralityMeasureName(
              static_cast<explain::CentralityMeasure>(
                  std::get<0>(param_info.param)))) +
          "_" + std::get<1>(param_info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ------------------------------------------------------------------ metrics

class MetricsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MetricsPropertyTest, AucAndApBoundsAndConsistency) {
  auto [n, positive_rate] = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 31 + 7);
  std::vector<double> scores(n);
  std::vector<int> labels(n);
  int positives = 0;
  for (int i = 0; i < n; ++i) {
    labels[i] = rng.NextBernoulli(positive_rate);
    positives += labels[i];
    scores[i] = 0.3 * labels[i] + rng.NextGaussian() * 0.5;
  }
  if (positives == 0 || positives == n) return;  // degenerate draw

  double auc = train::RocAuc(scores, labels);
  double ap = train::AveragePrecision(scores, labels);
  EXPECT_GE(auc, 0.0);
  EXPECT_LE(auc, 1.0);
  EXPECT_GE(ap, 0.0);
  EXPECT_LE(ap, 1.0);
  // Informative scores: better than chance on both metrics.
  EXPECT_GT(auc, 0.5);
  EXPECT_GT(ap, static_cast<double>(positives) / n);

  // Threshold-metric identities hold at every threshold.
  for (double t : {0.1, 0.5, 0.9}) {
    auto m = train::MetricsAtThreshold(scores, labels, t);
    EXPECT_EQ(m.tp + m.fn, positives);
    EXPECT_EQ(m.fp + m.tn, n - positives);
    EXPECT_NEAR(m.tpr + m.fnr, positives > 0 ? 1.0 : 0.0, 1e-9);
    EXPECT_NEAR(m.fpr + m.tnr, (n - positives) > 0 ? 1.0 : 0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndImbalance, MetricsPropertyTest,
    ::testing::Combine(::testing::Values(50, 500, 5000),
                       ::testing::Values(0.05, 0.2, 0.5)));

}  // namespace
}  // namespace xfraud
