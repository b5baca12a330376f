// Model-level tests: shape/grad sanity for the detector and baselines, and
// the end-to-end "does it learn" integration checks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/baselines/gat.h"
#include "xfraud/baselines/gem.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/train/trainer.h"
#include "normwise_error.h"

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

using Params = std::map<std::string, nn::Var>;

/// The typed linear `which` ("layer0.q", …) over rows of `x` typed `types`.
nn::Var WholeBatchTyped(const Params& p, const std::string& which,
                        const nn::Var& x, const std::vector<int32_t>& types) {
  std::vector<nn::Var> weights;
  std::vector<nn::Var> biases;
  for (int t = 0; t < graph::kNumNodeTypes; ++t) {
    std::string name = which + "." +
                       graph::NodeTypeName(static_cast<graph::NodeType>(t));
    weights.push_back(p.at(name + ".weight"));
    biases.push_back(p.at(name + ".bias"));
  }
  return nn::TypedLinear(x, types, weights, biases);
}

/// HeteroConvLayer::Forward as it ran before the receptive-field plan:
/// over all N batch nodes and E edges, returning [N, dim].
nn::Var WholeBatchLayer(const Params& p, const std::string& prefix,
                        bool first_layer, const DetectorConfig& config,
                        const nn::Var& node_input,
                        const sample::MiniBatch& batch,
                        const ForwardOptions& options) {
  const std::vector<int32_t>& src = batch.edge_src;
  const std::vector<int32_t>& dst = batch.edge_dst;
  const nn::Var& gamma = p.at(prefix + "norm.gamma");
  const nn::Var& beta = p.at(prefix + "norm.beta");
  if (src.empty()) {
    return nn::Relu(nn::LayerNorm(node_input, gamma, beta));
  }
  std::vector<int32_t> src_types;
  std::vector<int32_t> dst_types;
  for (size_t e = 0; e < src.size(); ++e) {
    src_types.push_back(batch.node_types[src[e]]);
    dst_types.push_back(batch.node_types[dst[e]]);
  }
  nn::Var q_nodes =
      WholeBatchTyped(p, prefix + "q", node_input, batch.node_types);
  nn::Var kv_input = node_input;
  std::vector<int32_t> kv_row = src;
  std::vector<int32_t> kv_types = batch.node_types;
  if (first_layer) {
    // One K/V row per distinct (source, edge type), in first appearance.
    std::map<std::pair<int32_t, int32_t>, int32_t> slot;
    std::vector<int32_t> pair_src;
    std::vector<int32_t> pair_type;
    kv_types.clear();
    for (size_t e = 0; e < src.size(); ++e) {
      auto [it, fresh] = slot.emplace(
          std::make_pair(src[e], batch.edge_types[e]),
          static_cast<int32_t>(pair_src.size()));
      if (fresh) {
        pair_src.push_back(src[e]);
        pair_type.push_back(batch.edge_types[e]);
        kv_types.push_back(batch.node_types[src[e]]);
      }
      kv_row[e] = it->second;
    }
    kv_input = nn::Add(nn::IndexRows(node_input, pair_src),
                       nn::IndexRows(p.at(prefix + "edge_type_emb"),
                                     pair_type));
  }
  nn::Var k = WholeBatchTyped(p, prefix + "k", kv_input, kv_types);
  nn::Var v = WholeBatchTyped(p, prefix + "v", kv_input, kv_types);
  const int64_t head_dim = config.hidden_dim / config.num_heads;
  nn::Var scores = nn::AttentionScores(
      k, kv_row, q_nodes, dst, p.at(prefix + "w_att_src"), src_types,
      p.at(prefix + "w_att_dst"), dst_types, config.num_heads,
      1.0f / std::sqrt(static_cast<float>(head_dim)));
  const int64_t num_nodes = node_input.rows();
  nn::Var agg;
  if (options.edge_mask == nullptr) {
    agg = nn::AttentionAggregate(scores, v, kv_row, dst, num_nodes, head_dim,
                                 config.dropout, options.training,
                                 options.rng);
  } else {
    nn::Var att = nn::SegmentSoftmax(scores, dst, num_nodes);
    att = nn::Dropout(att, config.dropout, options.training, options.rng);
    nn::Var v_edges = nn::IndexRows(v, kv_row);
    nn::Var messages;
    for (int h = 0; h < config.num_heads; ++h) {
      nn::Var msg_h =
          nn::MulColBroadcast(nn::SliceCols(v_edges, h * head_dim, head_dim),
                              nn::SliceCols(att, h, 1));
      messages = messages.defined() ? nn::ConcatCols(messages, msg_h) : msg_h;
    }
    messages = nn::MulColBroadcast(messages, *options.edge_mask);
    agg = nn::ScatterAddRows(messages, dst, num_nodes);
  }
  nn::Var h = config.use_residual ? nn::Add(agg, node_input) : agg;
  return nn::Relu(nn::LayerNorm(h, gamma, beta));
}

/// XFraudDetector::Forward as it ran before the receptive-field plan,
/// over the model's own parameters: every layer over the whole batch, then
/// the target rows. The oracle of ReceptiveFieldForwardMatchesFullBatch.
nn::Var WholeBatchForward(const XFraudDetector& model,
                          const sample::MiniBatch& batch,
                          const ForwardOptions& options) {
  Params p;
  for (const auto& named : model.Parameters()) p[named.name] = named.var;
  const DetectorConfig& config = model.config();
  nn::Var features = options.features_override != nullptr
                         ? *options.features_override
                         : nn::Constant(batch.features);
  nn::Var h = nn::Add(nn::LinearBiasAct(features, p.at("input_proj.weight"),
                                        p.at("input_proj.bias")),
                      nn::IndexRows(p.at("node_type_emb"), batch.node_types));
  for (int l = 0; l < config.num_layers; ++l) {
    h = WholeBatchLayer(p, "layer" + std::to_string(l) + ".", l == 0, config,
                        h, batch, options);
  }
  nn::Var target_repr = nn::Tanh(nn::IndexRows(h, batch.target_locals));
  nn::Var target_raw = nn::IndexRows(features, batch.target_locals);
  nn::Var x = nn::ConcatCols(target_repr, target_raw);
  for (std::string k : {"1.", "2."}) {
    x = nn::LinearBiasAct(x, p.at("head.fc" + k + "weight"),
                          p.at("head.fc" + k + "bias"));
    x = nn::Dropout(x, config.dropout, options.training, options.rng);
    x = nn::Relu(nn::LayerNorm(x, p.at("head.ln" + k + "gamma"),
                               p.at("head.ln" + k + "beta")));
  }
  return nn::LinearBiasAct(x, p.at("head.out.weight"), p.at("head.out.bias"));
}

/// `batch` without the edges `drop` selects.
template <typename Drop>
sample::MiniBatch WithoutEdges(const sample::MiniBatch& batch, Drop drop) {
  sample::MiniBatch out = batch;
  out.edge_src.clear();
  out.edge_dst.clear();
  out.edge_types.clear();
  for (size_t e = 0; e < batch.edge_src.size(); ++e) {
    if (drop(e)) continue;
    out.edge_src.push_back(batch.edge_src[e]);
    out.edge_dst.push_back(batch.edge_dst[e]);
    out.edge_types.push_back(batch.edge_types[e]);
  }
  return out;
}

/// `batch` with its local ids permuted and its edges shuffled.
sample::MiniBatch Relabeled(const sample::MiniBatch& batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> new_id(static_cast<size_t>(batch.num_nodes()));
  std::iota(new_id.begin(), new_id.end(), 0);
  rng.Shuffle(&new_id);
  std::vector<size_t> edge_order(static_cast<size_t>(batch.num_edges()));
  std::iota(edge_order.begin(), edge_order.end(), size_t{0});
  rng.Shuffle(&edge_order);
  sample::MiniBatch out = batch;
  for (size_t v = 0; v < new_id.size(); ++v) {
    out.node_types[new_id[v]] = batch.node_types[v];
    std::copy(batch.features.Row(static_cast<int64_t>(v)),
              batch.features.Row(static_cast<int64_t>(v)) +
                  batch.features.cols(),
              out.features.Row(new_id[v]));
  }
  for (size_t i = 0; i < edge_order.size(); ++i) {
    out.edge_src[i] = new_id[batch.edge_src[edge_order[i]]];
    out.edge_dst[i] = new_id[batch.edge_dst[edge_order[i]]];
    out.edge_types[i] = batch.edge_types[edge_order[i]];
  }
  for (int32_t& t : out.target_locals) t = new_id[t];
  return out;
}

TEST_F(ModelTest, ReceptiveFieldForwardMatchesFullBatchBitwise) {
  // The planned forward runs each layer over the rows its successor reads;
  // the whole-batch forward it replaced is the oracle. Logits, every
  // parameter grad, the dropout RNG state after the call and, on the
  // explainer path, the edge_mask and features_override grads must agree
  // bit for bit — in eval and in training with dropout, for hop-ordered
  // (SageSampler) and unordered (HgSampler) local ids.
  std::vector<int32_t> seeds(ds_->train_nodes.begin(),
                             ds_->train_nodes.begin() + 24);
  std::vector<std::pair<std::string, sample::MiniBatch>> batches;
  Rng sage_rng(31);
  sample::MiniBatch sage =
      sample::SageSampler(2, 8).SampleBatch(ds_->graph, seeds, &sage_rng);
  batches.emplace_back("sage", sage);
  Rng hg_rng(32);
  sample::MiniBatch hg =
      sample::HgSampler(2, 8).SampleBatch(ds_->graph, seeds, &hg_rng);
  batches.emplace_back("hg", hg);
  // Local ids and edges in random order: kept and dropped edges interleave,
  // so the first layer's (source, edge type) pairs first appear in a
  // different order among the kept edges than among all of them.
  batches.emplace_back("relabeled", Relabeled(hg, 37));
  // Duplicate targets, and a target whose in-edges are all removed.
  const int32_t isolated = sage.target_locals[1];
  sample::MiniBatch dup = WithoutEdges(
      sage, [&](size_t e) { return sage.edge_dst[e] == isolated; });
  for (size_t i : {size_t{0}, size_t{3}, size_t{1}}) {
    dup.target_locals.push_back(sage.target_locals[i]);
    dup.target_labels.push_back(sage.target_labels[i]);
  }
  batches.emplace_back("duplicates+isolated", dup);
  batches.emplace_back("edgeless",
                       WithoutEdges(sage, [](size_t) { return true; }));

  for (int num_layers : {1, 2, 3}) {
    for (bool residual : {true, false}) {
      DetectorConfig config = SmallDetectorConfig(ds_->graph.feature_dim());
      config.num_layers = num_layers;
      config.use_residual = residual;
      config.dropout = 0.3f;
      Rng init_rng(33);
      XFraudDetector model(config, &init_rng);
      // Zero-initialized tables and biases would hide their gradients'
      // paths; give every parameter a nonzero value.
      Rng perturb_rng(34);
      for (auto& named : model.Parameters()) {
        nn::Tensor& value = named.var.mutable_value();
        value.AddInPlace(nn::Tensor::Uniform(value.rows(), value.cols(), 0.3f,
                                             &perturb_rng));
      }
      for (const auto& [name, batch] : batches) {
        for (bool training : {false, true}) {
          for (bool explain : {false, true}) {
            SCOPED_TRACE(name + " layers=" + std::to_string(num_layers) +
                         " residual=" + std::to_string(residual) +
                         " training=" + std::to_string(training) +
                         " explain=" + std::to_string(explain));
            struct Result {
              nn::Tensor logits;
              std::vector<nn::Tensor> grads;
              Rng::State rng_after;
            };
            auto run = [&](bool whole_batch) {
              model.ZeroGrad();
              Rng mask_rng(35);
              nn::Var edge_mask(
                  nn::Tensor::Uniform(batch.num_edges(), 1, 0.5f, &mask_rng),
                  /*requires_grad=*/true);
              edge_mask.mutable_value().AddInPlace(
                  nn::Tensor(batch.num_edges(), 1, 0.5f));
              nn::Var features(batch.features, /*requires_grad=*/true);
              Rng dropout_rng(36);
              ForwardOptions options;
              options.training = training;
              options.rng = &dropout_rng;
              if (explain) {
                options.edge_mask = &edge_mask;
                options.features_override = &features;
              }
              nn::Var logits = whole_batch
                                   ? WholeBatchForward(model, batch, options)
                                   : model.Forward(batch, options);
              Result r{logits.value(), {}, dropout_rng.GetState()};
              nn::CrossEntropy(logits, batch.target_labels).Backward();
              for (auto& named : model.Parameters()) {
                r.grads.push_back(named.var.grad());
              }
              if (explain) {
                r.grads.push_back(edge_mask.grad());
                r.grads.push_back(features.grad());
              }
              return r;
            };
            Result planned = run(false);
            Result oracle = run(true);
            EXPECT_TRUE(planned.logits.BitwiseEqual(oracle.logits));
            ASSERT_EQ(planned.grads.size(), oracle.grads.size());
            std::vector<nn::NamedParameter> params = model.Parameters();
            for (size_t i = 0; i < planned.grads.size(); ++i) {
              std::string what = i < params.size() ? params[i].name
                                 : i == params.size() ? "edge_mask"
                                                      : "features_override";
              EXPECT_TRUE(planned.grads[i].BitwiseEqual(oracle.grads[i]))
                  << what;
            }
            for (int w = 0; w < 4; ++w) {
              EXPECT_EQ(planned.rng_after.s[w], oracle.rng_after.s[w]);
            }
          }
        }
      }
    }
  }
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

/// GatModel::ForwardLayer as it ran before it moved onto the fused
/// attention ops: per-head score and message chains over per-edge copies of
/// z, then SegmentSoftmax, Dropout and ScatterAddRows. Each head's a·z dot,
/// once MatMul(z_h, Transpose(a_h)), is RowSum(Mul(z_h, a_h gathered to
/// every edge)): the same sum from 0 with c ascending.
nn::Var ComposedGatLayer(const Params& p, const std::string& prefix,
                         const GatConfig& config, const nn::Var& h,
                         const sample::MiniBatch& batch,
                         const ForwardOptions& options) {
  const nn::Var& gamma = p.at(prefix + "norm.gamma");
  const nn::Var& beta = p.at(prefix + "norm.beta");
  const int64_t num_nodes = h.rows();
  if (batch.edge_src.empty()) return nn::Relu(nn::LayerNorm(h, gamma, beta));
  const int64_t head_dim = config.hidden_dim / config.num_heads;
  nn::Var z = nn::LinearBiasAct(h, p.at(prefix + "proj.weight"),
                                p.at(prefix + "proj.bias"));
  nn::Var z_src = nn::IndexRows(z, batch.edge_src);
  nn::Var z_dst = nn::IndexRows(z, batch.edge_dst);
  const std::vector<int32_t> every_edge(batch.edge_src.size(), 0);
  nn::Var a_src = nn::IndexRows(p.at(prefix + "att_src"), every_edge);
  nn::Var a_dst = nn::IndexRows(p.at(prefix + "att_dst"), every_edge);
  nn::Var scores;
  for (int head = 0; head < config.num_heads; ++head) {
    const int64_t off = head * head_dim;
    auto dot = [&](const nn::Var& x, const nn::Var& a) {
      return nn::RowSum(nn::Mul(nn::SliceCols(x, off, head_dim),
                                nn::SliceCols(a, off, head_dim)));
    };
    nn::Var score_h = nn::LeakyRelu(
        nn::Add(dot(z_src, a_src), dot(z_dst, a_dst)), config.leaky_slope);
    scores = scores.defined() ? nn::ConcatCols(scores, score_h) : score_h;
  }
  nn::Var att = nn::SegmentSoftmax(scores, batch.edge_dst, num_nodes);
  att = nn::Dropout(att, config.dropout, options.training, options.rng);
  nn::Var messages;
  for (int head = 0; head < config.num_heads; ++head) {
    nn::Var v_h = nn::SliceCols(z_src, head * head_dim, head_dim);
    nn::Var msg_h = nn::MulColBroadcast(v_h, nn::SliceCols(att, head, 1));
    messages = messages.defined() ? nn::ConcatCols(messages, msg_h) : msg_h;
  }
  if (options.edge_mask != nullptr) {
    messages = nn::MulColBroadcast(messages, *options.edge_mask);
  }
  nn::Var agg = nn::ScatterAddRows(messages, batch.edge_dst, num_nodes);
  nn::Var out = config.use_residual ? nn::Add(agg, h) : agg;
  return nn::Relu(nn::LayerNorm(out, gamma, beta));
}

/// GatModel::Forward over the model's own parameters, with the composed
/// layers above. The oracle of GatFusedAttentionMatchesComposedChain.
nn::Var ComposedGatForward(const GatModel& model, const GatConfig& config,
                           const sample::MiniBatch& batch,
                           const ForwardOptions& options) {
  Params p;
  for (const auto& named : model.Parameters()) p[named.name] = named.var;
  nn::Var features = options.features_override != nullptr
                         ? *options.features_override
                         : nn::Constant(batch.features);
  nn::Var h = nn::LinearBiasAct(features, p.at("input_proj.weight"),
                                p.at("input_proj.bias"));
  for (int l = 0; l < config.num_layers; ++l) {
    h = ComposedGatLayer(p, "layer" + std::to_string(l) + ".", config, h,
                         batch, options);
  }
  nn::Var target_repr = nn::Tanh(nn::IndexRows(h, batch.target_locals));
  nn::Var target_raw = nn::IndexRows(features, batch.target_locals);
  nn::Var x = nn::ConcatCols(target_repr, target_raw);
  for (std::string k : {"1.", "2."}) {
    x = nn::LinearBiasAct(x, p.at("head.fc" + k + "weight"),
                          p.at("head.fc" + k + "bias"));
    x = nn::Dropout(x, config.dropout, options.training, options.rng);
    x = nn::Relu(nn::LayerNorm(x, p.at("head.ln" + k + "gamma"),
                               p.at("head.ln" + k + "beta")));
  }
  return nn::LinearBiasAct(x, p.at("head.out.weight"), p.at("head.out.bias"));
}

TEST_F(ModelTest, GatFusedAttentionMatchesComposedChain) {
  // GAT's layers run on AttentionScores + AttentionAggregate; the per-head
  // chain they replaced is the oracle. The logits and the dropout RNG state
  // must agree bit for bit — in eval, in training with dropout and with an
  // edge mask. z's gradient is no longer summed per edge before the
  // scatter, so the gradients differ in rounding only: every parameter
  // grad, and the edge mask's, within DESIGN §13.5's 1e-5 norm-wise
  // relative error.
  const double kGradBound = 1e-5;
  double max_rel_err = 0.0;
  std::vector<int32_t> seeds(ds_->train_nodes.begin(),
                             ds_->train_nodes.begin() + 24);
  Rng sample_rng(41);
  sample::MiniBatch batch =
      sample::SageSampler(2, 8).SampleBatch(ds_->graph, seeds, &sample_rng);
  for (bool residual : {true, false}) {
    GatConfig config;
    config.feature_dim = ds_->graph.feature_dim();
    config.use_residual = residual;
    Rng init_rng(42);
    GatModel model(config, &init_rng);
    // Zero-initialized biases would hide their gradients' paths.
    Rng perturb_rng(43);
    for (auto& named : model.Parameters()) {
      nn::Tensor& value = named.var.mutable_value();
      value.AddInPlace(nn::Tensor::Uniform(value.rows(), value.cols(), 0.3f,
                                           &perturb_rng));
    }
    for (bool training : {false, true}) {
      for (bool explain : {false, true}) {
        SCOPED_TRACE("residual=" + std::to_string(residual) +
                     " training=" + std::to_string(training) +
                     " explain=" + std::to_string(explain));
        struct Result {
          nn::Tensor logits;
          std::vector<nn::Tensor> grads;
          Rng::State rng_after;
        };
        auto run = [&](bool composed) {
          model.ZeroGrad();
          Rng mask_rng(44);
          nn::Var edge_mask(
              nn::Tensor::Uniform(batch.num_edges(), 1, 0.5f, &mask_rng),
              /*requires_grad=*/true);
          edge_mask.mutable_value().AddInPlace(
              nn::Tensor(batch.num_edges(), 1, 0.5f));
          Rng dropout_rng(45);
          ForwardOptions options;
          options.training = training;
          options.rng = &dropout_rng;
          if (explain) options.edge_mask = &edge_mask;
          nn::Var logits = composed
                               ? ComposedGatForward(model, config, batch,
                                                    options)
                               : model.Forward(batch, options);
          Result r{logits.value(), {}, dropout_rng.GetState()};
          nn::CrossEntropy(logits, batch.target_labels).Backward();
          for (auto& named : model.Parameters()) {
            r.grads.push_back(named.var.grad());
          }
          if (explain) r.grads.push_back(edge_mask.grad());
          return r;
        };
        Result fused = run(false);
        Result oracle = run(true);
        EXPECT_TRUE(fused.logits.BitwiseEqual(oracle.logits));
        for (int w = 0; w < 4; ++w) {
          EXPECT_EQ(fused.rng_after.s[w], oracle.rng_after.s[w]);
        }
        ASSERT_EQ(fused.grads.size(), oracle.grads.size());
        std::vector<nn::NamedParameter> params = model.Parameters();
        for (size_t i = 0; i < fused.grads.size(); ++i) {
          double err = NormwiseRelativeError(fused.grads[i], oracle.grads[i]);
          EXPECT_LE(err, kGradBound)
              << (i < params.size() ? params[i].name : "edge_mask");
          max_rel_err = std::max(max_rel_err, err);
        }
      }
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", max_rel_err);
  RecordProperty("max_grad_rel_err", buf);
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
