#include "xfraud/explain/gnn_explainer.h"

#include <cmath>

#include "xfraud/common/logging.h"
#include "xfraud/nn/optim.h"
#include "xfraud/train/trainer.h"

namespace xfraud::explain {

using nn::Var;

namespace {

/// Bernoulli entropy of a mask in (0,1), averaged:
/// mean(-m log(m+eps) - (1-m) log(1-m+eps)).
Var MeanEntropy(const Var& mask) {
  const float eps = 1e-6f;
  Var ent = nn::Scale(
      nn::Add(nn::Mul(mask, nn::Log(nn::AddConst(mask, eps))),
              nn::Mul(nn::AddConst(nn::Scale(mask, -1.0f), 1.0f),
                      nn::Log(nn::AddConst(nn::Scale(mask, -1.0f),
                                           1.0f + eps)))),
      -1.0f);
  return nn::Mean(ent);
}

}  // namespace

GnnExplainer::GnnExplainer(const core::GnnModel* model,
                           GnnExplainerOptions options)
    : model_(model), options_(options), rng_(options.seed) {}

Explanation GnnExplainer::Explain(const sample::MiniBatch& batch) {
  XF_CHECK(!batch.target_locals.empty());

  // The explanation target is the *detector's* prediction, not the ground
  // truth: GNNExplainer asks "which edges made the model say this".
  int predicted = 0;
  {
    nn::NoGradGuard no_tape;
    core::ForwardOptions eval_opts;  // no dropout, no masks
    Var base_logits = model_->Forward(batch, eval_opts);
    predicted = base_logits.value().At(0, 1) > base_logits.value().At(0, 0)
                    ? 1
                    : 0;
  }

  // Random initialization of the mask parameters (Appendix D). The init
  // scale is small (as in the reference GNNExplainer implementation) so the
  // learned ranking reflects gradient signal rather than the initial draw.
  Var edge_params(nn::Tensor::Gaussian(batch.num_edges(), 1, 0.1f, &rng_),
                  /*requires_grad=*/true);
  Var feat_params(
      nn::Tensor::Gaussian(batch.num_nodes(), batch.features.cols(), 0.1f,
                           &rng_),
      /*requires_grad=*/true);

  nn::AdamW optimizer({{"edge_mask", edge_params}, {"feat_mask", feat_params}},
                      nn::AdamWOptions{.lr = options_.lr, .weight_decay = 0});
  std::vector<int> target = {predicted};

  double final_loss = 0.0;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    Var edge_mask = nn::Sigmoid(edge_params);
    Var feat_mask = nn::Sigmoid(feat_params);
    Var masked_features = nn::Mul(nn::Constant(batch.features), feat_mask);

    core::ForwardOptions opts;
    opts.edge_mask = &edge_mask;
    opts.features_override = &masked_features;
    Var logits = model_->Forward(batch, opts);

    Var loss = nn::CrossEntropy(logits, target);                  // eq. 11
    loss = nn::Add(loss, nn::Scale(nn::Sum(edge_mask),            // eq. 12
                                   options_.beta_edge_size));
    loss = nn::Add(loss, nn::Scale(MeanEntropy(edge_mask),
                                   options_.beta_edge_entropy));
    loss = nn::Add(loss, nn::Scale(nn::Mean(feat_mask),           // eq. 13
                                   options_.beta_node_feature_size));
    loss = nn::Add(loss, nn::Scale(MeanEntropy(feat_mask),
                                   options_.beta_node_feature_entropy));

    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    final_loss = loss.item();
  }

  Explanation result;
  result.predicted_label = predicted;
  result.final_loss = final_loss;
  nn::Tensor mask_values = nn::Sigmoid(edge_params).value();
  result.edge_mask.resize(batch.num_edges());
  for (int64_t e = 0; e < batch.num_edges(); ++e) {
    result.edge_mask[e] = mask_values.At(e, 0);
  }
  result.node_feature_mask = nn::Sigmoid(feat_params).value();

  // Undirected weights: larger of the two directions (paper footnote 4).
  result.undirected_edges = graph::UndirectedEdges(batch.sub);
  result.undirected_edge_weights.reserve(result.undirected_edges.size());
  for (const auto& e : result.undirected_edges) {
    double w = 0.0;
    if (e.directed_a >= 0) w = std::max(w, result.edge_mask[e.directed_a]);
    if (e.directed_b >= 0) w = std::max(w, result.edge_mask[e.directed_b]);
    result.undirected_edge_weights.push_back(w);
  }
  return result;
}

}  // namespace xfraud::explain
