#include "xfraud/baselines/gat.h"

#include <cmath>

#include "xfraud/common/logging.h"

namespace xfraud::baselines {

using nn::Var;

GatModel::Layer::Layer(int64_t dim, xfraud::Rng* rng, float bound)
    : proj(dim, dim, rng),
      att_src(nn::Tensor::Uniform(1, dim, bound, rng), /*requires_grad=*/true),
      att_dst(nn::Tensor::Uniform(1, dim, bound, rng), /*requires_grad=*/true),
      norm(dim) {}

GatModel::GatModel(GatConfig config, xfraud::Rng* rng)
    : config_(config),
      head_dim_(config.hidden_dim / config.num_heads),
      input_proj_(config.feature_dim, config.hidden_dim, rng),
      head_(config.hidden_dim + config.feature_dim, config.hidden_dim, 2,
            config.dropout, rng) {
  XF_CHECK_EQ(head_dim_ * config.num_heads, config.hidden_dim);
  float bound = std::sqrt(6.0f / static_cast<float>(config.hidden_dim));
  layers_.reserve(config.num_layers);
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.emplace_back(config.hidden_dim, rng, bound);
  }
}

Var GatModel::ForwardLayer(const Layer& layer, const Var& h,
                           const sample::MiniBatch& batch,
                           const core::ForwardOptions& options) const {
  int64_t num_nodes = h.rows();
  if (batch.edge_src.empty()) {
    return nn::Relu(layer.norm.Forward(h));
  }
  Var z = layer.proj.Forward(h);
  // e_ij = LeakyReLU(a_src·z_i + a_dst·z_j) per head is eq. 8's score
  // with one node type, unit scale and z as keys and queries; the messages
  // are z at the source nodes.
  const std::vector<int32_t> one_type(batch.edge_src.size(), 0);
  Var scores = nn::LeakyRelu(
      nn::AttentionScores(z, batch.edge_src, z, batch.edge_dst, layer.att_src,
                          one_type, layer.att_dst, one_type,
                          config_.num_heads, 1.0f),
      config_.leaky_slope);
  Var agg = nn::AttentionAggregate(
      scores, z, batch.edge_src, batch.edge_dst, num_nodes, head_dim_,
      config_.dropout, options.training, options.rng, nullptr, 0,
      options.edge_mask != nullptr ? *options.edge_mask : Var());
  Var out = config_.use_residual ? nn::Add(agg, h) : agg;
  return nn::Relu(layer.norm.Forward(out));
}

Var GatModel::Forward(const sample::MiniBatch& batch,
                      const core::ForwardOptions& options) const {
  Var features = options.features_override != nullptr
                     ? *options.features_override
                     : nn::Constant(batch.features);
  Var h = input_proj_.Forward(features);
  for (const auto& layer : layers_) {
    h = ForwardLayer(layer, h, batch, options);
  }
  Var target_repr = nn::Tanh(nn::IndexRows(h, batch.target_locals));
  Var target_raw = nn::IndexRows(features, batch.target_locals);
  return head_.Forward(nn::ConcatCols(target_repr, target_raw),
                       options.training, options.rng);
}

void GatModel::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParameter>* out) const {
  input_proj_.CollectParameters(prefix + "input_proj.", out);
  for (size_t l = 0; l < layers_.size(); ++l) {
    std::string lp = prefix + "layer" + std::to_string(l) + ".";
    layers_[l].proj.CollectParameters(lp + "proj.", out);
    out->push_back({lp + "att_src", layers_[l].att_src});
    out->push_back({lp + "att_dst", layers_[l].att_dst});
    layers_[l].norm.CollectParameters(lp + "norm.", out);
  }
  head_.CollectParameters(prefix + "head.", out);
}

}  // namespace xfraud::baselines
