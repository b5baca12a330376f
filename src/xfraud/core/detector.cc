#include "xfraud/core/detector.h"

#include "xfraud/common/logging.h"

namespace xfraud::core {

using nn::Var;

XFraudDetector::XFraudDetector(DetectorConfig config, xfraud::Rng* rng)
    : config_(config),
      input_proj_(config.feature_dim, config.hidden_dim, rng),
      head_(config.hidden_dim + config.feature_dim, config.hidden_dim, 2,
            config.dropout, rng) {
  // Node-type embeddings are zero-initialized (paper §3.2.2 item (1)).
  node_type_emb_ = Var(nn::Tensor(graph::kNumNodeTypes, config.hidden_dim),
                       /*requires_grad=*/true);
  layers_.reserve(config.num_layers);
  for (int l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<HeteroConvLayer>(
        config.hidden_dim, config.num_heads, config.dropout,
        /*first_layer=*/l == 0, config.use_residual, rng));
  }
}

Var XFraudDetector::Forward(const sample::MiniBatch& batch,
                            const ForwardOptions& options) const {
  XF_CHECK(!batch.target_locals.empty());
  Var features = options.features_override != nullptr
                     ? *options.features_override
                     : nn::Constant(batch.features);
  XF_CHECK_EQ(features.cols(), config_.feature_dim);

  // Only the targets are classified, so each layer runs over just the rows
  // its successor reads (GraphSAGE's minibatch Algorithm 2).
  ReceptiveFieldPlan plan = PlanReceptiveField(
      batch.node_types, batch.edge_src, batch.edge_dst, batch.edge_types,
      batch.target_locals, config_.num_layers);

  // Layer-0 input: projected transaction features plus the (zero-init,
  // learnable) node-type embedding — entities start from their type alone.
  Var h = nn::Add(input_proj_.Forward(features),
                  nn::IndexRows(node_type_emb_, batch.node_types));
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l]->Forward(h, plan.layers[l], options);
  }

  // Step (3) of §3.2.1: tanh of the GNN representation, concatenated with
  // the raw transaction features, into the feed-forward head.
  Var target_repr = nn::Tanh(nn::IndexRows(h, plan.target_rows));
  Var target_raw = nn::IndexRows(features, batch.target_locals);
  Var head_in = nn::ConcatCols(target_repr, target_raw);
  return head_.Forward(head_in, options.training, options.rng);
}

void XFraudDetector::CollectParameters(
    const std::string& prefix, std::vector<nn::NamedParameter>* out) const {
  input_proj_.CollectParameters(prefix + "input_proj.", out);
  out->push_back({prefix + "node_type_emb", node_type_emb_});
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l]->CollectParameters(
        prefix + "layer" + std::to_string(l) + ".", out);
  }
  head_.CollectParameters(prefix + "head.", out);
}

}  // namespace xfraud::core
