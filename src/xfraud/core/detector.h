#ifndef XFRAUD_CORE_DETECTOR_H_
#define XFRAUD_CORE_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "xfraud/core/gnn_model.h"
#include "xfraud/core/hetero_conv.h"
#include "xfraud/nn/modules.h"

namespace xfraud::core {

/// Hyperparameters of the xFraud detector. Paper values (Appendix C) are
/// n_hid=400, n_heads=8, n_layers=6, dropout=0.2 on GPU clusters; defaults
/// here are the CPU-scale equivalents used throughout the reproduction.
struct DetectorConfig {
  int64_t feature_dim = 64;
  int64_t hidden_dim = 32;
  int num_heads = 4;
  int num_layers = 2;
  float dropout = 0.2f;
  bool use_residual = true;
};

/// The xFraud detector (paper §3.2, Fig. 4 left): an input projection, L
/// self-attentive heterogeneous convolution layers, then — for each target
/// transaction — tanh of the GNN representation concatenated with the raw
/// transaction features, fed through a two-hidden-layer feed-forward head
/// (dropout, layer norm, ReLU) to produce a fraud/legit risk score.
///
/// detector vs detector+ differ only in the neighbourhood sampler
/// (HGSampling vs GraphSAGE-style, §3.2.3); this class is the shared network
/// and consumes whatever MiniBatch a sampler produced.
///
/// Only the targets' representations reach the head, so Forward runs each
/// layer over its receptive field (PlanReceptiveField): the input
/// projection covers all N batch nodes, the last layer outputs just the
/// distinct targets, and each earlier layer the rows its successor reads.
/// The logits, every gradient and the dropout RNG stream are bit for bit
/// those of running every layer over all N nodes and E edges.
class XFraudDetector : public GnnModel {
 public:
  XFraudDetector(DetectorConfig config, xfraud::Rng* rng);

  nn::Var Forward(const sample::MiniBatch& batch,
                  const ForwardOptions& options) const override;

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParameter>* out) const override;

  std::string name() const override { return "xfraud_detector"; }

  const DetectorConfig& config() const { return config_; }

 private:
  DetectorConfig config_;
  nn::Linear input_proj_;       // feature_dim -> hidden
  nn::Var node_type_emb_;       // [kNumNodeTypes, hidden], zero-init
  std::vector<std::unique_ptr<HeteroConvLayer>> layers_;
  nn::Mlp head_;                // (hidden + feature_dim) -> 2 logits
};

}  // namespace xfraud::core

#endif  // XFRAUD_CORE_DETECTOR_H_
