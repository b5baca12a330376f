#ifndef XFRAUD_CORE_GNN_MODEL_H_
#define XFRAUD_CORE_GNN_MODEL_H_

#include <string>

#include "xfraud/common/rng.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/ops.h"
#include "xfraud/sample/sampler.h"

namespace xfraud::core {

/// Per-forward-pass options shared by the detector and the baselines.
struct ForwardOptions {
  /// Enables dropout. The tape is recorded whenever a parameter requires
  /// gradients; inference callers run the forward under an nn::NoGradGuard.
  bool training = false;
  /// RNG for dropout; required when training.
  xfraud::Rng* rng = nullptr;
  /// Optional [E,1] differentiable edge weights in (0,1], multiplied onto
  /// every per-edge message. This is the hook GNNExplainer's edge mask uses
  /// (paper Fig. 4 right / Appendix D); nullptr means all-ones.
  const nn::Var* edge_mask = nullptr;
  /// Optional [N,F] differentiable replacement of the batch features
  /// (GNNExplainer's node-feature mask applies here); nullptr uses
  /// batch.features as a constant.
  const nn::Var* features_override = nullptr;
};

/// Common interface of the trainable node classifiers: the xFraud detector
/// (core contribution) and the GAT / GEM baselines. Forward returns the
/// [num_targets, 2] logits for batch.target_locals.
class GnnModel : public nn::Module {
 public:
  ~GnnModel() override = default;

  virtual nn::Var Forward(const sample::MiniBatch& batch,
                          const ForwardOptions& options) const = 0;

  virtual std::string name() const = 0;
};

/// Applies per-node-type linear maps: output row i, of type types[i], is
/// x's row (*rows)[i] (row i when `rows` is null) through
/// `linears[types[i]]`, as one nn::TypedLinear tape node. The typed Q/K/V
/// projections of paper eqs. 2-7 are built from this.
nn::Var ApplyTypedLinear(const std::vector<nn::Linear>& linears,
                         const nn::Var& x, const std::vector<int32_t>& types,
                         const std::vector<int32_t>* rows = nullptr);

/// Fraud probabilities (softmax of the [N, 2] logits' fraud column) — the
/// score every consumer of Forward reports: trainer evaluation, the
/// explainers, the CLI, and the online ScoringService.
std::vector<double> FraudProbabilities(const nn::Var& logits);

}  // namespace xfraud::core

#endif  // XFRAUD_CORE_GNN_MODEL_H_
