#ifndef XFRAUD_NN_OPTIM_H_
#define XFRAUD_NN_OPTIM_H_

#include <vector>

#include "xfraud/common/status.h"
#include "xfraud/nn/modules.h"

namespace xfraud::nn {

/// Hyperparameters for AdamW. The paper trains all models with adamw and
/// gradient clipping (clip = 0.25, Appendix C).
struct AdamWOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.01f;
};

/// Decoupled-weight-decay Adam (Loshchilov & Hutter). Holds first/second
/// moment state per parameter; Step() consumes the gradients accumulated by
/// the last Backward().
class AdamW {
 public:
  AdamW(std::vector<NamedParameter> params, AdamWOptions options);

  /// Applies one update using the currently accumulated gradients.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Rescales gradients so their global L2 norm is at most `max_norm`.
  /// Returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

  const std::vector<NamedParameter>& params() const { return params_; }
  AdamWOptions& options() { return options_; }

  /// Optimizer state, exposed for checkpoint/resume and dead-replica
  /// rejoin: a resumed (or rejoined) optimizer must continue the exact
  /// moment estimates and bias-correction schedule, or the update sequence
  /// diverges from an uninterrupted run.
  const std::vector<Tensor>& first_moments() const { return m_; }
  const std::vector<Tensor>& second_moments() const { return v_; }
  int64_t step_count() const { return step_count_; }

  /// Restores state captured from a checkpoint (or a peer replica).
  /// Shapes must match the constructed parameter list.
  Status SetState(std::vector<Tensor> first_moments,
                  std::vector<Tensor> second_moments, int64_t step_count);

 private:
  std::vector<NamedParameter> params_;
  AdamWOptions options_;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
  int64_t step_count_ = 0;
};

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_OPTIM_H_
