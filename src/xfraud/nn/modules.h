#ifndef XFRAUD_NN_MODULES_H_
#define XFRAUD_NN_MODULES_H_

#include <string>
#include <vector>

#include "xfraud/common/rng.h"
#include "xfraud/nn/ops.h"
#include "xfraud/nn/variable.h"

namespace xfraud::nn {

/// A named trainable parameter, as exposed by Module::Parameters(). Names are
/// hierarchical ("layer0.q_linear.txn.weight") and used for (de)serialization
/// and for the DDP gradient exchange.
struct NamedParameter {
  std::string name;
  Var var;
};

/// Base class for anything holding trainable parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Appends this module's parameters (prefixed by `prefix`) to `out`.
  virtual void CollectParameters(const std::string& prefix,
                                 std::vector<NamedParameter>* out) const = 0;

  /// Flat list of all named parameters.
  std::vector<NamedParameter> Parameters() const {
    std::vector<NamedParameter> out;
    CollectParameters("", &out);
    return out;
  }

  /// Total number of scalar weights.
  int64_t ParameterCount() const;

  /// Zeroes every parameter gradient.
  void ZeroGrad();
};

/// Affine map y = x W + b. Weight shape [in, out]; init is U(-a, a) with
/// a = sqrt(6/(in+out)) (Glorot), matching the paper's uniform random init.
class Linear : public Module {
 public:
  Linear(int64_t in_dim, int64_t out_dim, xfraud::Rng* rng,
         bool with_bias = true);

  /// y = act(x·W + b) in one fused kernel pass (no intermediate x·W block).
  Var Forward(const Var& x,
              kernels::Activation act = kernels::Activation::kNone) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParameter>* out) const override;

  const Var& weight() const { return weight_; }
  /// Undefined for a bias-free linear.
  const Var& bias() const { return bias_; }

 private:
  Var weight_;
  Var bias_;
  bool with_bias_;
};

/// Learnable per-id embedding table [num_ids, dim]. The paper initializes
/// node-type and edge-type embeddings to zero (§3.2.2), hence `zero_init`.
class Embedding : public Module {
 public:
  Embedding(int64_t num_ids, int64_t dim, xfraud::Rng* rng,
            bool zero_init = false);

  /// Rows of the table selected by `ids` -> [|ids|, dim].
  Var Forward(const std::vector<int32_t>& ids) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParameter>* out) const override;

 private:
  Var table_;
};

/// Layer normalization with learnable gain (init 1) and bias (init 0).
class LayerNormModule : public Module {
 public:
  explicit LayerNormModule(int64_t dim);

  Var Forward(const Var& x) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParameter>* out) const override;

 private:
  Var gamma_;
  Var beta_;
};

/// The detector's prediction head (paper §3.2.1 step 3): a feed-forward
/// network with two hidden layers, each followed by dropout, layer norm, and
/// ReLU, ending in a linear map to `out_dim` logits.
class Mlp : public Module {
 public:
  Mlp(int64_t in_dim, int64_t hidden_dim, int64_t out_dim, float dropout,
      xfraud::Rng* rng);

  Var Forward(const Var& x, bool training, xfraud::Rng* rng) const;

  void CollectParameters(const std::string& prefix,
                         std::vector<NamedParameter>* out) const override;

 private:
  Linear fc1_;
  LayerNormModule ln1_;
  Linear fc2_;
  LayerNormModule ln2_;
  Linear out_;
  float dropout_;
};

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_MODULES_H_
