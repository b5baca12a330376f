#ifndef XFRAUD_NN_VARIABLE_H_
#define XFRAUD_NN_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "xfraud/nn/tensor.h"

namespace xfraud::nn {

namespace internal {

/// One node of the reverse-mode autodiff graph.
struct VarImpl {
  Tensor value;
  Tensor grad;  // Lazily allocated; same shape as value once touched.
  bool requires_grad = false;
  std::vector<std::shared_ptr<VarImpl>> parents;
  /// Propagates this node's grad into its parents' grads.
  std::function<void(VarImpl*)> backward_fn;

  Tensor& EnsureGrad() {
    if (!grad.SameShape(value)) grad = Tensor::ZerosLike(value);
    return grad;
  }
};

}  // namespace internal

/// A tensor plus its place in the autodiff tape. Copying a Var aliases the
/// underlying node (shared_ptr semantics), mirroring torch.Tensor.
///
/// The engine is a classic define-by-run tape: every op allocates a fresh
/// node whose closure knows how to push gradients to its inputs; calling
/// Backward() on a scalar output runs the closures in reverse topological
/// order. Parameters are requires_grad leaves, so every op on them records
/// parents and a closure; inference forwards run under a NoGradGuard, which
/// keeps them off the tape.
class Var {
 public:
  Var() = default;

  /// Wraps a tensor. `requires_grad=true` marks it as a trainable leaf.
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }

  const Tensor& value() const { return impl_->value; }
  Tensor& mutable_value() { return impl_->value; }

  /// Gradient accumulated by the last Backward(). Allocates zeros on demand.
  Tensor& grad() { return impl_->EnsureGrad(); }

  bool requires_grad() const { return impl_ && impl_->requires_grad; }

  int64_t rows() const { return impl_->value.rows(); }
  int64_t cols() const { return impl_->value.cols(); }

  /// Scalar convenience accessor; pre: shape is [1,1].
  float item() const;

  /// Clears this node's gradient buffer (leaves only; cheap no-op otherwise).
  void ZeroGrad();

  /// Runs reverse-mode autodiff from this node. Pre: shape is [1,1].
  void Backward();

  std::shared_ptr<internal::VarImpl> impl() const { return impl_; }

  /// Used by ops to construct result nodes.
  static Var FromImpl(std::shared_ptr<internal::VarImpl> impl);

 private:
  std::shared_ptr<internal::VarImpl> impl_;
};

/// While alive, ops on the calling thread record no tape: results get no
/// parents, no backward closure and requires_grad=false, whatever their
/// inputs. Values are unchanged — only the autograd bookkeeping is skipped.
/// Guards nest; each restores the state it found. Inference forwards
/// (evaluation, serving, explainer base scores) run under one; anything
/// that calls Backward() must not.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

  /// True iff a guard is alive on the calling thread.
  static bool Active();

 private:
  bool previous_;
};

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_VARIABLE_H_
