#include "xfraud/nn/variable.h"

#include <unordered_set>

#include "xfraud/common/logging.h"

namespace xfraud::nn {

namespace {

thread_local bool t_no_grad = false;

}  // namespace

NoGradGuard::NoGradGuard() : previous_(t_no_grad) { t_no_grad = true; }

NoGradGuard::~NoGradGuard() { t_no_grad = previous_; }

bool NoGradGuard::Active() { return t_no_grad; }

Var::Var(Tensor value, bool requires_grad)
    : impl_(std::make_shared<internal::VarImpl>()) {
  impl_->value = std::move(value);
  impl_->requires_grad = requires_grad;
}

Var Var::FromImpl(std::shared_ptr<internal::VarImpl> impl) {
  Var v;
  v.impl_ = std::move(impl);
  return v;
}

float Var::item() const {
  XF_CHECK_EQ(impl_->value.rows(), 1);
  XF_CHECK_EQ(impl_->value.cols(), 1);
  return impl_->value.At(0, 0);
}

void Var::ZeroGrad() {
  if (impl_ == nullptr) return;
  if (impl_->grad.SameShape(impl_->value)) impl_->grad.Fill(0.0f);
}

void Var::Backward() {
  XF_CHECK(impl_ != nullptr);
  XF_CHECK(!t_no_grad) << "Backward() under a NoGradGuard records no tape";
  XF_CHECK_EQ(impl_->value.rows(), 1);
  XF_CHECK_EQ(impl_->value.cols(), 1);

  // Iterative post-order DFS to obtain a topological order of the tape.
  std::vector<internal::VarImpl*> order;
  std::unordered_set<internal::VarImpl*> visited;
  std::vector<std::pair<internal::VarImpl*, size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, child_idx] = stack.back();
    if (child_idx < node->parents.size()) {
      internal::VarImpl* parent = node->parents[child_idx].get();
      ++child_idx;
      if (visited.insert(parent).second) stack.emplace_back(parent, 0);
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->EnsureGrad().Fill(1.0f);
  // `order` is post-order (parents before users appended first), so walk it
  // in reverse to visit each node after all of its consumers.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::VarImpl* node = *it;
    if (node->backward_fn) node->backward_fn(node);
  }
}

}  // namespace xfraud::nn
