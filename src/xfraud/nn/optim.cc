#include "xfraud/nn/optim.h"

#include <cmath>

#include "xfraud/common/logging.h"

namespace xfraud::nn {

AdamW::AdamW(std::vector<NamedParameter> params, AdamWOptions options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::ZerosLike(p.var.value()));
    v_.push_back(Tensor::ZerosLike(p.var.value()));
  }
}

void AdamW::Step() {
  ++step_count_;
  float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(step_count_));
  float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Var& var = params_[i].var;
    Tensor& value = var.mutable_value();
    const Tensor& grad = var.grad();
    float* w = value.data();
    const float* g = grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (int64_t j = 0; j < value.size(); ++j) {
      m[j] = options_.beta1 * m[j] + (1.0f - options_.beta1) * g[j];
      v[j] = options_.beta2 * v[j] + (1.0f - options_.beta2) * g[j] * g[j];
      float mhat = m[j] / bc1;
      float vhat = v[j] / bc2;
      // Decoupled weight decay applied directly to the weights.
      w[j] -= options_.lr *
              (mhat / (std::sqrt(vhat) + options_.eps) +
               options_.weight_decay * w[j]);
    }
  }
}

void AdamW::ZeroGrad() {
  for (auto& p : params_) p.var.ZeroGrad();
}

Status AdamW::SetState(std::vector<Tensor> first_moments,
                       std::vector<Tensor> second_moments,
                       int64_t step_count) {
  if (first_moments.size() != params_.size() ||
      second_moments.size() != params_.size()) {
    return Status::InvalidArgument("optimizer state count mismatch");
  }
  if (step_count < 0) {
    return Status::InvalidArgument("negative optimizer step count");
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!first_moments[i].SameShape(params_[i].var.value()) ||
        !second_moments[i].SameShape(params_[i].var.value())) {
      return Status::InvalidArgument("optimizer state shape mismatch at " +
                                     params_[i].name);
    }
  }
  m_ = std::move(first_moments);
  v_ = std::move(second_moments);
  step_count_ = step_count;
  return Status::OK();
}

double AdamW::ClipGradNorm(double max_norm) {
  double total = 0.0;
  for (auto& p : params_) {
    const Tensor& g = p.var.grad();
    const float* gd = g.data();
    for (int64_t j = 0; j < g.size(); ++j) {
      total += static_cast<double>(gd[j]) * gd[j];
    }
  }
  double norm = std::sqrt(total);
  if (norm > max_norm && norm > 0.0) {
    float scale = static_cast<float>(max_norm / norm);
    for (auto& p : params_) p.var.grad().ScaleInPlace(scale);
  }
  return norm;
}

}  // namespace xfraud::nn
