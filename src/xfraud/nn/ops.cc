#include "xfraud/nn/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "xfraud/common/logging.h"

namespace xfraud::nn {

namespace {

using internal::VarImpl;

/// True when an op over `inputs` records a tape node: some input requires
/// gradients and no NoGradGuard is active on this thread.
bool RecordsTape(const std::vector<Var>& inputs) {
  if (NoGradGuard::Active()) return false;
  for (const auto& in : inputs) {
    if (in.requires_grad()) return true;
  }
  return false;
}

/// Builds the result node; attaches parents/backward only when needed.
Var MakeResult(Tensor value, std::vector<Var> inputs,
               std::function<void(VarImpl*)> backward_fn) {
  auto impl = std::make_shared<VarImpl>();
  impl->value = std::move(value);
  if (RecordsTape(inputs)) {
    impl->requires_grad = true;
    impl->parents.reserve(inputs.size());
    for (const auto& in : inputs) impl->parents.push_back(in.impl());
    impl->backward_fn = std::move(backward_fn);
  }
  return Var::FromImpl(std::move(impl));
}

/// An inverted-dropout mask for `rows` rows of `cols` columns, drawn
/// row-major over the whole [block_rows, cols] block those rows come from
/// (the rows themselves when mask_rows is null): row i is the block's row
/// (*mask_rows)[i]. Each entry is 0 w.p. p, else 1 / (1 - p).
Tensor DrawDropoutMask(int64_t rows, int64_t cols, float p, xfraud::Rng* rng,
                       const std::vector<int32_t>* mask_rows,
                       int64_t block_rows) {
  XF_CHECK_LT(p, 1.0f);
  XF_CHECK(rng != nullptr);
  if (mask_rows == nullptr) {
    block_rows = rows;
  } else {
    XF_CHECK_EQ(static_cast<int64_t>(mask_rows->size()), rows);
  }
  float keep = 1.0f - p;
  Tensor block(block_rows, cols);
  float* mp = block.data();
  for (int64_t i = 0; i < block.size(); ++i) {
    mp[i] = rng->NextBernoulli(p) ? 0.0f : 1.0f / keep;
  }
  if (mask_rows == nullptr) return block;
  Tensor mask(rows, cols);
  kernels::GatherRows(block, *mask_rows, &mask);
  return mask;
}

/// t ⊙= mask elementwise; an empty mask (no dropout drawn) leaves t as is.
void ApplyMask(const Tensor& mask, Tensor* t) {
  const float* mv = mask.data();
  float* tp = t->data();
  for (int64_t i = 0; i < mask.size(); ++i) tp[i] *= mv[i];
}

/// att ⊙ mask, built in *scratch; att itself when no mask was drawn.
const Tensor& Masked(const Tensor& att, const Tensor& mask, Tensor* scratch) {
  if (mask.empty()) return att;
  *scratch = att;
  ApplyMask(mask, scratch);
  return *scratch;
}

/// Elementwise unary op helper: forward fn and local derivative from (x, y).
template <typename Fwd, typename Dydx>
Var UnaryElementwise(const Var& a, Fwd fwd, Dydx dydx) {
  Tensor out = Tensor::ZerosLike(a.value());
  const float* x = a.value().data();
  float* y = out.data();
  int64_t n = out.size();
  for (int64_t i = 0; i < n; ++i) y[i] = fwd(x[i]);
  auto a_impl = a.impl();
  return MakeResult(
      std::move(out), {a},
      [a_impl, dydx](VarImpl* self) {
        if (!a_impl->requires_grad) return;
        Tensor& ga = a_impl->EnsureGrad();
        const float* xv = a_impl->value.data();
        const float* yv = self->value.data();
        const float* gy = self->grad.data();
        float* gx = ga.data();
        int64_t count = self->value.size();
        for (int64_t i = 0; i < count; ++i) gx[i] += gy[i] * dydx(xv[i], yv[i]);
      });
}

}  // namespace

Var Constant(Tensor t) { return Var(std::move(t), /*requires_grad=*/false); }

Var MatMul(const Var& a, const Var& b) {
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  XF_CHECK_EQ(av.cols(), bv.rows());
  Tensor out = Tensor::Uninitialized(av.rows(), bv.cols());
  // Blocked kernel; no zero-skip shortcut, so 0·NaN / 0·Inf propagate and
  // timing is data-independent. It writes every entry of out.
  kernels::Gemm(av, bv, &out);
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeResult(
      std::move(out), {a, b},
      [a_impl, b_impl](VarImpl* self) {
        const Tensor& g = self->grad;
        if (a_impl->requires_grad) {
          kernels::GemmTransBAdd(g, b_impl->value, &a_impl->EnsureGrad());
        }
        if (b_impl->requires_grad) {
          kernels::GemmTransAAdd(a_impl->value, g, &b_impl->EnsureGrad());
        }
      });
}

Var LinearBiasAct(const Var& x, const Var& w, const Var& bias,
                  kernels::Activation act) {
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  XF_CHECK_EQ(xv.cols(), wv.rows());
  const float* bias_ptr = nullptr;
  if (bias.defined()) {
    XF_CHECK_EQ(bias.value().rows(), 1);
    XF_CHECK_EQ(bias.value().cols(), wv.cols());
    bias_ptr = bias.value().Row(0);
  }
  Tensor out = Tensor::Uninitialized(xv.rows(), wv.cols());
  kernels::GemmBiasAct(xv, wv, bias_ptr, act, &out);
  std::vector<Var> inputs = {x, w};
  if (bias.defined()) inputs.push_back(bias);
  auto x_impl = x.impl();
  auto w_impl = w.impl();
  auto b_impl = bias.defined() ? bias.impl() : nullptr;
  return MakeResult(
      std::move(out), std::move(inputs),
      [x_impl, w_impl, b_impl, act](VarImpl* self) {
        // Pre-activation grad: ReLU gates on the output (y > 0 ⟺ pre > 0).
        const Tensor* dpre = &self->grad;
        Tensor gated;
        if (act == kernels::Activation::kRelu) {
          gated = self->grad;
          const float* y = self->value.data();
          float* gp = gated.data();
          for (int64_t i = 0; i < gated.size(); ++i) {
            if (!(y[i] > 0.0f)) gp[i] = 0.0f;
          }
          dpre = &gated;
        }
        if (x_impl->requires_grad) {
          kernels::GemmTransBAdd(*dpre, w_impl->value, &x_impl->EnsureGrad());
        }
        if (w_impl->requires_grad) {
          kernels::GemmTransAAdd(x_impl->value, *dpre, &w_impl->EnsureGrad());
        }
        if (b_impl != nullptr && b_impl->requires_grad) {
          kernels::ColSumAdd(*dpre, &b_impl->EnsureGrad());
        }
      });
}

Var TypedLinear(const Var& x, const std::vector<int32_t>& types,
                const std::vector<Var>& weights,
                const std::vector<Var>& biases,
                const std::vector<int32_t>* rows) {
  const Tensor& xv = x.value();
  XF_CHECK_EQ(rows != nullptr ? rows->size() : static_cast<size_t>(xv.rows()),
              types.size());
  XF_CHECK(!weights.empty());
  XF_CHECK_EQ(weights.size(), biases.size());
  const int64_t out_dim = weights[0].cols();
  // Group the output rows by type once, ascending within each type, with
  // the x rows they read when those are not the output rows themselves.
  struct TypedRows {
    std::vector<std::vector<int32_t>> out;
    std::vector<std::vector<int32_t>> in;  // empty: x row i for output row i
    const std::vector<int32_t>& In(size_t t) const {
      return in.empty() ? out[t] : in[t];
    }
  };
  auto by_type = std::make_shared<TypedRows>();
  by_type->out.resize(weights.size());
  if (rows != nullptr) by_type->in.resize(weights.size());
  for (size_t r = 0; r < types.size(); ++r) {
    XF_CHECK_GE(types[r], 0);
    XF_CHECK_LT(static_cast<size_t>(types[r]), weights.size());
    by_type->out[types[r]].push_back(static_cast<int32_t>(r));
    if (rows != nullptr) by_type->in[types[r]].push_back((*rows)[r]);
  }
  std::vector<Var> inputs = {x};
  for (size_t t = 0; t < weights.size(); ++t) {
    if (by_type->out[t].empty()) continue;
    XF_CHECK_EQ(weights[t].rows(), xv.cols());
    XF_CHECK_EQ(weights[t].cols(), out_dim);
    inputs.push_back(weights[t]);
    if (biases[t].defined()) {
      XF_CHECK_EQ(biases[t].rows(), 1);
      XF_CHECK_EQ(biases[t].cols(), out_dim);
      inputs.push_back(biases[t]);
    }
  }

  // One GemmBiasAct per type, reading its x rows and writing its output
  // rows in place. Each output row is written once, with the value the
  // composed chain's scatter into zeros and Add passes produce (kernels.h:
  // no stored value is −0), so the output needs no zero fill.
  Tensor out = Tensor::Uninitialized(static_cast<int64_t>(types.size()),
                                     out_dim);
  for (size_t t = 0; t < weights.size(); ++t) {
    if (by_type->out[t].empty()) continue;
    const float* bias_ptr =
        biases[t].defined() ? biases[t].value().Row(0) : nullptr;
    kernels::GemmBiasAct(xv, weights[t].value(), bias_ptr,
                         kernels::Activation::kNone, &out, &by_type->In(t),
                         &by_type->out[t]);
  }
  if (!RecordsTape(inputs)) return MakeResult(std::move(out), {}, nullptr);

  auto x_impl = x.impl();
  std::vector<std::shared_ptr<VarImpl>> w_impls;
  std::vector<std::shared_ptr<VarImpl>> b_impls;
  for (size_t t = 0; t < weights.size(); ++t) {
    w_impls.push_back(weights[t].impl());
    b_impls.push_back(biases[t].defined() ? biases[t].impl() : nullptr);
  }
  return MakeResult(
      std::move(out), std::move(inputs),
      [x_impl, w_impls, b_impls, by_type](VarImpl* self) {
        // Type by type, every product reads this type's rows of the output
        // grad and of x in place. A grad that starts at +0 never becomes
        // −0, so reading dOut directly gives the bits of the composed
        // chain's 0 + dOut block.
        for (size_t t = 0; t < w_impls.size(); ++t) {
          const std::vector<int32_t>& out_rows = by_type->out[t];
          const std::vector<int32_t>& x_rows = by_type->In(t);
          VarImpl* w = w_impls[t].get();
          VarImpl* b = b_impls[t].get();
          if (out_rows.empty()) continue;
          if (x_impl->requires_grad) {
            // Each dx dot lands in x.grad[x_rows[i]], ascending i.
            kernels::GemmTransBAdd(self->grad, w->value, &x_impl->EnsureGrad(),
                                   &out_rows, &x_rows);
          }
          if (w->requires_grad) {
            kernels::GemmTransAAdd(x_impl->value, self->grad, &w->EnsureGrad(),
                                   &x_rows, &out_rows);
          }
          if (b != nullptr && b->requires_grad) {
            kernels::ColSumAdd(self->grad, &b->EnsureGrad(), &out_rows);
          }
        }
      });
}

Var Add(const Var& a, const Var& b) {
  XF_CHECK_SHAPE(a.value(), b.value());
  Tensor out = a.value();
  out.AddInPlace(b.value());
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeResult(std::move(out), {a, b}, [a_impl, b_impl](VarImpl* self) {
    if (a_impl->requires_grad) a_impl->EnsureGrad().AddInPlace(self->grad);
    if (b_impl->requires_grad) b_impl->EnsureGrad().AddInPlace(self->grad);
  });
}

Var AddRowBroadcast(const Var& a, const Var& bias) {
  const Tensor& av = a.value();
  const Tensor& bv = bias.value();
  XF_CHECK_EQ(bv.rows(), 1);
  XF_CHECK_EQ(bv.cols(), av.cols());
  Tensor out = av;
  for (int64_t r = 0; r < av.rows(); ++r) {
    float* row = out.Row(r);
    const float* brow = bv.Row(0);
    for (int64_t c = 0; c < av.cols(); ++c) row[c] += brow[c];
  }
  auto a_impl = a.impl();
  auto b_impl = bias.impl();
  return MakeResult(std::move(out), {a, bias}, [a_impl,
                                                b_impl](VarImpl* self) {
    if (a_impl->requires_grad) a_impl->EnsureGrad().AddInPlace(self->grad);
    if (b_impl->requires_grad) {
      Tensor& gb = b_impl->EnsureGrad();
      const Tensor& g = self->grad;
      for (int64_t r = 0; r < g.rows(); ++r) {
        const float* grow = g.Row(r);
        float* gbrow = gb.Row(0);
        for (int64_t c = 0; c < g.cols(); ++c) gbrow[c] += grow[c];
      }
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  XF_CHECK_SHAPE(a.value(), b.value());
  Tensor out = a.value();
  const float* bv = b.value().data();
  float* ov = out.data();
  for (int64_t i = 0; i < out.size(); ++i) ov[i] -= bv[i];
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeResult(std::move(out), {a, b}, [a_impl, b_impl](VarImpl* self) {
    if (a_impl->requires_grad) a_impl->EnsureGrad().AddInPlace(self->grad);
    if (b_impl->requires_grad) {
      Tensor& gb = b_impl->EnsureGrad();
      const float* g = self->grad.data();
      float* gbp = gb.data();
      for (int64_t i = 0; i < self->grad.size(); ++i) gbp[i] -= g[i];
    }
  });
}

Var Mul(const Var& a, const Var& b) {
  XF_CHECK_SHAPE(a.value(), b.value());
  Tensor out = a.value();
  const float* bv = b.value().data();
  float* ov = out.data();
  for (int64_t i = 0; i < out.size(); ++i) ov[i] *= bv[i];
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeResult(std::move(out), {a, b}, [a_impl, b_impl](VarImpl* self) {
    const float* g = self->grad.data();
    int64_t n = self->grad.size();
    if (a_impl->requires_grad) {
      float* ga = a_impl->EnsureGrad().data();
      const float* bvals = b_impl->value.data();
      for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * bvals[i];
    }
    if (b_impl->requires_grad) {
      float* gb = b_impl->EnsureGrad().data();
      const float* avals = a_impl->value.data();
      for (int64_t i = 0; i < n; ++i) gb[i] += g[i] * avals[i];
    }
  });
}

Var Scale(const Var& a, float s) {
  return UnaryElementwise(
      a, [s](float x) { return s * x; },
      [s](float, float) { return s; });
}

Var AddConst(const Var& a, float c) {
  return UnaryElementwise(
      a, [c](float x) { return x + c; },
      [](float, float) { return 1.0f; });
}

Var Relu(const Var& a) {
  return UnaryElementwise(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Var LeakyRelu(const Var& a, float alpha) {
  return UnaryElementwise(
      a, [alpha](float x) { return x >= 0.0f ? x : alpha * x; },
      [alpha](float x, float) { return x >= 0.0f ? 1.0f : alpha; });
}

Var Tanh(const Var& a) {
  return UnaryElementwise(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Var Sigmoid(const Var& a) {
  return UnaryElementwise(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Var Log(const Var& a) {
  return UnaryElementwise(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Var Dropout(const Var& a, float p, bool training, xfraud::Rng* rng,
            const std::vector<int32_t>* mask_rows, int64_t mask_block_rows) {
  if (!training || p <= 0.0f) return a;
  auto mask = std::make_shared<Tensor>(
      DrawDropoutMask(a.value().rows(), a.value().cols(), p, rng, mask_rows,
                      mask_block_rows));
  Tensor out = a.value();
  ApplyMask(*mask, &out);
  auto a_impl = a.impl();
  return MakeResult(std::move(out), {a}, [a_impl, mask](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    float* ga = a_impl->EnsureGrad().data();
    const float* g = self->grad.data();
    const float* mv = mask->data();
    for (int64_t i = 0; i < self->grad.size(); ++i) {
      ga[i] += g[i] * mv[i];
    }
  });
}

Var RowSoftmax(const Var& a) {
  const Tensor& av = a.value();
  XF_CHECK_GT(av.cols(), 0) << "RowSoftmax over a zero-column tensor";
  Tensor out(av.rows(), av.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float* x = av.Row(r);
    float* y = out.Row(r);
    float mx = x[0];
    for (int64_t c = 1; c < av.cols(); ++c) mx = std::max(mx, x[c]);
    float denom = 0.0f;
    for (int64_t c = 0; c < av.cols(); ++c) {
      y[c] = std::exp(x[c] - mx);
      denom += y[c];
    }
    for (int64_t c = 0; c < av.cols(); ++c) y[c] /= denom;
  }
  auto a_impl = a.impl();
  return MakeResult(std::move(out), {a}, [a_impl](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    Tensor& ga = a_impl->EnsureGrad();
    const Tensor& y = self->value;
    const Tensor& g = self->grad;
    for (int64_t r = 0; r < y.rows(); ++r) {
      const float* yr = y.Row(r);
      const float* gr = g.Row(r);
      float dot = 0.0f;
      for (int64_t c = 0; c < y.cols(); ++c) dot += yr[c] * gr[c];
      float* gar = ga.Row(r);
      for (int64_t c = 0; c < y.cols(); ++c) {
        gar[c] += yr[c] * (gr[c] - dot);
      }
    }
  });
}

Var CrossEntropy(const Var& logits, const std::vector<int>& labels,
                 const std::vector<float>& class_weights) {
  const Tensor& lv = logits.value();
  XF_CHECK_EQ(static_cast<size_t>(lv.rows()), labels.size());
  int64_t n = lv.rows();
  int64_t c = lv.cols();
  XF_CHECK_GT(n, 0);
  XF_CHECK_GT(c, 0) << "CrossEntropy over zero-column logits";
  if (!class_weights.empty()) {
    XF_CHECK_EQ(static_cast<int64_t>(class_weights.size()), c);
  }
  // Softmax probabilities are cached for the backward pass.
  auto probs = std::make_shared<Tensor>(n, c);
  double total_weight = 0.0;
  double loss = 0.0;
  auto weights = std::make_shared<std::vector<float>>(n, 1.0f);
  for (int64_t r = 0; r < n; ++r) {
    const float* x = lv.Row(r);
    float* p = probs->Row(r);
    float mx = x[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, x[j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < c; ++j) {
      p[j] = std::exp(x[j] - mx);
      denom += p[j];
    }
    for (int64_t j = 0; j < c; ++j) p[j] /= denom;
    int label = labels[r];
    XF_CHECK_GE(label, 0);
    XF_CHECK_LT(label, c);
    float w = class_weights.empty() ? 1.0f : class_weights[label];
    (*weights)[r] = w;
    total_weight += w;
    loss -= w * std::log(std::max(p[label], 1e-12f));
  }
  XF_CHECK_GT(total_weight, 0.0)
      << "CrossEntropy: every present class has zero weight, the "
         "normalizer would divide by zero";
  loss /= total_weight;
  Tensor out(1, 1, static_cast<float>(loss));
  auto l_impl = logits.impl();
  auto labels_copy = std::make_shared<std::vector<int>>(labels);
  float inv_total = static_cast<float>(1.0 / total_weight);
  return MakeResult(
      std::move(out), {logits},
      [l_impl, probs, labels_copy, weights, inv_total](VarImpl* self) {
        if (!l_impl->requires_grad) return;
        float gy = self->grad.At(0, 0);
        Tensor& gl = l_impl->EnsureGrad();
        int64_t nrows = probs->rows();
        int64_t ncols = probs->cols();
        for (int64_t r = 0; r < nrows; ++r) {
          const float* p = probs->Row(r);
          float* g = gl.Row(r);
          float w = (*weights)[r] * inv_total * gy;
          for (int64_t j = 0; j < ncols; ++j) g[j] += w * p[j];
          g[(*labels_copy)[r]] -= w;
        }
      });
}

Var ConcatCols(const Var& a, const Var& b) {
  const Tensor& av = a.value();
  const Tensor& bv = b.value();
  XF_CHECK_EQ(av.rows(), bv.rows());
  Tensor out(av.rows(), av.cols() + bv.cols());
  for (int64_t r = 0; r < av.rows(); ++r) {
    float* orow = out.Row(r);
    std::copy(av.Row(r), av.Row(r) + av.cols(), orow);
    std::copy(bv.Row(r), bv.Row(r) + bv.cols(), orow + av.cols());
  }
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  int64_t ac = av.cols();
  int64_t bc = bv.cols();
  return MakeResult(std::move(out), {a, b},
                    [a_impl, b_impl, ac, bc](VarImpl* self) {
                      const Tensor& g = self->grad;
                      if (a_impl->requires_grad) {
                        Tensor& ga = a_impl->EnsureGrad();
                        for (int64_t r = 0; r < g.rows(); ++r) {
                          const float* grow = g.Row(r);
                          float* garow = ga.Row(r);
                          for (int64_t c = 0; c < ac; ++c) {
                            garow[c] += grow[c];
                          }
                        }
                      }
                      if (b_impl->requires_grad) {
                        Tensor& gb = b_impl->EnsureGrad();
                        for (int64_t r = 0; r < g.rows(); ++r) {
                          const float* grow = g.Row(r);
                          float* gbrow = gb.Row(r);
                          for (int64_t c = 0; c < bc; ++c) {
                            gbrow[c] += grow[ac + c];
                          }
                        }
                      }
                    });
}

Var SliceCols(const Var& a, int64_t start, int64_t len) {
  const Tensor& av = a.value();
  XF_CHECK_GE(start, 0);
  XF_CHECK_LE(start + len, av.cols());
  Tensor out(av.rows(), len);
  for (int64_t r = 0; r < av.rows(); ++r) {
    std::copy(av.Row(r) + start, av.Row(r) + start + len, out.Row(r));
  }
  auto a_impl = a.impl();
  return MakeResult(std::move(out), {a}, [a_impl, start, len](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    Tensor& ga = a_impl->EnsureGrad();
    const Tensor& g = self->grad;
    for (int64_t r = 0; r < g.rows(); ++r) {
      const float* grow = g.Row(r);
      float* garow = ga.Row(r) + start;
      for (int64_t c = 0; c < len; ++c) garow[c] += grow[c];
    }
  });
}

Var IndexRows(const Var& a, const std::vector<int32_t>& indices) {
  const Tensor& av = a.value();
  Tensor out(static_cast<int64_t>(indices.size()), av.cols());
  kernels::GatherRows(av, indices, &out);
  auto a_impl = a.impl();
  auto idx = std::make_shared<std::vector<int32_t>>(indices);
  return MakeResult(std::move(out), {a}, [a_impl, idx](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    // Scatter-add by source row: each source row's contributions accumulate
    // in ascending gather position.
    kernels::ScatterAddRowsKernel(self->grad, *idx, &a_impl->EnsureGrad());
  });
}

Var ScatterAddRows(const Var& a, const std::vector<int32_t>& index,
                   int64_t num_rows) {
  const Tensor& av = a.value();
  XF_CHECK_EQ(static_cast<size_t>(av.rows()), index.size());
  Tensor out(num_rows, av.cols());
  kernels::ScatterAddRowsKernel(av, index, &out);
  auto a_impl = a.impl();
  auto idx = std::make_shared<std::vector<int32_t>>(index);
  return MakeResult(std::move(out), {a}, [a_impl, idx](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    kernels::GatherAddRows(self->grad, *idx, &a_impl->EnsureGrad());
  });
}

Var SegmentSoftmax(const Var& a, const std::vector<int32_t>& segments,
                   int64_t num_segments) {
  const Tensor& av = a.value();
  XF_CHECK_EQ(static_cast<size_t>(av.rows()), segments.size());
  int64_t cols = av.cols();
  Tensor out(av.rows(), cols);
  // Numerically stable segment softmax: subtract per-(segment, col) max.
  Tensor seg_max(num_segments, cols, -std::numeric_limits<float>::infinity());
  for (int64_t e = 0; e < av.rows(); ++e) {
    int32_t s = segments[e];
    XF_CHECK_GE(s, 0);
    XF_CHECK_LT(s, num_segments);
    for (int64_t c = 0; c < cols; ++c) {
      seg_max.At(s, c) = std::max(seg_max.At(s, c), av.At(e, c));
    }
  }
  Tensor seg_sum(num_segments, cols);
  for (int64_t e = 0; e < av.rows(); ++e) {
    int32_t s = segments[e];
    for (int64_t c = 0; c < cols; ++c) {
      float v = std::exp(av.At(e, c) - seg_max.At(s, c));
      out.At(e, c) = v;
      seg_sum.At(s, c) += v;
    }
  }
  for (int64_t e = 0; e < av.rows(); ++e) {
    int32_t s = segments[e];
    for (int64_t c = 0; c < cols; ++c) {
      out.At(e, c) /= seg_sum.At(s, c);
    }
  }
  auto a_impl = a.impl();
  auto seg = std::make_shared<std::vector<int32_t>>(segments);
  return MakeResult(
      std::move(out), {a}, [a_impl, seg, num_segments](VarImpl* self) {
        if (!a_impl->requires_grad) return;
        const Tensor& y = self->value;
        const Tensor& g = self->grad;
        int64_t width = y.cols();
        // dot[s,c] = sum_e in s y*g.
        Tensor dot(num_segments, width);
        for (int64_t e = 0; e < y.rows(); ++e) {
          int32_t s = (*seg)[e];
          for (int64_t c = 0; c < width; ++c) {
            dot.At(s, c) += y.At(e, c) * g.At(e, c);
          }
        }
        Tensor& ga = a_impl->EnsureGrad();
        for (int64_t e = 0; e < y.rows(); ++e) {
          int32_t s = (*seg)[e];
          for (int64_t c = 0; c < width; ++c) {
            ga.At(e, c) += y.At(e, c) * (g.At(e, c) - dot.At(s, c));
          }
        }
      });
}

Var MulColBroadcast(const Var& a, const Var& col) {
  const Tensor& av = a.value();
  const Tensor& cv = col.value();
  XF_CHECK_EQ(av.rows(), cv.rows());
  XF_CHECK_EQ(cv.cols(), 1);
  Tensor out = av;
  for (int64_t r = 0; r < av.rows(); ++r) {
    float w = cv.At(r, 0);
    float* row = out.Row(r);
    for (int64_t c = 0; c < av.cols(); ++c) row[c] *= w;
  }
  auto a_impl = a.impl();
  auto c_impl = col.impl();
  return MakeResult(std::move(out), {a, col}, [a_impl, c_impl](VarImpl* self) {
    const Tensor& g = self->grad;
    if (a_impl->requires_grad) {
      Tensor& ga = a_impl->EnsureGrad();
      for (int64_t r = 0; r < g.rows(); ++r) {
        float w = c_impl->value.At(r, 0);
        const float* grow = g.Row(r);
        float* garow = ga.Row(r);
        for (int64_t c = 0; c < g.cols(); ++c) garow[c] += w * grow[c];
      }
    }
    if (c_impl->requires_grad) {
      Tensor& gc = c_impl->EnsureGrad();
      const Tensor& amat = a_impl->value;
      for (int64_t r = 0; r < g.rows(); ++r) {
        const float* grow = g.Row(r);
        const float* arow = amat.Row(r);
        float acc = 0.0f;
        for (int64_t c = 0; c < g.cols(); ++c) acc += grow[c] * arow[c];
        gc.At(r, 0) += acc;
      }
    }
  });
}

Var AttentionScores(const Var& k, const std::vector<int32_t>& kv_row,
                    const Var& q_nodes, const std::vector<int32_t>& edge_dst,
                    const Var& w_att_src,
                    const std::vector<int32_t>& src_types,
                    const Var& w_att_dst,
                    const std::vector<int32_t>& dst_types, int num_heads,
                    float scale) {
  XF_CHECK_GT(num_heads, 0);
  Tensor out(static_cast<int64_t>(edge_dst.size()), num_heads);
  kernels::AttentionScores(k.value(), kv_row, q_nodes.value(), edge_dst,
                           w_att_src.value(), src_types, w_att_dst.value(),
                           dst_types, scale, &out);
  // Parent order k, q, w_src, w_dst: the order in which the composed chain
  // first reached them, so the tape's backward order is unchanged.
  std::vector<Var> inputs = {k, q_nodes, w_att_src, w_att_dst};
  if (!RecordsTape(inputs)) return MakeResult(std::move(out), {}, nullptr);
  auto k_impl = k.impl();
  auto q_impl = q_nodes.impl();
  auto ws_impl = w_att_src.impl();
  auto wd_impl = w_att_dst.impl();
  auto kv = std::make_shared<std::vector<int32_t>>(kv_row);
  auto dst = std::make_shared<std::vector<int32_t>>(edge_dst);
  auto st = std::make_shared<std::vector<int32_t>>(src_types);
  auto dt = std::make_shared<std::vector<int32_t>>(dst_types);
  return MakeResult(
      std::move(out), std::move(inputs),
      [k_impl, q_impl, ws_impl, wd_impl, kv, dst, st, dt,
       scale](VarImpl* self) {
        auto grad_of = [](VarImpl* v) {
          return v->requires_grad ? &v->EnsureGrad() : nullptr;
        };
        kernels::AttentionScoresBackward(
            self->grad, k_impl->value, *kv, q_impl->value, *dst,
            ws_impl->value, *st, wd_impl->value, *dt, scale,
            grad_of(k_impl.get()), grad_of(q_impl.get()),
            grad_of(ws_impl.get()), grad_of(wd_impl.get()));
      });
}

Var AttentionAggregate(const Var& scores, const Var& values,
                       const std::vector<int32_t>& kv_row,
                       const std::vector<int32_t>& dst, int64_t num_nodes,
                       int64_t head_dim, float dropout_p, bool training,
                       xfraud::Rng* rng,
                       const std::vector<int32_t>* mask_rows,
                       int64_t mask_block_rows, const Var& edge_weight) {
  const Tensor& sv = scores.value();
  const Tensor& vv = values.value();
  XF_CHECK_EQ(static_cast<size_t>(sv.rows()), kv_row.size());
  XF_CHECK_EQ(static_cast<size_t>(sv.rows()), dst.size());
  XF_CHECK_GT(head_dim, 0);
  XF_CHECK_EQ(sv.cols() * head_dim, vv.cols());
  const float* m = nullptr;
  if (edge_weight.defined()) {
    XF_CHECK_EQ(edge_weight.rows(), sv.rows());
    XF_CHECK_EQ(edge_weight.cols(), 1);
    m = edge_weight.value().data();
  }
  auto groups = std::make_shared<kernels::RowGroups>(
      kernels::BuildRowGroups(dst, num_nodes));
  // Pass 1: per-target softmax over [E,H] (kept for the backward).
  auto att = std::make_shared<Tensor>(sv.rows(), sv.cols());
  kernels::SegmentSoftmaxGrouped(sv, *groups, att.get());
  // Inverted-dropout mask on the attention weights, drawn as the unfused
  // Dropout op draws it — the same RNG consumption order and the same mask
  // row per edge — so fused and composed training trajectories are
  // bit-identical.
  auto mask = std::make_shared<Tensor>();
  if (training && dropout_p > 0.0f) {
    *mask = DrawDropoutMask(att->rows(), att->cols(), dropout_p, rng,
                            mask_rows, mask_block_rows);
  }
  // Pass 2: weight the value rows per head (and per edge) and aggregate per
  // target node.
  Tensor out(num_nodes, vv.cols());
  {
    Tensor w;
    kernels::WeightedScatterAddByGroup(vv, kv_row, Masked(*att, *mask, &w), m,
                                       *groups, head_dim, &out);
  }
  // Parent order sets the tape's backward order, so the order in which the
  // layer input's grad takes its V, Q and K terms: with a weight, the
  // composed chain's (values first); without, the one the trained bits
  // were recorded with.
  std::vector<Var> inputs = m != nullptr
                                ? std::vector<Var>{values, scores, edge_weight}
                                : std::vector<Var>{scores, values};
  if (!RecordsTape(inputs)) return MakeResult(std::move(out), {}, nullptr);
  auto s_impl = scores.impl();
  auto v_impl = values.impl();
  auto m_impl = edge_weight.impl();
  auto kv = std::make_shared<std::vector<int32_t>>(kv_row);
  auto dst_copy = std::make_shared<std::vector<int32_t>>(dst);
  return MakeResult(
      std::move(out), std::move(inputs),
      [s_impl, v_impl, m_impl, groups, att, mask, kv, dst_copy,
       head_dim](VarImpl* self) {
        const Tensor& gout = self->grad;
        // Recompute w = att ⊙ mask (cheaper than keeping both alive).
        Tensor w;
        const Tensor& w_back = Masked(*att, *mask, &w);
        // dV and datt read each edge's upstream grad: gout[dst[e]], or with
        // a weight gout[dst[e]]·m[e], formed first and read in edge order.
        const Tensor* g = &gout;
        const std::vector<int32_t>* g_row = dst_copy.get();
        Tensor gm;
        std::vector<int32_t> edge_ids;
        if (m_impl != nullptr) {
          const int64_t edges = w_back.rows();
          gm = Tensor(edges, gout.cols());
          kernels::GatherRows(gout, *dst_copy, &gm);
          for (int64_t e = 0; e < edges; ++e) {
            const float me = m_impl->value.At(e, 0);
            float* gmrow = gm.Row(e);
            for (int64_t c = 0; c < gm.cols(); ++c) gmrow[c] *= me;
          }
          edge_ids.resize(static_cast<size_t>(edges));
          std::iota(edge_ids.begin(), edge_ids.end(), 0);
          g = &gm;
          g_row = &edge_ids;
          if (m_impl->requires_grad) {
            // dm[e]: the upstream grad dotted with the unweighted message
            // (w·v)[e], one sum over all columns — PerHeadDots as one head.
            Tensor msg(edges, gout.cols());
            for (int64_t e = 0; e < edges; ++e) {
              const float* vrow = v_impl->value.Row((*kv)[e]);
              for (int64_t c = 0; c < msg.cols(); ++c) {
                msg.At(e, c) = vrow[c] * w_back.At(e, c / head_dim);
              }
            }
            Tensor dm(edges, 1);
            kernels::PerHeadDots(gout, *dst_copy, msg, edge_ids, msg.cols(),
                                 &dm);
            m_impl->EnsureGrad().AddInPlace(dm);
          }
        }
        if (v_impl->requires_grad) {
          kernels::WeightedGatherAdd(*g, *g_row, *kv, w_back, head_dim,
                                     &v_impl->EnsureGrad());
        }
        if (s_impl->requires_grad) {
          Tensor datt(att->rows(), att->cols());
          kernels::PerHeadDots(*g, *g_row, v_impl->value, *kv, head_dim,
                               &datt);
          ApplyMask(*mask, &datt);
          kernels::SegmentSoftmaxBackwardGrouped(*att, datt, *groups,
                                                 &s_impl->EnsureGrad());
        }
      });
}

Var Sum(const Var& a) {
  Tensor out(1, 1, static_cast<float>(a.value().Sum()));
  auto a_impl = a.impl();
  return MakeResult(std::move(out), {a}, [a_impl](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    float gy = self->grad.At(0, 0);
    Tensor& ga = a_impl->EnsureGrad();
    float* g = ga.data();
    for (int64_t i = 0; i < ga.size(); ++i) g[i] += gy;
  });
}

Var RowSum(const Var& a) {
  const Tensor& av = a.value();
  Tensor out(av.rows(), 1);
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float* row = av.Row(r);
    float acc = 0.0f;
    for (int64_t c = 0; c < av.cols(); ++c) acc += row[c];
    out.At(r, 0) = acc;
  }
  auto a_impl = a.impl();
  return MakeResult(std::move(out), {a}, [a_impl](VarImpl* self) {
    if (!a_impl->requires_grad) return;
    Tensor& ga = a_impl->EnsureGrad();
    const Tensor& g = self->grad;
    for (int64_t r = 0; r < ga.rows(); ++r) {
      float gr = g.At(r, 0);
      float* garow = ga.Row(r);
      for (int64_t c = 0; c < ga.cols(); ++c) garow[c] += gr;
    }
  });
}

Var Mean(const Var& a) {
  int64_t n = a.value().size();
  XF_CHECK_GT(n, 0);
  return Scale(Sum(a), 1.0f / static_cast<float>(n));
}

Var LayerNorm(const Var& a, const Var& gamma, const Var& beta, float eps) {
  const Tensor& av = a.value();
  int64_t d = av.cols();
  XF_CHECK_EQ(gamma.value().rows(), 1);
  XF_CHECK_EQ(gamma.value().cols(), d);
  XF_CHECK_EQ(beta.value().rows(), 1);
  XF_CHECK_EQ(beta.value().cols(), d);

  auto xhat = std::make_shared<Tensor>(av.rows(), d);
  auto inv_std = std::make_shared<std::vector<float>>(av.rows());
  Tensor out(av.rows(), d);
  const float* gm = gamma.value().Row(0);
  const float* bt = beta.value().Row(0);
  for (int64_t r = 0; r < av.rows(); ++r) {
    const float* x = av.Row(r);
    double mean = 0.0;
    for (int64_t c = 0; c < d; ++c) mean += x[c];
    mean /= d;
    double var = 0.0;
    for (int64_t c = 0; c < d; ++c) {
      double dv = x[c] - mean;
      var += dv * dv;
    }
    var /= d;
    float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    (*inv_std)[r] = istd;
    float* xh = xhat->Row(r);
    float* y = out.Row(r);
    for (int64_t c = 0; c < d; ++c) {
      xh[c] = (x[c] - static_cast<float>(mean)) * istd;
      y[c] = xh[c] * gm[c] + bt[c];
    }
  }
  auto a_impl = a.impl();
  auto g_impl = gamma.impl();
  auto b_impl = beta.impl();
  return MakeResult(
      std::move(out), {a, gamma, beta},
      [a_impl, g_impl, b_impl, xhat, inv_std](VarImpl* self) {
        const Tensor& g = self->grad;
        int64_t dim = g.cols();
        const float* gmr = g_impl->value.Row(0);
        if (g_impl->requires_grad) {
          Tensor& gg = g_impl->EnsureGrad();
          float* ggr = gg.Row(0);
          for (int64_t r = 0; r < g.rows(); ++r) {
            const float* grow = g.Row(r);
            const float* xh = xhat->Row(r);
            for (int64_t c = 0; c < dim; ++c) ggr[c] += grow[c] * xh[c];
          }
        }
        if (b_impl->requires_grad) {
          Tensor& gb = b_impl->EnsureGrad();
          float* gbr = gb.Row(0);
          for (int64_t r = 0; r < g.rows(); ++r) {
            const float* grow = g.Row(r);
            for (int64_t c = 0; c < dim; ++c) gbr[c] += grow[c];
          }
        }
        if (a_impl->requires_grad) {
          Tensor& ga = a_impl->EnsureGrad();
          for (int64_t r = 0; r < g.rows(); ++r) {
            const float* grow = g.Row(r);
            const float* xh = xhat->Row(r);
            float istd = (*inv_std)[r];
            // dxhat = dy * gamma; dx via the standard layer-norm backward.
            double sum_dxhat = 0.0;
            double sum_dxhat_xhat = 0.0;
            for (int64_t c = 0; c < dim; ++c) {
              float dxh = grow[c] * gmr[c];
              sum_dxhat += dxh;
              sum_dxhat_xhat += dxh * xh[c];
            }
            float* garow = ga.Row(r);
            float inv_d = 1.0f / static_cast<float>(dim);
            for (int64_t c = 0; c < dim; ++c) {
              float dxh = grow[c] * gmr[c];
              garow[c] += istd * (dxh -
                                  static_cast<float>(sum_dxhat) * inv_d -
                                  xh[c] *
                                      static_cast<float>(sum_dxhat_xhat) *
                                      inv_d);
            }
          }
        }
      });
}

}  // namespace xfraud::nn
