#include "xfraud/core/gnn_model.h"

namespace xfraud::core {

nn::Var ApplyTypedLinear(const std::vector<nn::Linear>& linears,
                         const nn::Var& x, const std::vector<int32_t>& types,
                         const std::vector<int32_t>* rows) {
  std::vector<nn::Var> weights;
  std::vector<nn::Var> biases;
  weights.reserve(linears.size());
  biases.reserve(linears.size());
  for (const nn::Linear& linear : linears) {
    weights.push_back(linear.weight());
    biases.push_back(linear.bias());
  }
  return nn::TypedLinear(x, types, weights, biases, rows);
}

std::vector<double> FraudProbabilities(const nn::Var& logits) {
  nn::Var probs = nn::RowSoftmax(logits);
  std::vector<double> out(probs.rows());
  for (int64_t r = 0; r < probs.rows(); ++r) {
    out[r] = probs.value().At(r, 1);
  }
  return out;
}

}  // namespace xfraud::core
