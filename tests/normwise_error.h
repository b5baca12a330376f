#ifndef XFRAUD_TESTS_NORMWISE_ERROR_H_
#define XFRAUD_TESTS_NORMWISE_ERROR_H_

#include <cmath>

#include <gtest/gtest.h>

#include "xfraud/nn/tensor.h"

namespace xfraud {

/// ‖a − b‖₂ / ‖b‖₂, or 0 when both are zero; infinite when only b is. The
/// per-tensor measure DESIGN §13.5 bounds by 1e-5 when a change moves
/// gradient bits.
inline double NormwiseRelativeError(const nn::Tensor& a, const nn::Tensor& b) {
  EXPECT_TRUE(a.SameShape(b));
  double diff = 0.0;
  double ref = 0.0;
  for (int64_t i = 0; i < b.size(); ++i) {
    double d = static_cast<double>(a.data()[i]) - b.data()[i];
    diff += d * d;
    ref += static_cast<double>(b.data()[i]) * b.data()[i];
  }
  if (ref == 0.0) return diff == 0.0 ? 0.0 : HUGE_VAL;
  return std::sqrt(diff / ref);
}

}  // namespace xfraud

#endif  // XFRAUD_TESTS_NORMWISE_ERROR_H_
