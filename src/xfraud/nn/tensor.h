#ifndef XFRAUD_NN_TENSOR_H_
#define XFRAUD_NN_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xfraud/common/check.h"
#include "xfraud/common/rng.h"

namespace xfraud::nn {

/// Dense row-major 2-D float tensor — the value type of the autograd engine.
///
/// Everything a GNN needs here is naturally a matrix: node feature blocks
/// [N, D], per-edge message blocks [E, D], attention score blocks [E, H],
/// scalars as [1, 1]. Restricting to two dimensions keeps the engine small
/// and auditable while covering the full xFraud model (paper eqs. 2-11).
///
/// Storage is one owned block of at least rows*cols floats. Blocks of 4 KB
/// and up come from, and go back to, a bounded cache of the thread that
/// frees them, so a training step reuses the previous step's tape blocks
/// instead of faulting fresh pages in (DESIGN.md §13.4).
class Tensor {
 public:
  Tensor() = default;

  /// Creates a rows x cols tensor filled with `fill`. Negative dimensions,
  /// and shapes whose byte size does not fit in int64_t, throw CheckError
  /// before anything is allocated.
  Tensor(int64_t rows, int64_t cols, float fill = 0.0f);

  /// Creates a tensor holding a copy of `data` (size must be rows*cols).
  Tensor(int64_t rows, int64_t cols, const std::vector<float>& data);

  Tensor(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other);
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() {
    if (data_ != nullptr) Release();
  }

  /// All-zeros tensor with the same shape as `like`.
  static Tensor ZerosLike(const Tensor& like);

  /// A rows x cols tensor whose entries are unspecified: for a kernel
  /// output that writes every entry before anything reads it (a GEMM's C),
  /// which then skips the zero fill. Debug and ASan builds fill it with NaN.
  static Tensor Uninitialized(int64_t rows, int64_t cols);

  /// Entries drawn i.i.d. from U(-bound, bound).
  static Tensor Uniform(int64_t rows, int64_t cols, float bound,
                        xfraud::Rng* rng);

  /// Entries drawn i.i.d. from N(0, stddev^2).
  static Tensor Gaussian(int64_t rows, int64_t cols, float stddev,
                         xfraud::Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float& At(int64_t r, int64_t c) {
    XF_DCHECK_BOUNDS(r, rows_);
    XF_DCHECK_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }
  float At(int64_t r, int64_t c) const {
    XF_DCHECK_BOUNDS(r, rows_);
    XF_DCHECK_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }

  float* Row(int64_t r) {
    XF_DCHECK_BOUNDS(r, rows_);
    return data_.get() + r * cols_;
  }
  const float* Row(int64_t r) const {
    XF_DCHECK_BOUNDS(r, rows_);
    return data_.get() + r * cols_;
  }

  /// The size() entries, row-major; null when the tensor is empty.
  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  /// Sets every entry to `value`.
  void Fill(float value);

  /// Accumulates `other` into this tensor; shapes must match.
  void AddInPlace(const Tensor& other);

  /// Multiplies every entry by `s`.
  void ScaleInPlace(float s);

  /// Sum of all entries.
  double Sum() const;

  /// L2 norm of all entries.
  double Norm() const;

  /// True when the shapes match (says nothing about the entries; use
  /// BitwiseEqual to compare contents).
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// True when shapes match and every entry is bit-for-bit identical.
  /// Stricter than operator== on floats: NaNs with equal payloads compare
  /// equal, +0 and -0 compare different — exactly what the kernel
  /// conformance and determinism tests need.
  bool BitwiseEqual(const Tensor& other) const;

  /// Compact debug string, e.g. "Tensor[3x4]".
  std::string ShapeString() const;

 private:
  /// Returns the block to this thread's cache (or the heap); leaves the
  /// tensor without storage.
  void Release();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::unique_ptr<float[]> data_;
  uint64_t capacity_ = 0;  // floats in data_'s block, >= size()
};

/// The calling thread's tensor block cache. Counters are cumulative since
/// the thread started; cached_bytes is what the cache holds right now.
struct TensorCacheCounters {
  int64_t hits = 0;       // requests served from the cache
  int64_t misses = 0;     // cacheable requests that went to the heap
  int64_t evictions = 0;  // cached or freed blocks handed back to the heap
  int64_t cached_bytes = 0;
};
TensorCacheCounters TensorCacheStats();

/// The most bytes one thread's cache holds; a block freed beyond it goes
/// back to the heap.
inline constexpr int64_t kTensorCacheMaxBytes = int64_t{64} << 20;

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_TENSOR_H_
