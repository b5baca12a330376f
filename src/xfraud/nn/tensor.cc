#include "xfraud/nn/tensor.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "xfraud/common/logging.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace xfraud::nn {

namespace {

using Block = std::unique_ptr<float[]>;

// Size classes: 4 per octave from 4 KB up, so a block is at most 25% larger
// than the request it was made for. Smaller blocks go straight to the heap,
// and no class above kTensorCacheMaxBytes is ever cached.
constexpr uint64_t kMinCachedBytes = 4096;
constexpr uint64_t kMaxCachedBytes = kTensorCacheMaxBytes;
constexpr int kMinOctave = 12;  // log2(kMinCachedBytes)
constexpr int kClassesPerOctave = 4;
constexpr int kNumClasses =
    (std::bit_width(kMaxCachedBytes) - 1 - kMinOctave) * kClassesPerOctave +
    1;

/// The most floats a tensor may hold: its byte size, and the size class
/// that rounds it up, both fit in 64 bits.
constexpr int64_t kMaxElements =
    std::numeric_limits<int64_t>::max() / static_cast<int64_t>(sizeof(float));

/// Index of the smallest class of at least `bytes` (>= kMinCachedBytes).
int ClassIndex(uint64_t bytes) {
  const int octave = std::bit_width(bytes) - 1;
  const uint64_t base = uint64_t{1} << octave;
  const uint64_t step = base / kClassesPerOctave;
  const uint64_t steps = (bytes - base + step - 1) / step;  // 0..4
  return (octave - kMinOctave) * kClassesPerOctave + static_cast<int>(steps);
}

uint64_t ClassBytes(int index) {
  const int octave = kMinOctave + index / kClassesPerOctave;
  return (uint64_t{1} << octave) / kClassesPerOctave *
         (kClassesPerOctave + index % kClassesPerOctave);
}

// Under ASan a cached block is poisoned, so a read through a dead tensor's
// pointer still reports, as it would after a real free.
void Poison([[maybe_unused]] const Block& block,
            [[maybe_unused]] uint64_t bytes) {
#ifdef __SANITIZE_ADDRESS__
  ASAN_POISON_MEMORY_REGION(block.get(), bytes);
#endif
}

void Unpoison([[maybe_unused]] const Block& block,
              [[maybe_unused]] uint64_t bytes) {
#ifdef __SANITIZE_ADDRESS__
  ASAN_UNPOISON_MEMORY_REGION(block.get(), bytes);
#endif
}

// Set once this thread's cache is destroyed (thread exit, or static
// destruction on the main thread). Trivially destructible, so it can still
// be read by tensors that die later.
thread_local bool t_cache_gone = false;

/// One thread's free blocks, by size class. Live + cached bytes never grow
/// on a miss while the cache holds anything, and cached bytes never exceed
/// kTensorCacheMaxBytes.
class BlockCache {
 public:
  BlockCache() = default;
  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  ~BlockCache() {
    t_cache_gone = true;
    for (int i = 0; i < kNumClasses; ++i) {
      for (const Block& block : free_[i]) Unpoison(block, ClassBytes(i));
    }
  }

  /// A block of at least `floats` floats; its capacity goes to *capacity.
  Block Acquire(uint64_t floats, uint64_t* capacity) {
    const int index = ClassIndex(floats * sizeof(float));
    // The smallest cached block whose class is within [c, 2c].
    for (int i = index; i <= index + kClassesPerOctave && i < kNumClasses;
         ++i) {
      if (free_[i].empty()) continue;
      Block block = std::move(free_[i].back());
      free_[i].pop_back();
      const uint64_t bytes = ClassBytes(i);
      cached_bytes_ -= bytes;
      ++counters_.hits;
      Unpoison(block, bytes);
      *capacity = bytes / sizeof(float);
      return block;
    }
    ++counters_.misses;
    const uint64_t bytes = ClassBytes(index);
    EvictLargest(bytes);
    *capacity = bytes / sizeof(float);
    return std::make_unique_for_overwrite<float[]>(*capacity);
  }

  void Release(Block block, uint64_t capacity) {
    const uint64_t bytes = capacity * sizeof(float);
    if (bytes > kMaxCachedBytes - cached_bytes_) {
      ++counters_.evictions;
      return;  // `block` goes back to the heap
    }
    Poison(block, bytes);
    free_[ClassIndex(bytes)].push_back(std::move(block));
    cached_bytes_ += bytes;
  }

  TensorCacheCounters stats() const {
    TensorCacheCounters out = counters_;
    out.cached_bytes = static_cast<int64_t>(cached_bytes_);
    return out;
  }

 private:
  /// Hands cached blocks back to the heap, largest first, until at least
  /// `target` bytes are gone or the cache is empty.
  void EvictLargest(uint64_t target) {
    uint64_t freed = 0;
    for (int i = kNumClasses - 1; i >= 0 && freed < target; --i) {
      std::vector<Block>& list = free_[i];
      while (!list.empty() && freed < target) {
        const uint64_t bytes = ClassBytes(i);
        Unpoison(list.back(), bytes);
        list.pop_back();
        cached_bytes_ -= bytes;
        freed += bytes;
        ++counters_.evictions;
      }
    }
  }

  std::array<std::vector<Block>, kNumClasses> free_;
  uint64_t cached_bytes_ = 0;
  TensorCacheCounters counters_;
};

/// This thread's cache, or null once it has been destroyed.
BlockCache* ThreadCache() {
  if (t_cache_gone) return nullptr;
  thread_local BlockCache cache;
  return &cache;
}

Block AcquireBlock(uint64_t floats, uint64_t* capacity) {
  if (floats * sizeof(float) >= kMinCachedBytes) {
    if (BlockCache* cache = ThreadCache()) {
      return cache->Acquire(floats, capacity);
    }
  }
  *capacity = floats;
  return std::make_unique_for_overwrite<float[]>(floats);
}

/// Validates a shape before anything is allocated; returns rows*cols.
int64_t CheckedSize(int64_t rows, int64_t cols) {
  XF_CHECK(rows >= 0 && cols >= 0)
      << "negative tensor shape " << rows << "x" << cols;
  XF_CHECK(cols == 0 || rows <= kMaxElements / cols)
      << "tensor shape " << rows << "x" << cols << " overflows";
  return rows * cols;
}

}  // namespace

TensorCacheCounters TensorCacheStats() {
  const BlockCache* cache = ThreadCache();
  return cache != nullptr ? cache->stats() : TensorCacheCounters{};
}

Tensor::Tensor(int64_t rows, int64_t cols, float fill) {
  const int64_t n = CheckedSize(rows, cols);
  if (n > 0) {
    data_ = AcquireBlock(static_cast<uint64_t>(n), &capacity_);
    if (std::bit_cast<uint32_t>(fill) == 0) {
      std::memset(data_.get(), 0, static_cast<size_t>(n) * sizeof(float));
    } else {
      std::fill_n(data_.get(), n, fill);
    }
  }
  rows_ = rows;
  cols_ = cols;
}

Tensor Tensor::Uninitialized(int64_t rows, int64_t cols) {
#if defined(__SANITIZE_ADDRESS__) || !defined(NDEBUG)
  // Debug and ASan builds fill the block with NaN, so an entry read before
  // it is written shows up in every bitwise test.
  return Tensor(rows, cols, std::numeric_limits<float>::quiet_NaN());
#else
  const int64_t n = CheckedSize(rows, cols);
  Tensor t;
  if (n > 0) t.data_ = AcquireBlock(static_cast<uint64_t>(n), &t.capacity_);
  t.rows_ = rows;
  t.cols_ = cols;
  return t;
#endif
}

Tensor::Tensor(int64_t rows, int64_t cols, const std::vector<float>& data)
    : Tensor(rows, cols) {
  XF_CHECK_EQ(static_cast<size_t>(size()), data.size());
  if (!data.empty()) {
    std::memcpy(data_.get(), data.data(), data.size() * sizeof(float));
  }
}

Tensor::Tensor(const Tensor& other) { *this = other; }

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      data_(std::move(other.data_)),
      capacity_(std::exchange(other.capacity_, 0)) {}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  // Release first, so an equal-class copy can take back the same block.
  if (data_ != nullptr) Release();
  rows_ = 0;
  cols_ = 0;
  const int64_t n = other.size();
  if (n > 0) {
    data_ = AcquireBlock(static_cast<uint64_t>(n), &capacity_);
    std::memcpy(data_.get(), other.data_.get(),
                static_cast<size_t>(n) * sizeof(float));
  }
  rows_ = other.rows_;
  cols_ = other.cols_;
  return *this;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  if (data_ != nullptr) Release();
  rows_ = std::exchange(other.rows_, 0);
  cols_ = std::exchange(other.cols_, 0);
  data_ = std::move(other.data_);
  capacity_ = std::exchange(other.capacity_, 0);
  return *this;
}

void Tensor::Release() {
  if (capacity_ * sizeof(float) >= kMinCachedBytes) {
    if (BlockCache* cache = ThreadCache()) {
      cache->Release(std::move(data_), capacity_);
    }
  }
  data_.reset();
  capacity_ = 0;
}

Tensor Tensor::ZerosLike(const Tensor& like) {
  return Tensor(like.rows(), like.cols(), 0.0f);
}

Tensor Tensor::Uniform(int64_t rows, int64_t cols, float bound,
                       xfraud::Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data_[i] = static_cast<float>(rng->NextUniform(-bound, bound));
  }
  return t;
}

Tensor Tensor::Gaussian(int64_t rows, int64_t cols, float stddev,
                        xfraud::Rng* rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data_[i] = static_cast<float>(rng->NextGaussian() * stddev);
  }
  return t;
}

void Tensor::Fill(float value) { std::fill_n(data_.get(), size(), value); }

void Tensor::AddInPlace(const Tensor& other) {
  XF_CHECK_SHAPE(*this, other);
  float* a = data_.get();
  const float* b = other.data_.get();
  for (int64_t i = 0; i < size(); ++i) a[i] += b[i];
}

void Tensor::ScaleInPlace(float s) {
  float* a = data_.get();
  for (int64_t i = 0; i < size(); ++i) a[i] *= s;
}

double Tensor::Sum() const {
  double acc = 0.0;
  const float* a = data_.get();
  for (int64_t i = 0; i < size(); ++i) acc += a[i];
  return acc;
}

double Tensor::Norm() const {
  double acc = 0.0;
  const float* a = data_.get();
  for (int64_t i = 0; i < size(); ++i) {
    acc += static_cast<double>(a[i]) * a[i];
  }
  return std::sqrt(acc);
}

bool Tensor::BitwiseEqual(const Tensor& other) const {
  if (!SameShape(other)) return false;
  if (empty()) return true;
  return std::memcmp(data_.get(), other.data_.get(),
                     static_cast<size_t>(size()) * sizeof(float)) == 0;
}

std::string Tensor::ShapeString() const {
  return "Tensor[" + std::to_string(rows_) + "x" + std::to_string(cols_) + "]";
}

}  // namespace xfraud::nn
