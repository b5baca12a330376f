#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/common/mpmc_queue.h"
#include "xfraud/nn/tensor.h"
#include "xfraud/nn/variable.h"

namespace xfraud::nn {
namespace {

TEST(TensorTest, ConstructionAndFill) {
  Tensor t(2, 3, 1.5f);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t.At(1, 2), 1.5f);
  t.Fill(-2.0f);
  EXPECT_EQ(t.At(0, 0), -2.0f);
}

TEST(TensorTest, FromDataVector) {
  Tensor t(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
}

TEST(TensorTest, NegativeShapeThrowsBeforeAllocating) {
  EXPECT_THROW(Tensor(-1, 3), CheckError);
  EXPECT_THROW(Tensor(3, -1), CheckError);
  EXPECT_THROW(Tensor(-1, 0), CheckError);
}

TEST(TensorTest, OverflowingShapeThrowsBeforeAllocating) {
  constexpr int64_t kBig = int64_t{1} << 40;
  EXPECT_THROW(Tensor(kBig, kBig), CheckError);
  EXPECT_THROW(Tensor(std::numeric_limits<int64_t>::max(), 2), CheckError);
  // rows*cols fits in int64_t, but not its byte size.
  EXPECT_THROW(Tensor(std::numeric_limits<int64_t>::max() / 2, 1),
               CheckError);
  Tensor empty(kBig, 0);
  EXPECT_EQ(empty.size(), 0);
  EXPECT_EQ(empty.data(), nullptr);
}

TEST(TensorTest, CopyIsDeepAndMoveEmptiesTheSource) {
  Tensor a(2, 3, 1.5f);
  Tensor b = a;
  b.At(0, 0) = 9.0f;
  EXPECT_EQ(a.At(0, 0), 1.5f);
  EXPECT_TRUE(b.SameShape(a));
  Tensor c = std::move(b);
  EXPECT_EQ(c.At(0, 0), 9.0f);
  EXPECT_EQ(b.size(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), nullptr);
  a = c;
  EXPECT_TRUE(a.BitwiseEqual(c));
  c = Tensor(1, 1, 2.0f);
  EXPECT_EQ(c.At(0, 0), 2.0f);
}

TEST(TensorTest, RowPointersAreRowMajor) {
  Tensor t(3, 4);
  t.At(2, 1) = 7.0f;
  EXPECT_EQ(t.Row(2)[1], 7.0f);
  EXPECT_EQ(t.data()[2 * 4 + 1], 7.0f);
}

TEST(TensorTest, ZerosLikeMatchesShape) {
  Tensor t(5, 2, 3.0f);
  Tensor z = Tensor::ZerosLike(t);
  EXPECT_TRUE(z.SameShape(t));
  EXPECT_EQ(z.Sum(), 0.0);
}

TEST(TensorTest, AddAndScaleInPlace) {
  Tensor a(2, 2, 1.0f);
  Tensor b(2, 2, 2.0f);
  a.AddInPlace(b);
  EXPECT_EQ(a.At(0, 0), 3.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_EQ(a.At(1, 1), 1.5f);
}

TEST(TensorTest, SumAndNorm) {
  Tensor t(1, 2, {3.0f, 4.0f});
  EXPECT_DOUBLE_EQ(t.Sum(), 7.0);
  EXPECT_DOUBLE_EQ(t.Norm(), 5.0);
}

TEST(TensorTest, UniformRespectsBound) {
  Rng rng(1);
  Tensor t = Tensor::Uniform(50, 50, 0.25f, &rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t.data()[i], -0.25f);
    EXPECT_LE(t.data()[i], 0.25f);
  }
}

TEST(TensorTest, GaussianHasRequestedSpread) {
  Rng rng(2);
  Tensor t = Tensor::Gaussian(100, 100, 2.0f, &rng);
  double mean = t.Sum() / t.size();
  double var = 0.0;
  for (int64_t i = 0; i < t.size(); ++i) {
    var += (t.data()[i] - mean) * (t.data()[i] - mean);
  }
  var /= t.size();
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor(3, 4).ShapeString(), "Tensor[3x4]");
}

// Runs `body` on a new thread, so it sees an empty tensor cache.
void OnFreshThread(const std::function<void()>& body) {
  std::thread(body).join();
}

constexpr int64_t kKiB = 1024;
// Row width of the cache tests' tensors: Tensor(n, kPerKiB) is n KiB.
constexpr int64_t kPerKiB = kKiB / sizeof(float);

TEST(TensorCacheTest, FreedBlockIsReusedForItsClass) {
  OnFreshThread([] {
    const float* first = nullptr;
    {
      Tensor t(256, kPerKiB);  // exactly a class size
      first = t.data();
      EXPECT_EQ(TensorCacheStats().misses, 1);
    }
    EXPECT_EQ(TensorCacheStats().cached_bytes, 256 * kKiB);
    // 250 KiB rounds up to the 256 KiB class: the same block comes back.
    Tensor again(250, kPerKiB);
    EXPECT_EQ(again.data(), first);
    EXPECT_EQ(again.At(249, kPerKiB - 1), 0.0f);
    TensorCacheCounters stats = TensorCacheStats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.cached_bytes, 0);
    // Below 4 KB nothing is cached.
    { Tensor small(1, 1023); }
    EXPECT_EQ(TensorCacheStats().cached_bytes, 0);
    EXPECT_EQ(TensorCacheStats().misses, 1);
  });
}

TEST(TensorCacheTest, MissKeepsLivePlusCachedBytesBounded) {
  OnFreshThread([] {
    {
      Tensor a(256, kPerKiB), b(256, kPerKiB), c(256, kPerKiB),
          d(256, kPerKiB);
    }
    ASSERT_EQ(TensorCacheStats().cached_bytes, 1024 * kKiB);
    // 768 KiB: no cached class lies in [768, 1536] KiB, so this misses and
    // first hands back the largest cached blocks, at least 768 KiB of them.
    Tensor big(768, kPerKiB);
    TensorCacheCounters stats = TensorCacheStats();
    EXPECT_EQ(stats.misses, 5);
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(stats.evictions, 3);
    EXPECT_EQ(stats.cached_bytes, 256 * kKiB);
    EXPECT_LE(big.size() * static_cast<int64_t>(sizeof(float)) +
                  stats.cached_bytes,
              1024 * kKiB);
    // A cached class within [c, 2c] is a hit: 200 KiB (class 224 KiB)
    // takes the 256 KiB block.
    Tensor within(200, kPerKiB);
    EXPECT_EQ(TensorCacheStats().hits, 1);
    EXPECT_EQ(TensorCacheStats().cached_bytes, 0);
  });
}

TEST(TensorCacheTest, CrossThreadFreesStayUnderTheCap) {
  // A producer allocates, a consumer frees: the consumer's cache takes
  // blocks it never hands out, and must stop at the cap.
  constexpr int64_t kBlockBytes = 1024 * kKiB;
  const int num_blocks =
      static_cast<int>(2 * kTensorCacheMaxBytes / kBlockBytes);
  BoundedQueue<Tensor> queue(4);
  std::thread producer([&] {
    for (int i = 0; i < num_blocks; ++i) {
      Tensor t(kBlockBytes / kKiB, kPerKiB, static_cast<float>(i));
      if (!queue.Push(std::move(t))) return;
    }
    queue.Close();
  });
  TensorCacheCounters consumer;
  std::thread([&] {
    int received = 0;
    while (std::optional<Tensor> t = queue.Pop()) {
      EXPECT_EQ(t->At(0, 0), static_cast<float>(received));
      ++received;
    }
    EXPECT_EQ(received, num_blocks);
    consumer = TensorCacheStats();
  }).join();
  producer.join();
  EXPECT_EQ(consumer.cached_bytes, kTensorCacheMaxBytes);
  EXPECT_EQ(consumer.evictions,
            num_blocks - kTensorCacheMaxBytes / kBlockBytes);
  EXPECT_EQ(consumer.hits + consumer.misses, 0);
}

TEST(TensorCacheTest, ThreadLocalTensorOutlivingTheCacheFreesCleanly) {
  OnFreshThread([] {
    // Constructed before the cache, so destroyed after it at thread exit:
    // its block must go straight back to the heap.
    thread_local Tensor late;
    { Tensor warm(32, kPerKiB); }  // creates this thread's cache
    EXPECT_EQ(TensorCacheStats().cached_bytes, 32 * kKiB);
    late = Tensor(64, kPerKiB, 3.0f);
    EXPECT_EQ(late.At(63, 0), 3.0f);
  });
}

#ifdef __SANITIZE_ADDRESS__
TEST(TensorCacheDeathTest, ReadThroughAFreedTensorReports) {
  const std::string style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const float* stale = nullptr;
        {
          Tensor t(128, kPerKiB, 1.0f);  // cached, not freed
          stale = t.data();
        }
        volatile float v = stale[0];
        (void)v;
      },
      "use-after-poison");
  ::testing::FLAGS_gtest_death_test_style = style;
}
#endif

TEST(VariableTest, CopySharesStorage) {
  Var a(Tensor(1, 1, 5.0f), true);
  Var b = a;  // aliases the same node
  b.mutable_value().At(0, 0) = 9.0f;
  EXPECT_EQ(a.value().At(0, 0), 9.0f);
}

TEST(VariableTest, ItemRequiresScalarShape) {
  Var s(Tensor(1, 1, 3.5f), false);
  EXPECT_FLOAT_EQ(s.item(), 3.5f);
}

TEST(VariableTest, ZeroGradResetsAccumulation) {
  Var x(Tensor(1, 1, 2.0f), true);
  // grad buffer allocated on demand.
  x.grad().Fill(7.0f);
  x.ZeroGrad();
  EXPECT_EQ(x.grad().At(0, 0), 0.0f);
}

TEST(VariableTest, DefaultConstructedIsUndefined) {
  Var v;
  EXPECT_FALSE(v.defined());
}

}  // namespace
}  // namespace xfraud::nn
