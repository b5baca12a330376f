#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/breaker.h"
#include "xfraud/common/bytes.h"
#include "xfraud/common/clock.h"
#include "xfraud/common/frame.h"
#include "xfraud/common/mpmc_queue.h"
#include "xfraud/common/parse_number.h"
#include "xfraud/common/retry.h"
#include "xfraud/common/rng.h"
#include "xfraud/common/status.h"
#include "xfraud/common/table_printer.h"
#include "xfraud/common/timer.h"

namespace xfraud {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(Status::InvalidArgument("bad"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextInt(-2, 3));
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.25);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, SplitIsIndependent) {
  Rng parent(29);
  Rng child = parent.Split();
  // Child stream differs from the continued parent stream.
  EXPECT_NE(parent.NextUint64(), child.NextUint64());
}

TEST(RngTest, StreamSeedIsAStatelessPureFunction) {
  // Same (root, stream) -> same seed, no matter what was derived before.
  EXPECT_EQ(Rng::StreamSeed(5, 3), Rng::StreamSeed(5, 3));
  // Distinct streams and distinct roots land elsewhere.
  EXPECT_NE(Rng::StreamSeed(5, 3), Rng::StreamSeed(5, 4));
  EXPECT_NE(Rng::StreamSeed(5, 3), Rng::StreamSeed(6, 3));
  // Adjacent streams yield unrelated generators, not shifted copies.
  Rng a(Rng::StreamSeed(5, 0));
  Rng b(Rng::StreamSeed(5, 1));
  a.NextUint64();  // advance a by one: streams must still not collide
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 2);
}

TEST(BoundedQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.Push(i));
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, TryVariantsRespectBounds) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full
  EXPECT_EQ(*q.TryPop(), 1);
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_EQ(*q.TryPop(), 2);
  EXPECT_EQ(*q.TryPop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());  // empty
}

TEST(BoundedQueueTest, PopDrainsBufferedItemsAfterClose) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.Push(1));
  EXPECT_TRUE(q.Push(2));
  q.Close();
  EXPECT_FALSE(q.Push(3));  // closed: new items rejected
  EXPECT_EQ(*q.Pop(), 1);   // ...but buffered ones still drain
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // end of stream
}

TEST(BoundedQueueTest, CloseReleasesBlockedConsumers) {
  BoundedQueue<int> q(2);
  std::atomic<int> finished{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) {
      }
      finished.fetch_add(1);
    });
  }
  q.Close();  // all three are (or will be) blocked on an empty queue
  for (auto& t : consumers) t.join();
  EXPECT_EQ(finished.load(), 3);
}

TEST(BoundedQueueTest, CloseReleasesBlockedProducers) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.Push(0));  // fill to capacity
  std::atomic<bool> rejected{false};
  std::thread producer([&] { rejected.store(!q.Push(1)); });
  // The producer is blocked on the full queue; Close must wake it and make
  // the pending Push fail rather than deadlock.
  q.Close();
  producer.join();
  EXPECT_TRUE(rejected.load());
  EXPECT_EQ(*q.Pop(), 0);
}

TEST(BoundedQueueTest, MpmcStressDeliversEveryItemOnce) {
  // 4 producers x 500 tagged items through a tight queue into 3 consumers;
  // every item must arrive exactly once. Run under -fsanitize=thread to
  // check the synchronization (see README "Sanitizers").
  const int kProducers = 4;
  const int kConsumers = 3;
  const int kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> threads;
  std::atomic<int> producers_left{kProducers};
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.Push(p * kPerProducer + i));
      }
      if (producers_left.fetch_sub(1) == 1) q.Close();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.Pop()) seen[*item].fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  for (auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(BoundedQueueTest, WorkerProducersFeedOneConsumer) {
  // The BatchLoader topology in miniature: worker threads claim items and
  // produce through the bounded queue under backpressure while a consumer
  // drains in order of arrival.
  const int kItems = 256;
  BoundedQueue<int> q(4);
  std::vector<std::thread> workers;
  std::atomic<int> next{0};
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        int i = next.fetch_add(1);
        if (i >= kItems) return;
        if (!q.Push(i)) return;
      }
    });
  }
  std::set<int> received;
  for (int i = 0; i < kItems; ++i) {
    auto item = q.Pop();
    ASSERT_TRUE(item.has_value());
    received.insert(*item);
  }
  for (std::thread& worker : workers) worker.join();
  q.Close();
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_EQ(received.size(), static_cast<size_t>(kItems));
}

TEST(ParseNumberTest, AcceptsOnlyAWholeNumber) {
  EXPECT_EQ(ParseNumber<int64_t>("-42").value(), -42);
  EXPECT_EQ(ParseNumber<int32_t>("2147483647").value(), 2147483647);
  EXPECT_FALSE(ParseNumber<int32_t>("2147483648").ok());  // out of range
  for (const char* bad : {"", " 1", "1 ", "12abc", "0x10", "1.5", "-"}) {
    EXPECT_FALSE(ParseNumber<int64_t>(bad).ok()) << "'" << bad << "'";
  }
  EXPECT_EQ(ParseNumber<double>("1e-4").value(), 1e-4);
  EXPECT_EQ(ParseNumber<float>("-2.5").value(), -2.5f);
  for (const char* bad : {"", " 1", "1.5x", "abc", "1e999", "."}) {
    EXPECT_FALSE(ParseNumber<double>(bad).ok()) << "'" << bad << "'";
    EXPECT_FALSE(ParseNumber<float>(bad).ok()) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseNumber<float>(std::string_view("1\0", 2)).ok());
  EXPECT_TRUE(ParseNumber<int64_t>("12abc").status().IsInvalidArgument());
}

TEST(ParseNumberTest, FloatRoundsOnceLikeStrtof) {
  // Just below the midpoint between the floats 1 + 2^-23 and 1 + 2^-22: a
  // float parse rounds down, while a double parse lands on the midpoint
  // itself and the narrowing cast then rounds to even, upwards.
  const char* text = "1.0000001788139343261718749";
  float once = ParseNumber<float>(text).value();
  EXPECT_EQ(once, std::strtof(text, nullptr));
  EXPECT_NE(once, static_cast<float>(ParseNumber<double>(text).value()));
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.ElapsedMillis(), 15.0);
  timer.Restart();
  EXPECT_LT(timer.ElapsedMillis(), 15.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"model", "auc"});
  table.AddRow({"GAT", "0.8879"});
  table.AddRow({"xFraud detector+", "0.9074"});
  std::ostringstream os;
  table.Print(os);
  std::string text = os.str();
  EXPECT_NE(text.find("xFraud detector+"), std::string::npos);
  EXPECT_NE(text.find("0.9074"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("|--"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(0.9074, 4), "0.9074");
  EXPECT_EQ(TablePrinter::Num(2.0, 1), "2.0");
}

TEST(ClockTest, RealClockAdvancesMonotonically) {
  Clock* clock = Clock::Real();
  ASSERT_NE(clock, nullptr);
  double a = clock->NowSeconds();
  clock->SleepFor(0.001);
  double b = clock->NowSeconds();
  EXPECT_GE(b - a, 0.0005);
  clock->SleepFor(-1.0);  // non-positive sleep is a no-op
}

TEST(ClockTest, VirtualClockOnlyMovesWhenAdvanced) {
  VirtualClock clock(10.0);
  EXPECT_EQ(clock.NowSeconds(), 10.0);
  clock.SleepFor(2.5);  // the sleeper experiences the wait instantly
  EXPECT_EQ(clock.NowSeconds(), 12.5);
  clock.SleepFor(0.0);
  clock.SleepFor(-5.0);
  EXPECT_EQ(clock.NowSeconds(), 12.5);
  clock.Advance(0.5);
  EXPECT_EQ(clock.NowSeconds(), 13.0);
}

TEST(DeadlineTest, TracksRemainingBudgetOnItsClock) {
  VirtualClock clock;
  Deadline unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_FALSE(unlimited.Expired());
  EXPECT_TRUE(std::isinf(unlimited.RemainingSeconds()));

  Deadline d = Deadline::After(&clock, 1.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_NEAR(d.RemainingSeconds(), 1.0, 1e-12);
  clock.Advance(0.75);
  EXPECT_NEAR(d.RemainingSeconds(), 0.25, 1e-12);
  EXPECT_FALSE(d.Expired());
  clock.Advance(0.25);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineScopeTest, NestsPerThreadInnermostWins) {
  VirtualClock clock;
  EXPECT_EQ(DeadlineScope::Current(), nullptr);
  {
    DeadlineScope outer(Deadline::After(&clock, 10.0));
    ASSERT_NE(DeadlineScope::Current(), nullptr);
    EXPECT_NEAR(DeadlineScope::Current()->RemainingSeconds(), 10.0, 1e-12);
    {
      DeadlineScope inner(Deadline::After(&clock, 1.0));
      EXPECT_NEAR(DeadlineScope::Current()->RemainingSeconds(), 1.0,
                  1e-12);
      // Another thread sees no deadline: scopes are thread-local.
      std::thread other([] {
        EXPECT_EQ(DeadlineScope::Current(), nullptr);
      });
      other.join();
    }
    EXPECT_NEAR(DeadlineScope::Current()->RemainingSeconds(), 10.0, 1e-12);
  }
  EXPECT_EQ(DeadlineScope::Current(), nullptr);
}

TEST(RetryDeadlineTest, BackoffIsClampedToTheRemainingBudget) {
  // Backoff (1s) dwarfs the deadline (0.1s): the single sleep before the
  // retry must be clamped to the unspent budget, so the loop gives up
  // having consumed ~0.1 virtual seconds — not the full 1s backoff.
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_s = 1.0;
  policy.max_backoff_s = 1.0;
  policy.jitter_frac = 0.0;
  policy.deadline_s = 0.1;
  policy.clock = &clock;
  int attempts = 0;
  Status s = RetryWithBackoff(policy, /*jitter_seed=*/1, [&] {
    ++attempts;
    return Status::IoError("always down");
  });
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(attempts, 2);  // first try + the one retry the budget allows
  EXPECT_NEAR(clock.NowSeconds(), 0.1, 1e-9);
}

TEST(RetryDeadlineTest, UnclampedBackoffStillHonorsMaxAttempts) {
  VirtualClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_s = 0.01;
  policy.max_backoff_s = 0.01;
  policy.jitter_frac = 0.0;
  policy.clock = &clock;
  int attempts = 0;
  Status s = RetryWithBackoff(policy, /*jitter_seed=*/1, [&] {
    ++attempts;
    return Status::IoError("always down");
  });
  EXPECT_TRUE(s.IsIoError());
  EXPECT_EQ(attempts, 3);
  EXPECT_NEAR(clock.NowSeconds(), 0.02, 1e-9);
}

// Shed-path semantics the serving layer's admission control leans on: a
// full queue refuses instantly, and Close() promptly releases every
// blocked popper.
using Transition = CircuitBreaker::Transition;

/// Drives `b` from closed to open with three failures.
void TripBreaker(CircuitBreaker* b) {
  EXPECT_EQ(b->Record(false), Transition::kNone);
  EXPECT_EQ(b->Record(false), Transition::kNone);
  EXPECT_EQ(b->Record(false), Transition::kOpened);
}

TEST(CircuitBreakerTest, OpensOnTheThirdConsecutiveFailure) {
  VirtualClock clock;
  CircuitBreaker b(&clock);
  // Two failures, a success, two more: never three in a row.
  EXPECT_EQ(b.Record(false), Transition::kNone);
  EXPECT_EQ(b.Record(false), Transition::kNone);
  EXPECT_EQ(b.Record(true), Transition::kNone);
  EXPECT_EQ(b.Record(false), Transition::kNone);
  EXPECT_EQ(b.Record(false), Transition::kNone);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(b.Admit());
  EXPECT_EQ(b.Record(false), Transition::kOpened);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, SkipsWhileOpenAndAdmitsExactlyOneProbe) {
  VirtualClock clock;
  CircuitBreaker b(&clock);
  TripBreaker(&b);
  clock.Advance(CircuitBreaker::kCooloffS / 2);
  EXPECT_TRUE(b.IsOpen());
  EXPECT_FALSE(b.Admit());
  clock.Advance(CircuitBreaker::kCooloffS / 2);
  EXPECT_TRUE(b.Admit());  // the probe
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(b.IsOpen());
  EXPECT_FALSE(b.Admit());
  EXPECT_FALSE(b.Admit());
  // A probe whose outcome never arrives is replaced one cool-off later.
  clock.Advance(CircuitBreaker::kCooloffS);
  EXPECT_TRUE(b.Admit());
  EXPECT_FALSE(b.Admit());
}

TEST(CircuitBreakerTest, ProbeSuccessClosesAndProbeFailureReopens) {
  VirtualClock clock;
  CircuitBreaker b(&clock);
  TripBreaker(&b);
  clock.Advance(CircuitBreaker::kCooloffS);
  ASSERT_TRUE(b.Admit());
  EXPECT_EQ(b.Record(false), Transition::kOpened);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(b.Admit());  // a fresh cool-off from the failed probe

  clock.Advance(CircuitBreaker::kCooloffS);
  ASSERT_TRUE(b.Admit());
  EXPECT_EQ(b.Record(true), Transition::kClosed);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_FALSE(b.IsOpen());
  EXPECT_TRUE(b.Admit());
  // Closing reset the count: it takes three new failures to open again.
  TripBreaker(&b);
}

TEST(CircuitBreakerTest, OutcomesArrivingWhileOpenAreIgnored) {
  VirtualClock clock;
  CircuitBreaker b(&clock);
  TripBreaker(&b);
  EXPECT_EQ(b.Record(true), Transition::kNone);
  EXPECT_EQ(b.Record(false), Transition::kNone);
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  // The straggling failure did not extend the cool-off.
  clock.Advance(CircuitBreaker::kCooloffS);
  EXPECT_TRUE(b.Admit());
}

TEST(CircuitBreakerTest, IsOpenNeverTakesTheProbe) {
  VirtualClock clock;
  CircuitBreaker b(&clock);
  EXPECT_FALSE(b.IsOpen());
  TripBreaker(&b);
  EXPECT_TRUE(b.IsOpen());
  clock.Advance(CircuitBreaker::kCooloffS);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(b.IsOpen());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  EXPECT_TRUE(b.Admit());
  EXPECT_TRUE(b.IsOpen());
}

TEST(BoundedQueueTest, TryPushShedsOnFullAndAfterClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full: immediate refusal, no blocking
  q.Close();
  EXPECT_FALSE(q.TryPush(4));  // closed: still an immediate refusal
  // Buffered work drains in order after the close.
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BoundedQueueTest, CloseWakesManyBlockedPoppersPromptly) {
  BoundedQueue<int> q(2);
  const int kPoppers = 4;
  std::atomic<int> waiting{0};
  std::atomic<int> woke_empty{0};
  std::vector<std::thread> poppers;
  for (int i = 0; i < kPoppers; ++i) {
    poppers.emplace_back([&] {
      waiting.fetch_add(1);
      if (!q.Pop().has_value()) woke_empty.fetch_add(1);
    });
  }
  // Ensure every popper has at least reached the queue before closing.
  while (waiting.load() < kPoppers) std::this_thread::yield();
  WallTimer timer;
  q.Close();
  for (auto& t : poppers) t.join();
  EXPECT_EQ(woke_empty.load(), kPoppers);  // nobody got an item
  // "Promptly": the join completed in bounded time, not a missed-wakeup
  // hang (generous bound to stay robust under sanitizers).
  EXPECT_LT(timer.ElapsedMillis(), 10000.0);
}

// ---- Byte codec (common/bytes.h) ------------------------------------------

TEST(ByteCodecTest, EveryWidthRoundTripsAtEveryOffset) {
  for (size_t pad = 0; pad < 9; ++pad) {
    ByteWriter w;
    w.Bytes(std::string(pad, '\xAA'));
    w.U8(0x81).I8(-2).U16(0x8182).U32(0x81828384u).I32(-5);
    w.U64(0x8182838485868788ull).I64(-7).F32(1.5f).F64(-2.25);
    w.Str("ab").Array(std::vector<int32_t>{3, -4});
    const std::string bytes = w.Release();
    ASSERT_EQ(bytes.size(), pad + 1 + 1 + 2 + 4 + 4 + 8 + 8 + 4 + 8 + 6 + 8);
    // Little-endian on the wire, whatever the offset.
    EXPECT_EQ(bytes.substr(pad + 2, 6),
              std::string("\x82\x81\x84\x83\x82\x81", 6));

    ByteReader r(bytes);
    EXPECT_EQ(r.Bytes(pad), std::string(pad, '\xAA'));
    EXPECT_EQ(r.U8(), 0x81);
    EXPECT_EQ(r.I8(), -2);
    EXPECT_EQ(r.U16(), 0x8182);
    EXPECT_EQ(r.U32(), 0x81828384u);
    EXPECT_EQ(r.I32(), -5);
    EXPECT_EQ(r.U64(), 0x8182838485868788ull);
    EXPECT_EQ(r.I64(), -7);
    EXPECT_EQ(r.F32(), 1.5f);
    EXPECT_EQ(r.F64(), -2.25);
    EXPECT_EQ(r.Str(), "ab");
    std::vector<int32_t> arr;
    EXPECT_TRUE(r.Array(2, &arr));
    EXPECT_EQ(arr, (std::vector<int32_t>{3, -4}));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(ByteCodecTest, ShortReadFailsStickily) {
  const std::string bytes("\x01\x02\x03\x04\x05\x06", 6);
  ByteReader r(bytes);
  EXPECT_EQ(r.U32(), 0x04030201u);
  EXPECT_EQ(r.U32(), 0u);  // two bytes left: fails, consumes nothing
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_EQ(r.U8(), 0);  // would fit, but the failure is sticky
  EXPECT_EQ(r.U16(), 0);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(ByteCodecTest, ReadCountRejectsACountBeyondTheBytesLeft) {
  ByteWriter w;
  w.U64(uint64_t{1} << 62).Bytes(std::string(12, '\0'));
  const std::string bytes = w.Release();
  ByteReader r(bytes);
  // 2^62 × 4 bytes wraps to 0 in a multiplied check; the division cannot.
  EXPECT_EQ(r.ReadCount(4), 0u);
  EXPECT_FALSE(r.ok());

  ByteWriter honest;
  honest.U64(3).Bytes(std::string(12, '\0'));
  const std::string ok_bytes = honest.Release();
  ByteReader fits(ok_bytes);
  EXPECT_EQ(fits.ReadCount(4), 3u);
  EXPECT_TRUE(fits.ok());

  ByteWriter negative;  // an i64 count of -1 is 2^64 - 1 here
  negative.I64(-1).Bytes(std::string(12, '\0'));
  const std::string neg_bytes = negative.Release();
  ByteReader neg(neg_bytes);
  EXPECT_EQ(neg.ReadCount(1), 0u);
  EXPECT_FALSE(neg.ok());
}

TEST(ByteCodecTest, StrAndArrayBeyondTheEndFail) {
  // u32 length 5, then only three bytes.
  const std::string str_bytes("\x05\x00\x00\x00" "abc", 7);
  ByteReader r(str_bytes);
  EXPECT_EQ(r.Str(), "");
  EXPECT_FALSE(r.ok());

  const std::string arr_bytes(7, '\0');
  ByteReader a(arr_bytes);
  std::vector<float> out = {9.0f};
  EXPECT_FALSE(a.Array(2, &out));  // 8 bytes wanted, 7 there
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(out, std::vector<float>{9.0f});  // untouched on failure
}

TEST(ByteCodecTest, MagicMismatchFailsTheReader) {
  constexpr char kMagic[4] = {'X', 'F', 'T', 'C'};
  ByteReader good(std::string_view("XFTC\x01", 5));
  EXPECT_TRUE(good.Magic(kMagic));
  EXPECT_EQ(good.U8(), 1);
  ByteReader bad(std::string_view("XFTD\x01", 5));
  EXPECT_FALSE(bad.Magic(kMagic));
  EXPECT_FALSE(bad.ok());
  ByteReader shorter(std::string_view("XF", 2));
  EXPECT_FALSE(shorter.Magic(kMagic));
}

TEST(ByteCodecTest, PatchU32OverwritesInPlaceAndWriterAppends) {
  std::string buf = "pre";
  ByteWriter w(&buf);
  w.U32(0).U8(7).PatchU32(3, 0x0A0B0C0Du);
  EXPECT_EQ(buf, std::string("pre\x0D\x0C\x0B\x0A\x07", 8));
}

TEST(FrameHeaderTest, EncodesToTheDocumentedBytes) {
  FrameHeader header;
  header.type = FrameType::kScoreRequest;
  header.flags = 0x0102;
  header.rank = 5;
  header.seq = 0x0102030405060708ull;
  header.payload_bytes = 20;
  header.payload_crc = 0xDEADBEEFu;
  const unsigned char want[kFrameHeaderBytes] = {
      'X',  'F',  'R',  'M',                           // magic
      0x09, 0x00,                                      // type
      0x02, 0x01,                                      // flags
      0x05, 0x00, 0x00, 0x00,                          // rank
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
      0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload_bytes
      0xEF, 0xBE, 0xAD, 0xDE};                         // payload_crc
  const std::string bytes = EncodeFrameHeader(header);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  EXPECT_EQ(std::memcmp(bytes.data(), want, kFrameHeaderBytes), 0);
  auto decoded = DecodeFrameHeader(want);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, FrameType::kScoreRequest);
  EXPECT_EQ(decoded.value().flags, 0x0102);
  EXPECT_EQ(decoded.value().rank, 5u);
  EXPECT_EQ(decoded.value().seq, 0x0102030405060708ull);
  EXPECT_EQ(decoded.value().payload_bytes, 20u);
  EXPECT_EQ(decoded.value().payload_crc, 0xDEADBEEFu);

  // Type 7 (the retired ring barrier token) is unassigned.
  unsigned char retired[kFrameHeaderBytes];
  std::memcpy(retired, want, kFrameHeaderBytes);
  retired[4] = 0x07;
  auto rejected = DecodeFrameHeader(retired);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsCorruption());
  EXPECT_NE(rejected.status().message().find("unknown type 7"),
            std::string::npos)
      << rejected.status().ToString();
}

}  // namespace
}  // namespace xfraud
