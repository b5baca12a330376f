#ifndef XFRAUD_COMMON_CLOCK_H_
#define XFRAUD_COMMON_CLOCK_H_

#include <atomic>
#include <limits>

namespace xfraud {

/// Injectable time source. All code outside common/ must measure time and
/// sleep through a Clock* (the `no-raw-clock` lint rule enforces this), so
/// every latency-sensitive path — replicated reads, breaker cool-offs,
/// deadlines, retry backoff — can run under a VirtualClock in tests: chaos
/// scenarios with seconds of injected latency replay in microseconds of
/// real time, and the observed timings are bit-identical across runs.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic seconds since an arbitrary epoch.
  virtual double NowSeconds() const = 0;

  /// Blocks (or advances virtual time) for `seconds`; <= 0 is a no-op.
  virtual void SleepFor(double seconds) = 0;

  /// Process-wide wall clock (steady_clock under the hood). Never null.
  static Clock* Real();
};

/// Deterministic clock for tests and benches: time only moves when a
/// sleeper advances it. SleepFor models the caller *experiencing* the wait,
/// so a single-threaded chaos test that "sleeps" 10 injected seconds
/// finishes instantly while every latency measurement still reads 10s.
class VirtualClock : public Clock {
 public:
  explicit VirtualClock(double start_s = 0.0) : now_s_(start_s) {}

  double NowSeconds() const override {
    return now_s_.load(std::memory_order_relaxed);
  }
  void SleepFor(double seconds) override {
    if (seconds > 0.0) Advance(seconds);
  }

  /// Moves time forward without a sleeper (e.g. to expire a breaker
  /// cool-off from the test body).
  void Advance(double seconds) {
    now_s_.fetch_add(seconds, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> now_s_;
};

/// An absolute point in time on some clock, plus the "no deadline" state.
/// Value type: cheap to copy, compare against, and pass down a call stack.
class Deadline {
 public:
  /// No deadline: never expires, infinite remaining budget.
  Deadline() = default;

  /// Expires `budget_s` from now on `clock` (must outlive the deadline).
  static Deadline After(Clock* clock, double budget_s) {
    Deadline d;
    d.clock_ = clock;
    d.deadline_s_ = clock->NowSeconds() + budget_s;
    return d;
  }

  bool unlimited() const { return clock_ == nullptr; }

  /// Seconds until expiry (negative once past; +inf when unlimited).
  double RemainingSeconds() const {
    if (unlimited()) return std::numeric_limits<double>::infinity();
    return deadline_s_ - clock_->NowSeconds();
  }

  bool Expired() const { return !unlimited() && RemainingSeconds() <= 0.0; }

 private:
  Clock* clock_ = nullptr;
  double deadline_s_ = 0.0;
};

/// Propagates a request deadline down a call stack without threading a
/// parameter through every interface: the scoring service opens a scope
/// around sampling + KV reads, and layers that cannot see the request
/// (FeatureStore loops, ReplicatedKvStore attempts) poll Current() to fail
/// fast with DeadlineExceeded instead of burning a dead request's budget.
///
/// Scopes nest per thread; the innermost scope wins. Not copyable — stack
/// allocate it for the duration of the guarded work.
class DeadlineScope {
 public:
  explicit DeadlineScope(const Deadline& deadline);
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// The calling thread's innermost active deadline, or nullptr when no
  /// scope is open (callers treat nullptr as unlimited).
  static const Deadline* Current();

 private:
  const Deadline* prev_;
  Deadline deadline_;
};

}  // namespace xfraud

#endif  // XFRAUD_COMMON_CLOCK_H_
