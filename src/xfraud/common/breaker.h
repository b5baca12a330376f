#ifndef XFRAUD_COMMON_BREAKER_H_
#define XFRAUD_COMMON_BREAKER_H_

#include <mutex>

#include "xfraud/common/clock.h"

namespace xfraud {

/// The serving tier's one circuit-breaker policy (DESIGN.md §11.2), used
/// per replica by kv::ReplicatedKvStore and per server by serve::Router.
/// No knobs: kFailuresToOpen consecutive failures open it (a success resets
/// the count); while open, reads skip the backend; kCooloffS after opening,
/// Admit() hands out exactly one half-open probe, whose success closes the
/// breaker and whose failure re-opens it for another cool-off. A probe
/// whose outcome never arrives (its caller gave up on a deadline) is
/// replaced one cool-off later. Outcomes arriving while open are ignored.
///
/// IsOpen() has no side effect, so candidate scans may call it freely;
/// Admit() is only for the backend actually read, since it may take the
/// probe slot. Thread-safe.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };
  /// What a Record() did, so callers can count it in their own metrics.
  enum class Transition { kNone, kOpened, kClosed };

  static constexpr int kFailuresToOpen = 3;
  static constexpr double kCooloffS = 0.05;

  /// `clock` times the cool-off (not owned); nullptr means Clock::Real().
  explicit CircuitBreaker(Clock* clock)
      : clock_(clock != nullptr ? clock : Clock::Real()) {}

  /// True when Admit() would refuse now.
  bool IsOpen() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ != State::kClosed && clock_->NowSeconds() < probe_at_s_;
  }

  /// True when the caller may read the backend now; past the cool-off of a
  /// non-closed breaker the caller becomes the half-open probe.
  bool Admit() {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kClosed) return true;
    const double now = clock_->NowSeconds();
    if (now < probe_at_s_) return false;
    state_ = State::kHalfOpen;
    probe_at_s_ = now + kCooloffS;
    return true;
  }

  /// Reports one read's outcome (`healthy` = the backend answered).
  Transition Record(bool healthy) {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == State::kOpen) return Transition::kNone;
    if (healthy) {
      failures_ = 0;
      if (state_ == State::kClosed) return Transition::kNone;
      state_ = State::kClosed;
      return Transition::kClosed;
    }
    if (state_ == State::kClosed && ++failures_ < kFailuresToOpen) {
      return Transition::kNone;
    }
    state_ = State::kOpen;
    probe_at_s_ = clock_->NowSeconds() + kCooloffS;
    return Transition::kOpened;
  }

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

 private:
  Clock* const clock_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  int failures_ = 0;          // consecutive, while closed
  double probe_at_s_ = 0.0;   // earliest next probe while not closed
};

}  // namespace xfraud

#endif  // XFRAUD_COMMON_BREAKER_H_
