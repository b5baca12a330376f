#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Statistics rules of the benchmark, kept header-only so the unit test
// links nothing but this file:
//  - the tail rule: report the highest percentile that still has at least
//    ten samples beyond it, together with the sample count;
//  - open-loop accounting: latency is timed from each request's due time,
//    and the generator's own lateness (due -> send) is reported apart;
//  - backlog detection for the serving rate ladder.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile, q in [0, 1]. Empty input yields 0.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (std::isinf(values[hi])) return frac > 0.0 ? values[hi] : values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// A tail figure and what backs it.
struct Tail {
  double percentile = 50.0;  // which percentile `value` is
  double value = 0.0;
  int64_t count = 0;          // samples the percentile was taken over
};

/// The tail rule: the highest percentile, at most `want`, from the ladder
/// {99.9, 99, 98, 95, 90, 75, 50} that has at least `min_beyond` samples
/// beyond it (n * (1 - p/100) >= min_beyond). Below 2 * min_beyond
/// samples even the median lacks support; it is still returned, and the
/// count tells the reader how little backs it.
inline Tail TailAt(const std::vector<double>& values, double want = 99.0,
                   int min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.0, 98.0, 95.0,
                                       90.0, 75.0, 50.0};
  Tail tail;
  tail.count = static_cast<int64_t>(values.size());
  const double n = static_cast<double>(values.size());
  for (double p : kLadder) {
    if (p > want) continue;
    // Compare in integer tenths of a percent so 1000 samples at p99
    // (exactly 10 beyond) is not lost to rounding.
    const double beyond = n * (1000.0 - p * 10.0) / 1000.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond) || p == 50.0) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = Quantile(values, tail.percentile / 100.0);
  return tail;
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, when its reply arrived, and whether it succeeded.
struct OpenLoopRequest {
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  bool ok = true;
};

/// What an open-loop step measured. Latency runs from the due time, so a
/// stall is charged to every request queued behind it; a failed request
/// is a miss (infinite latency) for the limit check.
struct OpenLoopStats {
  std::vector<double> latency_ms;   // ok requests only, due -> done
  std::vector<double> lateness_ms;  // every request, due -> send
  std::vector<double> limit_ms;     // latency_ms plus +inf per failure
  int64_t attempted = 0;
  int64_t failed = 0;
};

inline OpenLoopStats AccountOpenLoop(
    const std::vector<OpenLoopRequest>& requests) {
  OpenLoopStats stats;
  stats.attempted = static_cast<int64_t>(requests.size());
  for (const OpenLoopRequest& r : requests) {
    stats.lateness_ms.push_back(std::max(0.0, r.send_s - r.due_s) * 1e3);
    if (r.ok) {
      const double ms = std::max(0.0, r.done_s - r.due_s) * 1e3;
      stats.latency_ms.push_back(ms);
      stats.limit_ms.push_back(ms);
    } else {
      ++stats.failed;
      stats.limit_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  return stats;
}

/// A growing backlog: the generator falls further behind its schedule as
/// the step goes on. Compares the median lateness of the last quarter of
/// requests with that of the first quarter; transient spikes move neither
/// median, a queue that keeps building moves the last one.
inline bool BacklogGrowing(const std::vector<double>& lateness_ms,
                           double tolerance_ms) {
  const size_t n = lateness_ms.size();
  if (n < 8) return false;
  const size_t q = n / 4;
  std::vector<double> first(lateness_ms.begin(), lateness_ms.begin() + q);
  std::vector<double> last(lateness_ms.end() - q, lateness_ms.end());
  return Median(last) > Median(first) + tolerance_ms;
}

/// A ladder step passes when its tail (failures counted as misses) is
/// within the limit and its backlog is not growing.
inline bool StepMeetsLimit(const OpenLoopStats& stats, double limit_ms,
                           double backlog_tolerance_ms) {
  if (stats.attempted == 0) return false;
  return TailAt(stats.limit_ms).value <= limit_ms &&
         !BacklogGrowing(stats.lateness_ms, backlog_tolerance_ms);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
