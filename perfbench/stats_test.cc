// Tests of the benchmark's statistics rules (stats.h): the tail rule,
// open-loop lateness accounting and backlog detection. Self-contained:
// exits non-zero and names the failing check. Run through
// `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <iostream>
#include <limits>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void TestQuantile() {
  Expect(Near(Median({3, 1, 2}), 2), "median of three");
  Expect(Near(Median({1, 2, 3, 4}), 2.5), "median interpolates");
  Expect(Near(Quantile(Ramp(101), 0.99), 100), "p99 of 1..101");
  Expect(Quantile({}, 0.5) == 0.0, "empty quantile is 0");
}

void TestTailRule() {
  // 1000 samples: exactly 10 beyond p99, so p99 is reported.
  Tail t = TailAt(Ramp(1000));
  Expect(t.percentile == 99.0 && t.count == 1000, "p99 at n=1000");
  // 999 samples: only 9.99 beyond p99, so the rule falls back to p98.
  t = TailAt(Ramp(999));
  Expect(t.percentile == 98.0, "p98 at n=999");
  // 200 samples: p95 has 10 beyond.
  t = TailAt(Ramp(200));
  Expect(t.percentile == 95.0, "p95 at n=200");
  // 10000 samples: p99.9 has 10 beyond, but a p99 metric asks for p99.
  Expect(TailAt(Ramp(10000)).percentile == 99.0, "capped at the asked p99");
  Expect(TailAt(Ramp(10000), 99.9).percentile == 99.9, "p99.9 at n=10000");
  // Too few for any supported percentile: the median, with its count.
  t = TailAt(Ramp(5));
  Expect(t.percentile == 50.0 && t.count == 5, "median fallback");
  Expect(Near(t.value, 3.0), "median fallback value");
}

void TestOpenLoopAccounting() {
  // Due every 1 ms; the second request is sent 2 ms late (a stall) and
  // takes 0.5 ms, so its latency from the due time is 2.5 ms.
  std::vector<OpenLoopRequest> r = {
      {0.000, 0.000, 0.0005, true},
      {0.001, 0.003, 0.0035, true},
      {0.002, 0.0035, 0.004, false},
  };
  OpenLoopStats s = AccountOpenLoop(r);
  Expect(s.attempted == 3 && s.failed == 1, "attempted and failed");
  Expect(s.latency_ms.size() == 2, "latency only for ok requests");
  Expect(Near(s.latency_ms[1], 2.5), "latency timed from the due time");
  Expect(Near(s.lateness_ms[1], 2.0), "lateness is due -> send");
  Expect(Near(s.lateness_ms[2], 1.5), "failed requests count lateness");
  Expect(std::isinf(s.limit_ms[2]), "a failure is a miss");
  // A send before its due time is not negative lateness.
  s = AccountOpenLoop({{0.010, 0.009, 0.0095, true}});
  Expect(s.lateness_ms[0] == 0.0 && s.latency_ms[0] == 0.0, "clamped at 0");
}

void TestBacklog() {
  std::vector<double> flat(400, 0.05);
  Expect(!BacklogGrowing(flat, 1.0), "steady lateness is no backlog");
  std::vector<double> spikes = flat;
  for (size_t i = 0; i < spikes.size(); i += 40) spikes[i] = 50.0;
  Expect(!BacklogGrowing(spikes, 1.0), "isolated stalls are no backlog");
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(0.02 * i);
  Expect(BacklogGrowing(growing, 1.0), "lateness growing 8 ms is backlog");
  Expect(!BacklogGrowing({5, 6, 7}, 1.0), "too few samples to judge");
}

void TestStepLimit() {
  std::vector<OpenLoopRequest> ok;
  for (int i = 0; i < 1000; ++i) {
    const double due = i * 1e-3;
    ok.push_back({due, due, due + 0.0004, true});
  }
  Expect(StepMeetsLimit(AccountOpenLoop(ok), 2.0, 1.0), "fast step passes");
  // 2% failures put infinite latency above p99.
  std::vector<OpenLoopRequest> failing = ok;
  for (int i = 0; i < 20; ++i) failing[static_cast<size_t>(i * 50)].ok = false;
  Expect(!StepMeetsLimit(AccountOpenLoop(failing), 2.0, 1.0),
         "failures count as misses");
  // Every request a little later than the last: a growing queue.
  std::vector<OpenLoopRequest> queued = ok;
  for (int i = 0; i < 1000; ++i) {
    OpenLoopRequest& q = queued[static_cast<size_t>(i)];
    q.send_s = q.due_s + i * 1e-6;
    q.done_s = q.send_s + 0.0004;
  }
  Expect(!StepMeetsLimit(AccountOpenLoop(queued), 2.0, 0.5),
         "a growing backlog misses even under the latency limit");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestQuantile();
  perfbench::TestTailRule();
  perfbench::TestOpenLoopAccounting();
  perfbench::TestBacklog();
  perfbench::TestStepLimit();
  if (perfbench::failures > 0) return 1;
  std::cout << "perfbench_stats_test: all checks passed\n";
  return 0;
}
