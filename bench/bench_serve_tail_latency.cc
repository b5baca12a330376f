// Online-serving tail latency under replica faults (DESIGN.md §11).
//
// Section A runs the scoring service on a VirtualClock against a topology
// with one injected slow replica (+5ms per read) and reports exact
// per-request latency percentiles plus the failover counter. Because the
// clock is virtual, the injected milliseconds replay instantly and the
// numbers are bit-identical across runs.
//
// Section B offers increasing concurrent load to a service with a small
// admission limit (real clock, real threads) and reports the shed rate and
// goodput at each offered load — the load-shedding curve.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace xfraud::bench {
namespace {

/// Exact percentile (nearest-rank with interpolation) over raw samples —
/// unlike the obs histogram's log-bucket estimate, this is bench-grade.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name)->value();
}

void RunSectionA(const data::SimDataset& ds, int num_requests) {
  std::cout << "-- A: tail latency with one slow replica (virtual clock, "
            << num_requests << " requests, 4 shards x 3 replicas, "
            << "slow_replica=2@5ms) --\n";
  VirtualClock clock;
  stream::StreamingOptions topo;  // empty dir: cells in a removed temp dir
  topo.num_shards = 4;
  topo.num_replicas = 3;
  topo.clock = &clock;
  // Replica 2 answers, but slowly: +5ms on every read it serves.
  auto plan = fault::FaultPlan::Parse("seed=20260805,slow_replica=2@0.005");
  XF_CHECK(plan.ok()) << plan.status().ToString();
  topo.plan = plan.value();
  auto topology = stream::StreamingTopology::Open(topo);
  XF_CHECK(topology.ok()) << topology.status().ToString();
  XF_CHECK(topology.value()->BulkLoad(ds.graph).ok());

  kv::FeatureStore features(topology.value()->serving());
  Rng model_rng(kSeedA);
  core::XFraudDetector model(DetectorConfigFor(ds.graph), &model_rng);
  serve::ServiceOptions options;
  options.deadline_s = 60.0;  // generous: this section measures latency
  options.clock = &clock;
  serve::ScoringService service(&model, &features, options);

  const int64_t failovers_before = CounterValue("kv/replicated/failovers");
  std::vector<double> latencies;
  latencies.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    const int32_t node =
        ds.test_nodes[static_cast<size_t>(i) % ds.test_nodes.size()];
    auto resp = service.Score(/*request_id=*/i, node);
    XF_CHECK(resp.ok()) << resp.status().ToString();
    latencies.push_back(resp.value().latency_s);
  }

  TablePrinter table({"p50 (ms)", "p95 (ms)", "p99 (ms)", "failovers"});
  table.AddRow(
      {TablePrinter::Num(Percentile(latencies, 0.50) * 1e3, 2),
       TablePrinter::Num(Percentile(latencies, 0.95) * 1e3, 2),
       TablePrinter::Num(Percentile(latencies, 0.99) * 1e3, 2),
       std::to_string(CounterValue("kv/replicated/failovers") -
                      failovers_before)});
  table.Print(std::cout);
  std::cout << "\n";
}

void RunSectionB(const data::SimDataset& ds, int requests_per_thread) {
  std::cout << "-- B: load shedding at increasing offered load (real "
               "clock, max_inflight=2, shed_policy=failfast) --\n";

  kv::MemKvStore store;
  kv::FeatureStore features(&store);
  XF_CHECK(features.Ingest(ds.graph).ok());
  Rng model_rng(kSeedA);
  core::XFraudDetector model(DetectorConfigFor(ds.graph), &model_rng);

  TablePrinter table({"threads", "requests", "ok", "shed", "shed rate",
                      "p99 (ms)"});
  for (int threads : {1, 2, 4, 8}) {
    serve::ServiceOptions options;
    options.max_inflight = 2;
    options.shed_policy = serve::ShedPolicy::kFailFast;
    options.deadline_s = 5.0;
    serve::ScoringService service(&model, &features, options);

    std::atomic<int> ok_count{0};
    std::atomic<int> shed_count{0};
    std::vector<double> latencies(
        static_cast<size_t>(threads) * requests_per_thread, 0.0);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < requests_per_thread; ++i) {
          const int64_t request_id =
              static_cast<int64_t>(t) * requests_per_thread + i;
          const int32_t node =
              ds.test_nodes[static_cast<size_t>(request_id) %
                            ds.test_nodes.size()];
          auto resp = service.Score(request_id, node);
          if (resp.ok()) {
            ok_count.fetch_add(1);
            latencies[static_cast<size_t>(request_id)] =
                resp.value().latency_s;
          } else {
            shed_count.fetch_add(1);
          }
        }
      });
    }
    for (auto& w : workers) w.join();

    std::vector<double> ok_latencies;
    for (double l : latencies) {
      if (l > 0.0) ok_latencies.push_back(l);
    }
    const int total = threads * requests_per_thread;
    table.AddRow({std::to_string(threads), std::to_string(total),
                  std::to_string(ok_count.load()),
                  std::to_string(shed_count.load()),
                  TablePrinter::Num(
                      static_cast<double>(shed_count.load()) / total, 3),
                  TablePrinter::Num(Percentile(ok_latencies, 0.99) * 1e3,
                                    2)});
  }
  table.Print(std::cout);
  std::cout << "admitted requests keep bounded latency; excess offered "
               "load is refused fast instead of queueing\n";
}

void Run() {
  PrintHeader("Online scoring tail latency & load shedding",
              "serving robustness study (DESIGN.md §11; paper §3.3.3 "
              "deployment context)");

  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  if (FastMode()) {
    config.num_buyers = 300;
    config.num_fraud_rings = 8;
  }
  data::SimDataset ds = data::TransactionGenerator::Make(config, "serve");

  const int tail_requests = FastMode() ? 40 : 200;
  const int shed_requests_per_thread = FastMode() ? 8 : 40;
  RunSectionA(ds, tail_requests);
  RunSectionB(ds, shed_requests_per_thread);
  EmitObsSnapshot();
}

}  // namespace
}  // namespace xfraud::bench

int main() {
  xfraud::bench::InitObsFromEnv();
  xfraud::bench::Run();
  return 0;
}
