// Micro-benchmark of the dist::SocketCommunicator all-reduce: the ring over
// unix sockets that every distributed run uses, ranks as threads or as
// processes. It measures per-round latency and on-wire throughput across a
// payload sweep, the numbers that back DistributedEpoch.measured_comm_seconds.
//
// For each payload size, `world` threads run `rounds` AllReduceSum(f32)
// rounds; the table reports per-round wall time and effective payload
// bandwidth (payload bytes reduced per second of the slowest rank). A ring
// all-reduce moves each payload ~2x around the ring, so wire bytes exceed
// payload bytes by ~2(world-1)/world plus frame headers — reported in the
// last column.
//
// XFRAUD_BENCH_FAST=1 shrinks the sweep; XFRAUD_METRICS_OUT=<path>.json
// writes the obs registry snapshot (dist/comm/* counters) at exit.

#include <filesystem>
#include <system_error>
#include <thread>

#include "bench_common.h"

namespace xfraud::bench {
namespace {

struct SweepPoint {
  size_t elements;
  int rounds;
};

struct Measurement {
  double seconds_per_round = 0.0;
  int64_t wire_bytes = 0;  // total across ranks
};

/// Runs `rounds` all-reduce rounds over `world` communicators (one thread
/// per rank) and returns the slowest-path per-round time.
Measurement RunRounds(
    const std::vector<std::unique_ptr<dist::SocketCommunicator>>& comms,
    size_t elements, int rounds) {
  const int world = static_cast<int>(comms.size());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(world));
  WallTimer timer;
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      std::vector<float> payload(elements, static_cast<float>(r + 1));
      for (int round = 0; round < rounds; ++round) {
        Status s = comms[static_cast<size_t>(r)]->AllReduceSum(
            std::span<float>(payload));
        XF_CHECK(s.ok()) << s.ToString();
      }
    });
  }
  for (auto& t : threads) t.join();
  Measurement m;
  m.seconds_per_round = timer.ElapsedSeconds() / rounds;
  for (const auto& comm : comms) m.wire_bytes += comm->bytes_on_wire();
  return m;
}

void Run() {
  PrintHeader("SocketCommunicator all-reduce",
              "transport layer of §3.3.2's DDP training (DESIGN.md §12)");

  const int world = 4;
  std::vector<SweepPoint> sweep = {{1 << 10, 50},
                                   {1 << 14, 20},
                                   {1 << 18, 8},
                                   {1 << 20, 3}};
  if (FastMode()) sweep = {{1 << 10, 5}, {1 << 14, 3}};

  Result<std::string> dir = MakeTempDir("xfraud-bench-allreduce-");
  XF_CHECK(dir.ok()) << dir.status().ToString();
  TablePrinter table({"payload (floats)", "rounds", "ms/round",
                      "payload MB/s", "wire bytes/round"});
  for (const SweepPoint& point : sweep) {
    const double payload_mb =
        static_cast<double>(point.elements * sizeof(float)) / (1024 * 1024);
    dist::Endpoint rdzv =
        dist::ParseEndpoint("unix:" + dir.value() + "/rdzv.sock").value();
    auto host = dist::RendezvousHost::Create(rdzv, world);
    XF_CHECK(host.ok()) << host.status().ToString();
    std::vector<std::unique_ptr<dist::SocketCommunicator>> comms(
        static_cast<size_t>(world));
    std::vector<std::thread> connectors;
    for (int r = 0; r < world; ++r) {
      connectors.emplace_back([&, r] {
        dist::SocketCommOptions o;
        o.rank = r;
        o.world = world;
        o.rendezvous = rdzv;
        auto c = dist::SocketCommunicator::Connect(
            o, r == 0 ? host.value().get() : nullptr);
        XF_CHECK(c.ok()) << c.status().ToString();
        comms[static_cast<size_t>(r)] = std::move(c).value();
      });
    }
    for (auto& t : connectors) t.join();
    Measurement m = RunRounds(comms, point.elements, point.rounds);
    table.AddRow(
        {std::to_string(point.elements), std::to_string(point.rounds),
         TablePrinter::Num(m.seconds_per_round * 1e3, 3),
         TablePrinter::Num(payload_mb / m.seconds_per_round, 1),
         TablePrinter::Num(static_cast<double>(m.wire_bytes) / point.rounds,
                           0)});
  }
  table.Print(std::cout);
  std::error_code ec;
  std::filesystem::remove_all(dir.value(), ec);
}

}  // namespace
}  // namespace xfraud::bench

int main() {
  xfraud::SetMinLogLevel(xfraud::LogLevel::kWarning);
  xfraud::bench::InitObsFromEnv();
  xfraud::bench::Run();
  xfraud::bench::EmitObsSnapshot();
  return 0;
}
