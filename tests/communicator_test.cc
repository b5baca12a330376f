// Conformance suite of the dist::SocketCommunicator ring, one thread per
// rank over unix sockets in /tmp. The contract under test
// (socket_transport.h):
//   - AllReduceSum is the ascending-rank left fold — bit-identical on every
//     rank;
//   - Broadcast copies root's buffer everywhere;
//   - Gather delivers rank-indexed buffers (possibly of differing lengths)
//     to root;
//   - collectives are matched by call order, and a signature mismatch
//     breaks the ring for good.
// Failure modes (deadline expiry, peer death, dead rendezvous) close the
// file.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "xfraud/common/clock.h"
#include "xfraud/common/status.h"
#include "xfraud/common/timer.h"
#include "xfraud/dist/rendezvous.h"
#include "xfraud/dist/socket_transport.h"

namespace xfraud::dist {
namespace {

/// Short unique unix-socket directory (AF_UNIX paths are length-capped, so
/// deep gtest temp paths are risky).
std::string MakeSocketDir() {
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/xfc-" + std::to_string(::getpid()) + "-" +
                    std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return dir;
}

/// A connected `world`-rank ring. Run() plays one rank per thread and
/// collects each rank's Status so assertions happen on the main thread.
class Cluster {
 public:
  explicit Cluster(int world, double op_timeout_s = 20.0) : world_(world) {
    dir_ = MakeSocketDir();
    Endpoint rdzv = ParseEndpoint("unix:" + dir_ + "/rdzv.sock").value();
    if (world > 1) {
      host_ = RendezvousHost::Create(rdzv, world).value();
    }
    comms_.resize(static_cast<size_t>(world));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(world));
    for (int r = 0; r < world; ++r) {
      threads.emplace_back([this, r, rdzv, op_timeout_s] {
        SocketCommOptions o;
        o.rank = r;
        o.world = world_;
        o.rendezvous = rdzv;
        o.op_timeout_s = op_timeout_s;
        auto comm =
            SocketCommunicator::Connect(o, r == 0 ? host_.get() : nullptr);
        if (comm.ok()) {
          comms_[static_cast<size_t>(r)] = std::move(comm).value();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int r = 0; r < world; ++r) {
      EXPECT_NE(comms_[static_cast<size_t>(r)], nullptr)
          << "rank " << r << " failed to connect";
    }
  }

  int world() const { return world_; }

  SocketCommunicator* comm(int rank) {
    return comms_[static_cast<size_t>(rank)].get();
  }

  /// Runs fn(rank, comm) on every rank concurrently; returns per-rank
  /// statuses.
  std::vector<Status> Run(
      const std::function<Status(int, SocketCommunicator*)>& fn) {
    std::vector<Status> statuses(static_cast<size_t>(world_));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(world_));
    for (int r = 0; r < world_; ++r) {
      threads.emplace_back([this, r, &fn, &statuses] {
        statuses[static_cast<size_t>(r)] = fn(r, comm(r));
      });
    }
    for (auto& t : threads) t.join();
    return statuses;
  }

 private:
  int world_;
  std::string dir_;
  std::unique_ptr<RendezvousHost> host_;
  std::vector<std::unique_ptr<SocketCommunicator>> comms_;
};

void ExpectAllOk(const std::vector<Status>& statuses) {
  for (size_t r = 0; r < statuses.size(); ++r) {
    EXPECT_TRUE(statuses[r].ok())
        << "rank " << r << ": " << statuses[r].ToString();
  }
}

TEST(SocketCommunicatorTest, RankAndSize) {
  Cluster cluster(3);
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(cluster.comm(r)->rank(), r);
    EXPECT_EQ(cluster.comm(r)->size(), 3);
  }
}

/// Floating-point sums are order-dependent; the contract pins the order to
/// the ascending-rank left fold. The payload is adversarial (huge and tiny
/// magnitudes, sign flips) so any other association produces different bits.
TEST(SocketCommunicatorTest, AllReduceSumFloatIsAscendingRankLeftFold) {
  const int world = 4;
  Cluster cluster(world);
  auto contribution = [](int rank) {
    return std::vector<float>{1.0e8f * (rank % 2 == 0 ? 1.0f : -1.0f),
                              1.0f / (1.0f + static_cast<float>(rank)),
                              1.0e-3f * static_cast<float>(rank + 1),
                              -3.25f};
  };
  // The reference fold, computed serially exactly as the contract states.
  std::vector<float> expected = contribution(0);
  for (int r = 1; r < world; ++r) {
    auto c = contribution(r);
    for (size_t i = 0; i < expected.size(); ++i) expected[i] += c[i];
  }
  std::vector<std::vector<float>> results(world);
  ExpectAllOk(cluster.Run([&](int rank, SocketCommunicator* comm) {
    results[static_cast<size_t>(rank)] = contribution(rank);
    return comm->AllReduceSum(
        std::span<float>(results[static_cast<size_t>(rank)]));
  }));
  for (int r = 0; r < world; ++r) {
    for (size_t i = 0; i < expected.size(); ++i) {
      // Exact equality: bit-identical, not approximately equal.
      EXPECT_EQ(results[static_cast<size_t>(r)][i], expected[i])
          << "rank " << r << " element " << i;
    }
  }
}

TEST(SocketCommunicatorTest, AllReduceSumDoubleIsAscendingRankLeftFold) {
  const int world = 3;
  Cluster cluster(world);
  auto contribution = [](int rank) {
    return std::vector<double>{1.0e16 * (rank == 1 ? -1.0 : 1.0),
                               0.1 + static_cast<double>(rank)};
  };
  std::vector<double> expected = contribution(0);
  for (int r = 1; r < world; ++r) {
    auto c = contribution(r);
    for (size_t i = 0; i < expected.size(); ++i) expected[i] += c[i];
  }
  std::vector<std::vector<double>> results(world);
  ExpectAllOk(cluster.Run([&](int rank, SocketCommunicator* comm) {
    results[static_cast<size_t>(rank)] = contribution(rank);
    return comm->AllReduceSum(
        std::span<double>(results[static_cast<size_t>(rank)]));
  }));
  for (int r = 0; r < world; ++r) {
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(results[static_cast<size_t>(r)][i], expected[i]);
    }
  }
}

TEST(SocketCommunicatorTest, BroadcastFromEveryRoot) {
  const int world = 3;
  Cluster cluster(world);
  for (int root = 0; root < world; ++root) {
    std::vector<std::vector<double>> bufs(world);
    ExpectAllOk(cluster.Run([&, root](int rank, SocketCommunicator* comm) {
      bufs[static_cast<size_t>(rank)] = {
          rank == root ? 42.5 + root : -1.0,
          rank == root ? -7.0 : static_cast<double>(rank)};
      return comm->Broadcast(
          std::span<double>(bufs[static_cast<size_t>(rank)]), root);
    }));
    for (int r = 0; r < world; ++r) {
      EXPECT_EQ(bufs[static_cast<size_t>(r)][0], 42.5 + root);
      EXPECT_EQ(bufs[static_cast<size_t>(r)][1], -7.0);
    }
  }
}

TEST(SocketCommunicatorTest, GatherIsRankIndexedAndRaggedLengthsSurvive) {
  const int world = 4;
  Cluster cluster(world);
  std::vector<std::vector<float>> gathered;
  ExpectAllOk(cluster.Run([&](int rank, SocketCommunicator* comm) {
    // Rank r contributes r+1 elements, all equal to r+0.5.
    std::vector<float> send(static_cast<size_t>(rank + 1),
                            static_cast<float>(rank) + 0.5f);
    return comm->Gather(std::span<const float>(send), /*root=*/0,
                        rank == 0 ? &gathered : nullptr);
  }));
  ASSERT_EQ(gathered.size(), static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    ASSERT_EQ(gathered[static_cast<size_t>(r)].size(),
              static_cast<size_t>(r + 1));
    for (float v : gathered[static_cast<size_t>(r)]) {
      EXPECT_EQ(v, static_cast<float>(r) + 0.5f);
    }
  }
}

/// Collectives are matched by call order: a heterogeneous sequence must
/// stay in lockstep across ops of different types and sizes.
TEST(SocketCommunicatorTest, MixedOperationSequenceStaysMatched) {
  const int world = 3;
  Cluster cluster(world);
  std::vector<std::vector<float>> finals(world);
  ExpectAllOk(cluster.Run([&](int rank, SocketCommunicator* comm) {
    std::vector<float> grads(8, static_cast<float>(rank + 1));
    XF_RETURN_IF_ERROR(comm->AllReduceSum(std::span<float>(grads)));
    std::vector<double> decision = {rank == 0 ? 1.0 : 0.0};
    XF_RETURN_IF_ERROR(
        comm->Broadcast(std::span<double>(decision), /*root=*/0));
    std::vector<std::vector<float>> stats;
    std::vector<float> mine = {static_cast<float>(rank)};
    XF_RETURN_IF_ERROR(comm->Gather(std::span<const float>(mine), 0,
                                    rank == 0 ? &stats : nullptr));
    if (decision[0] != 1.0) return Status::Internal("broadcast lost");
    finals[static_cast<size_t>(rank)] = grads;
    return Status::OK();
  }));
  const float expected = 1.0f + 2.0f + 3.0f;
  for (int r = 0; r < world; ++r) {
    for (float v : finals[static_cast<size_t>(r)]) EXPECT_EQ(v, expected);
  }
}

TEST(SocketCommunicatorTest, WorldOfOneIsIdentity) {
  Cluster cluster(1);
  SocketCommunicator* comm = cluster.comm(0);
  std::vector<float> v = {3.5f, -1.25f};
  ASSERT_TRUE(comm->AllReduceSum(std::span<float>(v)).ok());
  EXPECT_EQ(v[0], 3.5f);
  EXPECT_EQ(v[1], -1.25f);
  std::vector<double> d = {9.0};
  ASSERT_TRUE(comm->Broadcast(std::span<double>(d), 0).ok());
  EXPECT_EQ(d[0], 9.0);
  std::vector<std::vector<float>> gathered;
  std::vector<float> mine = {1.0f};
  ASSERT_TRUE(
      comm->Gather(std::span<const float>(mine), 0, &gathered).ok());
  ASSERT_EQ(gathered.size(), 1u);
  EXPECT_EQ(gathered[0][0], 1.0f);
}

/// A signature mismatch (same slot, different element counts) fails the
/// collective on every rank, and the ring stays broken: even a well-formed
/// follow-up call returns an error.
TEST(SocketCommunicatorTest, SignatureMismatchBreaksTheRing) {
  const int world = 2;
  Cluster cluster(world);
  std::vector<Status> mismatched =
      cluster.Run([](int rank, SocketCommunicator* comm) {
        std::vector<float> v(static_cast<size_t>(2 + rank), 1.0f);
        return comm->AllReduceSum(std::span<float>(v));
      });
  std::vector<Status> after =
      cluster.Run([](int rank, SocketCommunicator* comm) {
        (void)rank;
        std::vector<float> v = {0.0f};
        return comm->AllReduceSum(std::span<float>(v));
      });
  for (int r = 0; r < world; ++r) {
    EXPECT_FALSE(mismatched[static_cast<size_t>(r)].ok()) << "rank " << r;
    EXPECT_FALSE(after[static_cast<size_t>(r)].ok()) << "rank " << r;
  }
}

/// Time inside collectives is measured, and so are the bytes on the wire.
TEST(SocketCommunicatorTest, CommSecondsAndWireBytesAreMeasured) {
  const int world = 2;
  Cluster cluster(world);
  ExpectAllOk(cluster.Run([&](int rank, SocketCommunicator* comm) {
    (void)rank;
    std::vector<float> v(256, 1.0f);
    return comm->AllReduceSum(std::span<float>(v));
  }));
  for (int r = 0; r < world; ++r) {
    EXPECT_GT(cluster.comm(r)->comm_seconds(), 0.0);
    EXPECT_GT(cluster.comm(r)->bytes_on_wire(), 0);
  }
}

// ---- Failure modes ---------------------------------------------------------

/// A rank that enters a collective alone must get DeadlineExceeded after
/// op_timeout, not hang: its peer simply never shows up.
TEST(SocketCommunicatorTest, CollectiveTimesOutWhenPeerNeverEnters) {
  Cluster cluster(2, /*op_timeout_s=*/0.3);
  std::vector<Status> statuses =
      cluster.Run([](int rank, SocketCommunicator* comm) {
        if (rank != 0) return Status::OK();  // rank 1 never joins the op
        std::vector<float> v(4, 1.0f);
        return comm->AllReduceSum(std::span<float>(v));
      });
  EXPECT_TRUE(statuses[0].IsDeadlineExceeded()) << statuses[0].ToString();
}

/// Shutdown closes both ring connections; neighbours blocked in a
/// collective wake with an error instead of waiting out the full deadline,
/// and the EOF cascades so every surviving rank fails.
TEST(SocketCommunicatorTest, PeerDeathFailsSurvivorsFast) {
  Cluster cluster(3, /*op_timeout_s=*/20.0);
  WallTimer timer;
  std::vector<Status> statuses =
      cluster.Run([&cluster](int rank, SocketCommunicator* comm) {
        if (rank == 1) {
          cluster.comm(1)->Shutdown();  // "dies" before the op
          return Status::OK();
        }
        std::vector<float> v(4, 1.0f);
        return comm->AllReduceSum(std::span<float>(v));
      });
  EXPECT_FALSE(statuses[0].ok());
  EXPECT_FALSE(statuses[2].ok());
  // Failure detection must be EOF-driven, far faster than the 20s deadline.
  EXPECT_LT(timer.ElapsedSeconds(), 10.0);
  // And the communicator stays failed: no silent self-healing.
  std::vector<float> v = {1.0f};
  EXPECT_FALSE(
      cluster.comm(0)->AllReduceSum(std::span<float>(v)).ok());
}

/// Close() ends a rendezvous for good: an Exchange blocked on another
/// thread wakes with Unavailable, and a rejoin's single dial is refused
/// instead of waiting out the 60 s rendezvous budget.
TEST(SocketCommunicatorTest, ClosedRendezvousFailsAtOnce) {
  std::string dir = MakeSocketDir();
  Endpoint rdzv = ParseEndpoint("unix:" + dir + "/rdzv.sock").value();
  std::unique_ptr<RendezvousHost> host =
      RendezvousHost::Create(rdzv, /*world=*/2).value();
  Clock* clock = Clock::Real();
  WallTimer timer;
  std::thread closer([&host] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    host->Close();
  });
  Result<Endpoint> exchanged =
      host->Exchange(rdzv, /*generation=*/1, Deadline::After(clock, 20.0),
                     clock);
  closer.join();
  EXPECT_TRUE(exchanged.status().IsUnavailable())
      << exchanged.status().ToString();
  SocketCommOptions rejoin;
  rejoin.rank = 1;
  rejoin.world = 2;
  rejoin.rendezvous = rdzv;
  rejoin.generation = 1;
  EXPECT_FALSE(SocketCommunicator::Connect(rejoin, nullptr).ok());
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
}

TEST(SocketCommunicatorTest, RendezvousWithDeadHostFails) {
  std::string dir = MakeSocketDir();
  Endpoint nowhere =
      ParseEndpoint("unix:" + dir + "/no-host.sock").value();
  Endpoint my_ring = ParseEndpoint("unix:" + dir + "/ring.sock").value();
  RetryPolicy retry{.max_attempts = 3,
                    .initial_backoff_s = 0.01,
                    .max_backoff_s = 0.02,
                    .deadline_s = 1.0};
  Clock* clock = Clock::Real();
  uint64_t generation = 0;
  auto joined = JoinRendezvous(nowhere, /*rank=*/1, /*world=*/2, my_ring,
                               /*generation=*/0,
                               Deadline::After(clock, 1.0), retry, clock,
                               &generation);
  EXPECT_FALSE(joined.ok());
}

}  // namespace
}  // namespace xfraud::dist
