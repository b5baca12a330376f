// Multi-process serving tier tests (DESIGN.md §16). The ServeWire suite is
// pure codec/fault-grammar coverage and runs in the main xfraud_tests
// binary; the MultiProcessServe suite forks real shard-server processes
// (serve::Supervisor) and therefore lives behind the MultiProcess prefix —
// the dedicated xfraud_mp_tests ctest entry runs it under a hard timeout
// (tools/ci.sh --mode=mp).
//
// What must hold:
//  - socket-transport scores are bit-identical to a single-process run over
//    the same WAL content, model seed, and service seed;
//  - a shard server SIGKILLed mid-load is respawned by the supervisor,
//    recovers from its WAL at the pinned epoch, and every non-shed request
//    still scores bit-identically — and replaying the printed FaultPlan
//    reproduces the exact same outcome;
//  - a request whose deadline expires in flight is rejected server-side
//    with DeadlineExceeded, never scored stale;
//  - a payload bit flip on the wire is detected by the frame CRC, answered
//    with Corruption, and transparently retried by the router.

#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/frame.h"
#include "xfraud/common/timer.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/obs/registry.h"
#include "xfraud/serve/router.h"
#include "xfraud/serve/scoring_service.h"
#include "xfraud/serve/supervisor.h"
#include "xfraud/serve/wire.h"

namespace xfraud::serve {
namespace {

// ---- ServeWire: payload codecs, frame CRC, fault grammar (no processes) ---

TEST(ServeWire, ScoreRequestRoundTrips) {
  ScoreRequestWire req;
  req.epoch = 7;
  req.deadline_s = 0.125;
  req.txn_node = -42;
  const std::string bytes = EncodeScoreRequest(req);
  auto decoded = DecodeScoreRequest(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().epoch, 7u);
  EXPECT_NEAR(decoded.value().deadline_s, 0.125, 1e-6);
  EXPECT_EQ(decoded.value().txn_node, -42);

  // No deadline survives as "no deadline", not as zero.
  req.deadline_s = -1.0;
  const std::string unlimited = EncodeScoreRequest(req);
  EXPECT_LT(DecodeScoreRequest(unlimited.data(), unlimited.size())
                .value()
                .deadline_s,
            0.0);
  // A spent budget survives as exactly zero (the server must reject it).
  req.deadline_s = 0.0;
  const std::string spent = EncodeScoreRequest(req);
  EXPECT_EQ(
      DecodeScoreRequest(spent.data(), spent.size()).value().deadline_s, 0.0);
  // A budget too large for the wire saturates at the largest one, never
  // wraps to "already expired" nor becomes "no deadline".
  for (double huge :
       {2e13, 1e300, std::numeric_limits<double>::infinity()}) {
    req.deadline_s = huge;
    const std::string bytes_huge = EncodeScoreRequest(req);
    EXPECT_EQ(bytes_huge.substr(8, 8),
              std::string("\xFE\xFF\xFF\xFF\xFF\xFF\xFF\xFF", 8))
        << huge;  // kNoDeadlineUs - 1, little endian
    EXPECT_EQ(DecodeScoreRequest(bytes_huge.data(), bytes_huge.size())
                  .value()
                  .deadline_s,
              static_cast<double>(kNoDeadlineUs - 1) * 1e-6)
        << huge;
  }
  // Just below the saturation point the budget still travels as is.
  req.deadline_s = 1e13;
  const std::string big = EncodeScoreRequest(req);
  EXPECT_DOUBLE_EQ(
      DecodeScoreRequest(big.data(), big.size()).value().deadline_s, 1e13);

  EXPECT_TRUE(DecodeScoreRequest(bytes.data(), bytes.size() - 1)
                  .status()
                  .IsCorruption());
}

TEST(ServeWire, ScoreReplyRoundTripsBitExactly) {
  ScoreReplyWire reply;
  reply.response.score = 0.123456789012345678;  // exercises full mantissa
  reply.response.degraded = true;
  reply.response.from_prefilter = false;
  reply.response.imputed_rows = 3;
  reply.response.latency_s = 0.011;
  reply.response.deadline_slack_s = 0.042;
  const std::string bytes = EncodeScoreReply(reply);
  auto decoded = DecodeScoreReply(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().status.ok());
  EXPECT_EQ(decoded.value().response.score, reply.response.score);
  EXPECT_TRUE(decoded.value().response.degraded);
  EXPECT_FALSE(decoded.value().response.from_prefilter);
  EXPECT_EQ(decoded.value().response.imputed_rows, 3);
  EXPECT_EQ(decoded.value().response.latency_s, reply.response.latency_s);

  ScoreReplyWire error;
  error.status = Status::Unavailable("shed under load");
  const std::string err_bytes = EncodeScoreReply(error);
  auto err = DecodeScoreReply(err_bytes.data(), err_bytes.size());
  ASSERT_TRUE(err.ok());
  EXPECT_TRUE(err.value().status.IsUnavailable());
  EXPECT_EQ(err.value().status.message(), "shed under load");

  // Truncation and length/message disagreement are Corruption, not UB.
  EXPECT_TRUE(DecodeScoreReply(err_bytes.data(), err_bytes.size() - 2)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeScoreReply(err_bytes.data(), 10).status().IsCorruption());
}

TEST(ServeWire, PayloadsEncodeToTheDocumentedBytes) {
  ScoreRequestWire req;
  req.epoch = 3;
  req.deadline_s = 0.5;  // 500000 us
  req.txn_node = -2;
  EXPECT_EQ(EncodeScoreRequest(req),
            std::string("\x03\x00\x00\x00\x00\x00\x00\x00"   // epoch
                        "\x20\xA1\x07\x00\x00\x00\x00\x00"   // deadline_us
                        "\xFE\xFF\xFF\xFF",                     // txn_node
                        20));

  ScoreReplyWire reply;
  reply.status = Status::NotFound("no");
  reply.response.score = 0.5;
  reply.response.imputed_rows = 2;
  reply.response.latency_s = 0.25;
  reply.response.deadline_slack_s = -1.0;
  reply.response.degraded = true;
  reply.response.from_prefilter = false;
  EXPECT_EQ(EncodeScoreReply(reply),
            std::string("\x02\x00\x00\x00"                          // code
                        "\x00\x00\x00\x00\x00\x00\xE0\x3F"      // score
                        "\x02\x00\x00\x00\x00\x00\x00\x00"      // imputed
                        "\x00\x00\x00\x00\x00\x00\xD0\x3F"      // latency
                        "\x00\x00\x00\x00\x00\x00\xF0\xBF"      // slack
                        "\x01\x00"                                  // flags
                        "\x02\x00\x00\x00"                          // msg len
                        "no",
                        44));
}

TEST(ServeWire, HealthRoundTrips) {
  HealthWire health;
  health.generation = 3;
  health.requests_served = 1234;
  const std::string bytes = EncodeHealth(health);
  auto decoded = DecodeHealth(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().generation, 3u);
  EXPECT_EQ(decoded.value().requests_served, 1234);
  EXPECT_TRUE(DecodeHealth(bytes.data(), 3).status().IsCorruption());
}

// Decodes `bytes` from a heap buffer of exactly its length, so a sanitizer
// build catches any read past the end.
template <typename Decode>
Status DecodeExact(const std::string& bytes, Decode decode) {
  const std::vector<unsigned char> buf(bytes.begin(), bytes.end());
  return decode(buf.data(), buf.size()).status();
}

TEST(ServeWire, HostilePayloadsAreCorruptionNeverUndefined) {
  ScoreRequestWire req;
  req.epoch = 5;
  req.deadline_s = 0.25;
  req.txn_node = 17;
  ScoreReplyWire reply;
  reply.status = Status::Unavailable("shed under load");
  reply.response.score = 0.75;
  reply.response.imputed_rows = 2;
  HealthWire health;
  health.generation = 4;
  health.requests_served = 99;
  using DecodeFn = Status (*)(const std::string&);
  const std::vector<std::pair<std::string, DecodeFn>> payloads = {
      {EncodeScoreRequest(req),
       [](const std::string& b) { return DecodeExact(b, DecodeScoreRequest); }},
      {EncodeScoreReply(reply),
       [](const std::string& b) { return DecodeExact(b, DecodeScoreReply); }},
      {EncodeHealth(health),
       [](const std::string& b) { return DecodeExact(b, DecodeHealth); }},
  };
  for (const auto& [bytes, decode] : payloads) {
    ASSERT_TRUE(decode(bytes).ok());
    // Truncated at every offset: Corruption.
    for (size_t n = 0; n < bytes.size(); ++n) {
      EXPECT_TRUE(decode(bytes.substr(0, n)).IsCorruption())
          << bytes.size() << "-byte payload cut to " << n;
    }
    // Every single bit flipped: Corruption, or a decoded value — never a
    // crash or undefined behaviour (the sanitizer builds check the latter).
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      const Status s = decode(flipped);
      EXPECT_TRUE(s.ok() || s.IsCorruption())
          << "bit " << bit << ": " << s.ToString();
    }
  }

  // A reply whose message length disagrees with the bytes that follow it:
  // one too many, the whole payload, the largest u32, and one too few.
  const std::string good = EncodeScoreReply(reply);
  constexpr size_t kLenAt = 38;
  const uint32_t len = static_cast<uint32_t>(reply.status.message().size());
  for (uint32_t bad : {len + 1, static_cast<uint32_t>(good.size()),
                       uint32_t{0xFFFFFFFF}, len - 1}) {
    std::string inflated = good;
    for (int i = 0; i < 4; ++i) {
      inflated[kLenAt + i] = static_cast<char>((bad >> (8 * i)) & 0xFF);
    }
    EXPECT_TRUE(DecodeExact(inflated, DecodeScoreReply).IsCorruption())
        << "message length " << bad;
  }

  // A status code outside the StatusCode enum.
  for (uint32_t code : {uint32_t{11}, uint32_t{0x80000000}, uint32_t{~0u}}) {
    std::string unknown = good;
    for (int i = 0; i < 4; ++i) {
      unknown[i] = static_cast<char>((code >> (8 * i)) & 0xFF);
    }
    EXPECT_TRUE(DecodeExact(unknown, DecodeScoreReply).IsCorruption())
        << "status code " << code;
  }
}

TEST(ServeWire, ServingFrameTypesEncodeAndUnknownTypeRejected) {
  for (FrameType type : {FrameType::kScoreRequest, FrameType::kScoreReply,
                         FrameType::kHealth, FrameType::kDrain}) {
    FrameHeader header;
    header.type = type;
    header.rank = 5;
    header.seq = 99;
    const std::string buf = EncodeFrameHeader(header);
    auto decoded = DecodeFrameHeader(
        reinterpret_cast<const unsigned char*>(buf.data()));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().type, type);
    EXPECT_EQ(decoded.value().seq, 99u);
  }
  FrameHeader beyond;
  beyond.type = static_cast<FrameType>(13);  // one past kDrain
  const std::string buf = EncodeFrameHeader(beyond);
  EXPECT_TRUE(
      DecodeFrameHeader(reinterpret_cast<const unsigned char*>(buf.data()))
          .status()
          .IsCorruption());
}

TEST(ServeWire, PayloadCrcDetectsEverySingleBitFlip) {
  const std::string payload = "the bytes the sender sealed";
  FrameHeader header;
  header.type = FrameType::kScoreRequest;
  SealFramePayload(&header, payload.data(), payload.size());
  ASSERT_TRUE(
      VerifyFramePayload(header, payload.data(), payload.size()).ok());

  // Flip each bit of a few bytes scattered through the payload.
  for (size_t byte : {size_t{0}, payload.size() / 2, payload.size() - 1}) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = payload;
      damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
      EXPECT_TRUE(VerifyFramePayload(header, damaged.data(), damaged.size())
                      .IsCorruption())
          << "byte " << byte << " bit " << bit;
    }
  }
  // Length disagreement is Corruption too, even with a "matching" prefix.
  EXPECT_TRUE(VerifyFramePayload(header, payload.data(), payload.size() - 1)
                  .IsCorruption());
  // Empty payloads carry (and verify) the CRC of nothing.
  FrameHeader empty;
  SealFramePayload(&empty, nullptr, 0);
  EXPECT_TRUE(VerifyFramePayload(empty, nullptr, 0).ok());
}

TEST(ServeWire, FaultPlanServerGrammarRoundTrips) {
  auto plan = fault::FaultPlan::Parse("kill_server=1@3,corrupt_frame=5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().kill_server, 1);
  EXPECT_EQ(plan.value().kill_server_request, 3);
  EXPECT_EQ(plan.value().corrupt_frame, 5);
  EXPECT_TRUE(plan.value().any());
  EXPECT_TRUE(plan.value().has_server_faults());

  // The printed plan replays: Parse(ToString) is the identity.
  auto replayed = fault::FaultPlan::Parse(plan.value().ToString());
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value().ToString(), plan.value().ToString());

  // Default request index is 0 (die on the very first score request).
  auto bare = fault::FaultPlan::Parse("kill_server=2");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().kill_server, 2);
  EXPECT_EQ(bare.value().kill_server_request, 0);

  EXPECT_FALSE(fault::FaultPlan::Parse("kill_server=-1").ok());
  EXPECT_FALSE(fault::FaultPlan::Parse("corrupt_frame=-2").ok());
}

TEST(ServeWire, InjectorWireFaultsAreDeterministic) {
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("seed=9,corrupt_frame=2").value();
  fault::FaultInjector injector(plan);
  EXPECT_EQ(injector.NextWireFrame(), 0);
  EXPECT_FALSE(injector.ShouldCorruptFrame(0));
  EXPECT_FALSE(injector.ShouldCorruptFrame(1));
  EXPECT_TRUE(injector.ShouldCorruptFrame(2));
  EXPECT_EQ(injector.injected_frame_corruptions(), 1);

  // The flipped byte is a pure function of (plan seed, frame index).
  const int64_t byte = injector.CorruptByteFor(2, 20);
  EXPECT_GE(byte, 0);
  EXPECT_LT(byte, 20);
  fault::FaultInjector replay(plan);
  EXPECT_EQ(replay.CorruptByteFor(2, 20), byte);
  EXPECT_EQ(injector.CorruptByteFor(2, 0), -1);  // nothing to flip

  fault::FaultPlan kill = fault::FaultPlan::Parse("kill_server=1@4").value();
  fault::FaultInjector kills(kill);
  EXPECT_TRUE(kills.ShouldKillServer(1, 4));
  EXPECT_FALSE(kills.ShouldKillServer(1, 3));
  EXPECT_FALSE(kills.ShouldKillServer(0, 4));
}

TEST(ServeWire, RouterClampsRetryBackoffToWireDeadline) {
  // Every replica endpoint is a dead unix path: each attempt fails its dial
  // and the router must give up when the request budget is spent — not
  // after max_attempts * max_backoff of sleeping.
  RouterOptions options;
  options.num_shards = 1;
  options.num_replicas = 2;
  dist::Endpoint dead;
  dead.kind = dist::Endpoint::Kind::kUnix;
  dead.path = "/tmp/xf-serve-dead-" + std::to_string(::getpid()) + ".sock";
  options.endpoints = {dead, dead};
  options.deadline_s = 0.3;
  Router router(options);
  WallTimer timer;
  auto scored = router.Score(/*request_id=*/1, /*txn_node=*/0);
  ASSERT_FALSE(scored.ok());
  EXPECT_TRUE(scored.status().IsDeadlineExceeded())
      << scored.status().ToString();
  EXPECT_LT(timer.ElapsedSeconds(), 2.0);
}

// ---- MultiProcessServe: real processes, real SIGKILLs ---------------------

class MultiProcessServe : public ::testing::Test {
 protected:
  static constexpr uint64_t kModelSeed = 77;

  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 400;
    config.num_fraud_rings = 8;
    config.num_stolen_cards = 12;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "serve-mp-test"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  static std::string MakeDir(const std::string& tag) {
    std::string dir =
        "/tmp/xf-smp-" + tag + "-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }

  static core::DetectorConfig DetectorCfg() {
    core::DetectorConfig config;
    config.feature_dim = ds_->graph.feature_dim();
    config.hidden_dim = 16;
    config.num_heads = 2;
    config.num_layers = 2;
    return config;
  }

  static ServiceOptions ServiceCfg() {
    ServiceOptions service;
    service.hops = 2;
    service.fanout = 8;
    service.deadline_s = 5.0;
    return service;
  }

  static SupervisorOptions TierOptions(const std::string& dir, int shards,
                                       int replicas,
                                       const fault::FaultPlan& plan) {
    SupervisorOptions options;
    options.dir = dir;
    options.num_shards = shards;
    options.num_replicas = replicas;
    options.detector = DetectorCfg();
    options.model_seed = kModelSeed;
    options.service = ServiceCfg();
    options.plan = plan;
    return options;
  }

  /// The single-process reference: one WAL with the same content, the same
  /// seed-initialized detector, the same service options — everything a
  /// shard server does, minus the processes and the wire.
  static std::vector<double> ReferenceScores(
      const std::vector<int32_t>& nodes) {
    std::string dir = MakeDir("ref");
    std::filesystem::create_directories(dir);
    auto store = kv::LogKvStore::Open(dir + "/cell.log");
    EXPECT_TRUE(store.ok());
    kv::FeatureStore features(store.value().get());
    EXPECT_TRUE(features.Ingest(ds_->graph).ok());
    auto epoch = store.value()->PublishEpoch();
    EXPECT_TRUE(epoch.ok());
    Rng model_rng(kModelSeed);
    core::XFraudDetector detector(DetectorCfg(), &model_rng);
    ScoringService service(&detector, &features, ServiceCfg());
    std::vector<double> scores;
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto resp = service.ScoreAt(static_cast<int64_t>(i), nodes[i],
                                  /*deadline_s=*/5.0, epoch.value());
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      scores.push_back(resp.ok() ? resp.value().score : -1.0);
    }
    std::filesystem::remove_all(dir);
    return scores;
  }

  static std::vector<int32_t> RequestNodes(size_t n) {
    auto labeled = ds_->graph.LabeledTransactions();
    EXPECT_FALSE(labeled.empty());
    std::vector<int32_t> nodes;
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(labeled[i % labeled.size()]);
    }
    return nodes;
  }

  static data::SimDataset* ds_;
};

data::SimDataset* MultiProcessServe::ds_ = nullptr;

TEST_F(MultiProcessServe, SocketTierMatchesSingleProcessBitIdentically) {
  std::string dir = MakeDir("parity");
  auto sup = Supervisor::Start(ds_->graph,
                               TierOptions(dir, 2, 2, fault::FaultPlan{}));
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();

  const std::vector<int32_t> nodes = RequestNodes(16);
  const std::vector<double> want = ReferenceScores(nodes);

  Router router(sup.value()->MakeRouterOptions());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto resp = router.Score(static_cast<int64_t>(i), nodes[i]);
    ASSERT_TRUE(resp.ok()) << "request " << i << ": "
                           << resp.status().ToString();
    // Bit-identical, not approximately equal: the score crossed the wire as
    // its IEEE-754 bit pattern and the server computed the same pure
    // function of (WAL at epoch, model seed, service seed, request id).
    EXPECT_EQ(resp.value().score, want[i]) << "request " << i;
  }
  EXPECT_EQ(sup.value()->restarts(), 0);
  EXPECT_TRUE(sup.value()->Stop().ok());
  std::filesystem::remove_all(dir);
}

TEST_F(MultiProcessServe, EveryStartOnAReusedDirWritesTheSameFreshCells) {
  // The reference image: the graph ingested into a fresh WAL and published
  // once — what a single-cell tier holds.
  const std::string ref_dir = MakeDir("fresh-ref");
  std::filesystem::create_directories(ref_dir);
  {
    auto store = kv::LogKvStore::Open(ref_dir + "/cell.log");
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(kv::FeatureStore(store.value().get()).Ingest(ds_->graph).ok());
    ASSERT_TRUE(store.value()->PublishEpoch().ok());
  }
  const Result<std::string> want = ReadFileToString(ref_dir + "/cell.log");
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  std::filesystem::remove_all(ref_dir);

  // Two Starts on one dir: the second replaces the first's WALs instead of
  // appending a second copy of the graph and a second epoch.
  const std::string dir = MakeDir("fresh");
  for (int start = 1; start <= 2; ++start) {
    auto sup = Supervisor::Start(ds_->graph,
                                 TierOptions(dir, 2, 2, fault::FaultPlan{}));
    ASSERT_TRUE(sup.ok()) << sup.status().ToString();
    EXPECT_EQ(sup.value()->epoch(), 1u) << "start " << start;
    ASSERT_TRUE(sup.value()->Stop().ok());
    for (int s = 0; s < 2; ++s) {
      for (int r = 0; r < 2; ++r) {
        const std::string path = dir + "/cell_" + std::to_string(s) + "_" +
                                 std::to_string(r) + ".log";
        const Result<std::string> got = ReadFileToString(path);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        // ASSERT_TRUE, not ASSERT_EQ: a mismatch prints the sizes instead
        // of two multi-MiB dumps.
        ASSERT_TRUE(got.value() == want.value())
            << "start " << start << ", " << path << ": "
            << got.value().size() << " vs " << want.value().size()
            << " bytes";
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(MultiProcessServe, KillServerChaosKeepsScoresBitIdentical) {
  // Replica-0 of EVERY shard SIGKILLs itself on its 3rd score request —
  // a real process death mid-load. The router fails over to replica 1; the
  // supervisor respawns the primary (suppress_kill) from its WAL.
  fault::FaultPlan plan =
      fault::FaultPlan::Parse("kill_server=0@2").value();
  const std::vector<int32_t> nodes = RequestNodes(24);
  const std::vector<double> want = ReferenceScores(nodes);

  auto run_tier = [&](const std::string& tag, const fault::FaultPlan& p) {
    std::string dir = MakeDir(tag);
    auto sup = Supervisor::Start(ds_->graph, TierOptions(dir, 2, 2, p));
    EXPECT_TRUE(sup.ok()) << sup.status().ToString();
    Router router(sup.value()->MakeRouterOptions());
    std::vector<double> scores;
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto resp = router.Score(static_cast<int64_t>(i), nodes[i]);
      EXPECT_TRUE(resp.ok()) << "request " << i << ": "
                             << resp.status().ToString();
      scores.push_back(resp.ok() ? resp.value().score : -1.0);
    }
    // Both shards served >= 3 requests, so both replica-0 servers died.
    // Wait out the reap (the monitor observes deaths asynchronously).
    const Deadline reap = Deadline::After(Clock::Real(), 10.0);
    while (sup.value()->kills_observed().size() < 2 && !reap.Expired()) {
      Clock::Real()->SleepFor(0.01);
    }
    EXPECT_EQ(sup.value()->kills_observed().size(), 2u);
    EXPECT_EQ(sup.value()->restarts(), 2);
    EXPECT_TRUE(sup.value()->Stop().ok());
    std::filesystem::remove_all(dir);
    return scores;
  };

  const std::vector<double> chaos_scores = run_tier("chaos", plan);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(chaos_scores[i], want[i]) << "request " << i;
  }

  // Replay from the *printed* plan: the exact same outcome, score for
  // score — the whole point of a declarative chaos grammar.
  fault::FaultPlan replayed =
      fault::FaultPlan::Parse(plan.ToString()).value();
  const std::vector<double> replay_scores = run_tier("replay", replayed);
  EXPECT_EQ(replay_scores, chaos_scores);
}

TEST_F(MultiProcessServe, ExpiredDeadlineIsRejectedServerSideNeverScored) {
  std::string dir = MakeDir("deadline");
  auto sup = Supervisor::Start(ds_->graph,
                               TierOptions(dir, 1, 1, fault::FaultPlan{}));
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  const std::vector<int32_t> nodes = RequestNodes(1);

  // Speak the wire protocol directly so the "deadline expired in flight"
  // race is deterministic: the frame reaches the server with zero budget
  // left. The server must reject it without touching the store.
  const Deadline io = Deadline::After(Clock::Real(), 10.0);
  // The freshly forked server binds its socket after WAL replay; retry the
  // dial until it is listening (the router does this internally).
  auto conn =
      dist::DialEndpoint(sup.value()->endpoint(0, 0), io, Clock::Real());
  while (!conn.ok() && !io.Expired()) {
    Clock::Real()->SleepFor(0.01);
    conn = dist::DialEndpoint(sup.value()->endpoint(0, 0), io, Clock::Real());
  }
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();

  ScoreRequestWire expired;
  expired.epoch = sup.value()->epoch();
  expired.deadline_s = 0.0;  // spent in flight
  expired.txn_node = nodes[0];
  const std::string payload = EncodeScoreRequest(expired);
  FrameHeader header;
  header.type = FrameType::kScoreRequest;
  header.seq = 1;
  ASSERT_TRUE(dist::SendFrame(conn.value().get(), header, payload.data(),
                              payload.size(), io, Clock::Real())
                  .ok());
  auto reply_header =
      dist::RecvFrameHeader(conn.value().get(), io, Clock::Real());
  ASSERT_TRUE(reply_header.ok()) << reply_header.status().ToString();
  std::vector<unsigned char> body;
  ASSERT_TRUE(dist::RecvFramePayload(conn.value().get(), reply_header.value(),
                                     &body, io, Clock::Real())
                  .ok());
  auto reply = DecodeScoreReply(body.data(), body.size());
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply.value().status.IsDeadlineExceeded())
      << reply.value().status.ToString();

  // The same connection and server still score a healthy request — the
  // rejection was per-request, not a crash.
  Router router(sup.value()->MakeRouterOptions());
  auto ok = router.Score(/*request_id=*/0, nodes[0]);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().score, ReferenceScores(nodes)[0]);
  EXPECT_TRUE(sup.value()->Stop().ok());
  std::filesystem::remove_all(dir);
}

TEST_F(MultiProcessServe, CorruptedFrameIsDetectedAndRetried) {
  // The 2nd request frame the router sends gets one payload byte flipped
  // on the wire. The server's CRC check must catch it (never score garbage)
  // and the router must transparently resend.
  fault::FaultPlan plan = fault::FaultPlan::Parse("corrupt_frame=1").value();
  std::string dir = MakeDir("corrupt");
  auto sup =
      Supervisor::Start(ds_->graph, TierOptions(dir, 1, 1, plan));
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();

  const std::vector<int32_t> nodes = RequestNodes(4);
  const std::vector<double> want = ReferenceScores(nodes);
  const int64_t retries_before =
      obs::Registry::Global().counter("serve/router/corrupt_retries")->value();

  Router router(sup.value()->MakeRouterOptions());
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto resp = router.Score(static_cast<int64_t>(i), nodes[i]);
    ASSERT_TRUE(resp.ok()) << "request " << i << ": "
                           << resp.status().ToString();
    EXPECT_EQ(resp.value().score, want[i]) << "request " << i;
  }
  EXPECT_EQ(obs::Registry::Global()
                    .counter("serve/router/corrupt_retries")
                    ->value() -
                retries_before,
            1);
  EXPECT_EQ(sup.value()->injector()->injected_frame_corruptions(), 1);
  EXPECT_EQ(sup.value()->restarts(), 0);  // wire damage is not a death
  EXPECT_TRUE(sup.value()->Stop().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xfraud::serve
