// Tests for the online scoring path: RuleScorer fallback, the replicated
// KV layer (failover, circuit breakers, deadlines), and the end-to-end
// ScoringService under chaos plans. Everything timing-related
// runs on a VirtualClock, so injected seconds of latency replay instantly
// and every assertion is on deterministic values.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/baselines/rule_scorer.h"
#include "xfraud/common/breaker.h"
#include "xfraud/common/check.h"
#include "xfraud/common/clock.h"
#include "xfraud/core/detector.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/data/generator.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/kv/replicated_kv.h"
#include "xfraud/obs/registry.h"
#include "xfraud/serve/scoring_service.h"
#include "xfraud/stream/streaming_topology.h"

namespace xfraud::serve {
namespace {

// ---------------------------------------------------------------------------
// RuleScorer

TEST(RuleScorerTest, PrecisionWeightedVote) {
  std::vector<data::Rule> rules;
  rules.push_back({/*dim=*/0, /*threshold=*/1.0f, /*greater=*/true,
                   /*precision=*/0.9, /*recall=*/0.5});
  rules.push_back({/*dim=*/1, /*threshold=*/0.0f, /*greater=*/false,
                   /*precision=*/0.1, /*recall=*/0.5});
  baselines::RuleScorer scorer(rules);
  // Only the high-precision rule fires: score = 0.9 / (0.9 + 0.1).
  EXPECT_NEAR(scorer.Score({2.0f, 5.0f}), 0.9, 1e-12);
  // Only the low-precision rule fires.
  EXPECT_NEAR(scorer.Score({0.0f, -1.0f}), 0.1, 1e-12);
  // Both fire.
  EXPECT_NEAR(scorer.Score({2.0f, -1.0f}), 1.0, 1e-12);
  // Neither fires.
  EXPECT_NEAR(scorer.Score({0.0f, 5.0f}), 0.0, 1e-12);
}

TEST(RuleScorerTest, NoRulesIsNeutralAndShortRowsDoNotFire) {
  baselines::RuleScorer empty{std::vector<data::Rule>{}};
  EXPECT_NEAR(empty.Score({1.0f, 2.0f}), 0.5, 1e-12);

  std::vector<data::Rule> rules;
  rules.push_back({/*dim=*/5, /*threshold=*/0.0f, /*greater=*/true,
                   /*precision=*/1.0, /*recall=*/1.0});
  baselines::RuleScorer scorer(rules);
  // The rule's dimension is past the end of a truncated/degraded row.
  EXPECT_NEAR(scorer.Score({1.0f}), 0.0, 1e-12);
  EXPECT_NEAR(scorer.Score({}), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Test doubles for the replicated layer

/// KvStore decorator whose Get can be switched to fail and counts every
/// Get it receives. Writes always pass through.
class FlakyKv : public kv::KvStore {
 public:
  explicit FlakyKv(kv::KvStore* inner) : inner_(inner) {}

  Status Put(std::string_view key, std::string_view value) override {
    return inner_->Put(key, value);
  }
  Status Get(std::string_view key, std::string* value) const override {
    gets_.fetch_add(1);
    if (failing_.load()) return Status::IoError("flaky replica down");
    return inner_->Get(key, value);
  }
  Status Delete(std::string_view key) override {
    return inner_->Delete(key);
  }
  int64_t Count() const override { return inner_->Count(); }
  std::vector<std::string> KeysWithPrefix(
      std::string_view prefix) const override {
    return inner_->KeysWithPrefix(prefix);
  }

  void set_failing(bool failing) { failing_.store(failing); }
  int64_t gets() const { return gets_.load(); }

 private:
  kv::KvStore* inner_;
  std::atomic<bool> failing_{false};
  mutable std::atomic<int64_t> gets_{0};
};

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name)->value();
}

struct ReplicatedRig {
  ReplicatedRig(int num_replicas, Clock* clock) {
    for (int i = 0; i < num_replicas; ++i) {
      cells.push_back(std::make_unique<kv::MemKvStore>());
      flaky.push_back(std::make_unique<FlakyKv>(cells.back().get()));
    }
    std::vector<kv::KvStore*> replicas;
    for (auto& f : flaky) replicas.push_back(f.get());
    store = std::make_unique<kv::ReplicatedKvStore>(std::move(replicas),
                                                    clock);
  }

  std::vector<std::unique_ptr<kv::MemKvStore>> cells;
  std::vector<std::unique_ptr<FlakyKv>> flaky;
  std::unique_ptr<kv::ReplicatedKvStore> store;
};

// ---------------------------------------------------------------------------
// ReplicatedKvStore

TEST(ReplicatedKvTest, WritesFanOutToEveryReplica) {
  VirtualClock clock;
  ReplicatedRig rig(3, &clock);
  ASSERT_TRUE(rig.store->Put("k", "v").ok());
  for (auto& cell : rig.cells) {
    std::string value;
    ASSERT_TRUE(cell->Get("k", &value).ok());
    EXPECT_EQ(value, "v");
  }
  ASSERT_TRUE(rig.store->Delete("k").ok());
  for (auto& cell : rig.cells) EXPECT_EQ(cell->Count(), 0);
}

TEST(ReplicatedKvTest, ReadFailsOverAcrossDeadReplicas) {
  VirtualClock clock;
  ReplicatedRig rig(3, &clock);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        rig.store->Put("key" + std::to_string(i), std::to_string(i)).ok());
  }
  // Kill all but replica 2: every key is still readable.
  rig.flaky[0]->set_failing(true);
  rig.flaky[1]->set_failing(true);
  const int64_t failovers_before = CounterValue("kv/replicated/failovers");
  for (int i = 0; i < 20; ++i) {
    std::string value;
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, std::to_string(i));
  }
  EXPECT_GT(CounterValue("kv/replicated/failovers"), failovers_before);
  // NotFound is authoritative — no failover storm for missing keys.
  rig.flaky[0]->set_failing(false);
  rig.flaky[1]->set_failing(false);
  std::string value;
  EXPECT_TRUE(rig.store->Get("missing", &value).IsNotFound());
}

TEST(ReplicatedKvTest, AllReplicasDeadReturnsLastErrorFast) {
  VirtualClock clock;
  ReplicatedRig rig(2, &clock);
  ASSERT_TRUE(rig.store->Put("k", "v").ok());
  rig.flaky[0]->set_failing(true);
  rig.flaky[1]->set_failing(true);
  std::string value;
  Status s = rig.store->Get("k", &value);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
}

TEST(ReplicatedKvTest, AllBreakersOpenReturnsUnavailableWithoutReading) {
  VirtualClock clock;
  ReplicatedRig rig(2, &clock);
  ASSERT_TRUE(rig.store->Put("k", "v").ok());
  rig.flaky[0]->set_failing(true);
  rig.flaky[1]->set_failing(true);
  std::string value;
  // Each read fails on both replicas; kFailuresToOpen of them open both.
  for (int i = 0; i < CircuitBreaker::kFailuresToOpen; ++i) {
    EXPECT_TRUE(rig.store->Get("k", &value).IsIoError());
  }
  using BreakerState = kv::ReplicatedKvStore::BreakerState;
  ASSERT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);
  ASSERT_EQ(rig.store->breaker_state(1), BreakerState::kOpen);

  // Inside the cool-off no replica is admitted: the read is refused
  // without touching either one, and counted as exhausted.
  const int64_t gets_before = rig.flaky[0]->gets() + rig.flaky[1]->gets();
  const int64_t exhausted_before = CounterValue("kv/replicated/exhausted");
  Status s = rig.store->Get("k", &value);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_EQ(rig.flaky[0]->gets() + rig.flaky[1]->gets(), gets_before);
  EXPECT_EQ(CounterValue("kv/replicated/exhausted"), exhausted_before + 1);
}

TEST(ReplicatedKvTest, PutReachesAReplicaWhoseBreakerIsOpen) {
  VirtualClock clock;
  ReplicatedRig rig(2, &clock);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Put("key" + std::to_string(i), "v").ok());
  }
  rig.flaky[0]->set_failing(true);  // reads fail; writes still land
  std::string value;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
  }
  using BreakerState = kv::ReplicatedKvStore::BreakerState;
  ASSERT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);

  ASSERT_TRUE(rig.store->Put("fresh", "w").ok());
  ASSERT_TRUE(rig.cells[0]->Get("fresh", &value).ok());
  EXPECT_EQ(value, "w");
  // The write's outcome arrives while open, so the breaker ignores it.
  EXPECT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);
}

TEST(ReplicatedKvTest, BreakerOpensHalfOpensAndCloses) {
  VirtualClock clock;
  ReplicatedRig rig(2, &clock);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Put("key" + std::to_string(i), "v").ok());
  }
  using BreakerState = kv::ReplicatedKvStore::BreakerState;
  EXPECT_EQ(rig.store->breaker_state(0), BreakerState::kClosed);

  rig.flaky[0]->set_failing(true);
  std::string value;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
  }
  // Enough primary-0 reads failed over to trip replica 0's breaker.
  EXPECT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);
  EXPECT_EQ(rig.store->breaker_state(1), BreakerState::kClosed);

  // While open (cool-off not elapsed on the virtual clock), reads skip the
  // dead replica entirely: no failover cost, state stays open.
  const int64_t failovers_before = CounterValue("kv/replicated/failovers");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_EQ(CounterValue("kv/replicated/failovers"), failovers_before);
  EXPECT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);

  // Heal the replica and expire the cool-off: the next read that would
  // touch replica 0 probes it (half-open) and closes the breaker.
  rig.flaky[0]->set_failing(false);
  clock.Advance(0.06);
  const int64_t closes_before = CounterValue("kv/replicated/breaker_closes");
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_EQ(rig.store->breaker_state(0), BreakerState::kClosed);
  EXPECT_GT(CounterValue("kv/replicated/breaker_closes"), closes_before);
}

TEST(ReplicatedKvTest, FailedProbeReopensTheBreaker) {
  VirtualClock clock;
  ReplicatedRig rig(2, &clock);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Put("key" + std::to_string(i), "v").ok());
  }
  rig.flaky[0]->set_failing(true);
  std::string value;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
  }
  using BreakerState = kv::ReplicatedKvStore::BreakerState;
  ASSERT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);
  // Replica still dead: the half-open probe fails and re-opens.
  clock.Advance(0.06);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(rig.store->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_EQ(rig.store->breaker_state(0), BreakerState::kOpen);
}

TEST(ReplicatedKvTest, ExpiredDeadlineFailsFastWithoutReading) {
  VirtualClock clock;
  ReplicatedRig rig(2, &clock);
  ASSERT_TRUE(rig.store->Put("k", "v").ok());
  Deadline deadline = Deadline::After(&clock, 0.01);
  clock.Advance(0.02);
  DeadlineScope scope(deadline);
  std::string value;
  Status s = rig.store->Get("k", &value);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
}

// ---------------------------------------------------------------------------
// ScoringService rigs

struct ServiceRig {
  ServiceRig(const std::string& plan_spec, int num_shards, int num_replicas,
             ServiceOptions service_options, VirtualClock* clock) {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 150;
    config.num_fraud_rings = 5;
    config.num_stolen_cards = 10;
    config.feature_dim = 16;
    ds = data::TransactionGenerator::Make(config, "serve-test");

    stream::StreamingOptions topo;  // empty dir: cells in a removed temp dir
    topo.num_shards = num_shards;
    topo.num_replicas = num_replicas;
    topo.clock = clock;
    if (!plan_spec.empty()) {
      auto plan = fault::FaultPlan::Parse(plan_spec);
      XF_CHECK(plan.ok());
      topo.plan = plan.value();
    }
    auto opened = stream::StreamingTopology::Open(topo);
    XF_CHECK(opened.ok()) << opened.status().ToString();
    topology = std::move(opened).value();
    XF_CHECK(topology->BulkLoad(ds.graph).ok());

    features = std::make_unique<kv::FeatureStore>(topology->serving());

    core::DetectorConfig model_config;
    model_config.feature_dim = ds.graph.feature_dim();
    model_config.hidden_dim = 8;
    model_config.num_heads = 2;
    model_config.num_layers = 1;
    Rng model_rng(7);
    model = std::make_unique<core::XFraudDetector>(model_config, &model_rng);

    service_options.clock = clock;
    service = std::make_unique<ScoringService>(model.get(), features.get(),
                                               service_options);

    std::vector<data::Rule> rules;
    rules.push_back({/*dim=*/0, /*threshold=*/0.0f, /*greater=*/true,
                     /*precision=*/0.8, /*recall=*/0.4});
    fallback = std::make_unique<baselines::RuleScorer>(rules);
    service->set_fallback(fallback.get());
  }

  data::SimDataset ds;
  std::unique_ptr<stream::StreamingTopology> topology;
  std::unique_ptr<kv::FeatureStore> features;
  std::unique_ptr<core::XFraudDetector> model;
  std::unique_ptr<baselines::RuleScorer> fallback;
  std::unique_ptr<ScoringService> service;
};

TEST(ScoringServiceTest, HealthyPathScoresDeterministically) {
  VirtualClock clock;
  ServiceOptions options;
  ServiceRig rig("", /*num_shards=*/3, /*num_replicas=*/2, options, &clock);
  const int32_t node = rig.ds.test_nodes[0];
  auto a = rig.service->Score(1, node);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_GE(a.value().score, 0.0);
  EXPECT_LE(a.value().score, 1.0);
  EXPECT_FALSE(a.value().degraded);
  EXPECT_FALSE(a.value().from_prefilter);
  // Replaying the same request id reproduces the score bit-for-bit.
  auto b = rig.service->Score(1, node);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().score, b.value().score);
}

// The ServingChaos* suites below are what `tools/ci.sh --mode=faults` runs
// under its replica-failure plan; keep the prefix stable.

TEST(ServingChaosTest, KilledReplicaEveryRequestScoresBitIdentically) {
  auto run = [](std::vector<double>* scores) {
    VirtualClock clock;
    ServiceOptions options;
    ServiceRig rig("seed=11,kill_replica=0", /*num_shards=*/3,
                   /*num_replicas=*/2, options, &clock);
    const int64_t opens_before =
        CounterValue("kv/replicated/breaker_opens");
    for (int i = 0; i < 20; ++i) {
      const int32_t node =
          rig.ds.test_nodes[i % rig.ds.test_nodes.size()];
      auto resp = rig.service->Score(/*request_id=*/i, node);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_FALSE(resp.value().degraded);
      scores->push_back(resp.value().score);
    }
    // The chaos actually bit, and the dead replica's breakers opened
    // visibly in the obs counters.
    EXPECT_GT(rig.topology->injector()->injected_replica_failures(), 0);
    EXPECT_GT(CounterValue("kv/replicated/breaker_opens"), opens_before);
  };
  std::vector<double> first, second;
  run(&first);
  run(&second);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], second[i]) << "request " << i;
  }
}

TEST(ServingChaosTest, EnvPlanAnswersEveryRequestBitIdentically) {
  // `tools/ci.sh --mode=faults` runs this suite under its serving plan in
  // XFRAUD_FAULT_PLAN; unset, the test runs that same plan. A plan must
  // leave every shard a live replica (no kill_shard) for every request to
  // be answerable.
  fault::FaultPlan plan =
      fault::FaultPlan::Parse(
          "seed=20260805,kill_replica=0,kv_error_rate=0.005")
          .value();
  if (std::getenv("XFRAUD_FAULT_PLAN") != nullptr) {
    auto env = fault::FaultPlan::FromEnv();
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    plan = env.value();
  }
  SCOPED_TRACE("plan " + plan.ToString());
  struct Answer {
    double score;
    bool degraded;
  };
  auto run = [&](std::vector<Answer>* answers) {
    VirtualClock clock;
    ServiceOptions options;
    options.shed_policy = ShedPolicy::kDegrade;
    ServiceRig rig(plan.ToString(), /*num_shards=*/3, /*num_replicas=*/2,
                   options, &clock);
    for (int i = 0; i < 40; ++i) {
      const int32_t node = rig.ds.test_nodes[i % rig.ds.test_nodes.size()];
      auto resp = rig.service->Score(/*request_id=*/i, node);
      // Answered: a score, possibly degraded — never a refusal.
      ASSERT_TRUE(resp.ok()) << "request " << i << ": "
                             << resp.status().ToString();
      answers->push_back({resp.value().score, resp.value().degraded});
    }
    if (plan.kill_replica >= 0 || plan.kill_shard >= 0) {
      EXPECT_GT(rig.topology->injector()->injected_replica_failures(), 0);
    }
  };
  std::vector<Answer> first, second;
  run(&first);
  run(&second);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].score, second[i].score) << "request " << i;
    EXPECT_EQ(first[i].degraded, second[i].degraded) << "request " << i;
  }
}

TEST(ServingChaosTest, KilledShardDegradesOrFailsFastNeverHangs) {
  VirtualClock clock;
  ServiceOptions options;
  options.shed_policy = ShedPolicy::kDegrade;
  ServiceRig rig("seed=11,kill_shard=0", /*num_shards=*/3,
                 /*num_replicas=*/2, options, &clock);
  int ok_count = 0;
  int refused = 0;
  int degraded = 0;
  for (int i = 0; i < 30; ++i) {
    const int32_t node = rig.ds.test_nodes[i % rig.ds.test_nodes.size()];
    auto resp = rig.service->Score(/*request_id=*/i, node);
    if (resp.ok()) {
      ++ok_count;
      if (resp.value().degraded) ++degraded;
    } else {
      // Fast refusal is the only acceptable failure mode.
      EXPECT_TRUE(resp.status().IsUnavailable() ||
                  resp.status().IsDeadlineExceeded())
          << resp.status().ToString();
      ++refused;
    }
  }
  EXPECT_EQ(ok_count + refused, 30);
  // A third of the keyspace is gone: the chaos must have been visible.
  EXPECT_GT(degraded + refused, 0);
  EXPECT_GT(rig.topology->injector()->injected_replica_failures(), 0);
}

TEST(ServingChaosTest, DegradedBudgetZeroFailsFastInsteadOfDegrading) {
  VirtualClock clock;
  ServiceOptions options;
  options.shed_policy = ShedPolicy::kDegrade;
  options.max_degraded_frac = 0.0;
  ServiceRig rig("seed=11,kill_shard=0", /*num_shards=*/3,
                 /*num_replicas=*/2, options, &clock);
  for (int i = 0; i < 20; ++i) {
    const int32_t node = rig.ds.test_nodes[i % rig.ds.test_nodes.size()];
    auto resp = rig.service->Score(/*request_id=*/i, node);
    if (resp.ok()) {
      // With a zero budget nothing may come back flagged degraded.
      EXPECT_FALSE(resp.value().degraded);
    } else {
      EXPECT_TRUE(resp.status().IsUnavailable() ||
                  resp.status().IsDeadlineExceeded())
          << resp.status().ToString();
    }
  }
}

TEST(ServingChaosTest, SlowReplicaDeadlineExpiresFast) {
  VirtualClock clock;
  ServiceOptions options;
  options.deadline_s = 0.05;
  options.shed_policy = ShedPolicy::kFailFast;
  // Single replica, every op +10ms: the budget covers only a handful of
  // reads, so the request must come back DeadlineExceeded (fast in real
  // time — the clock is virtual).
  ServiceRig rig("seed=11,slow_replica=0@0.01", /*num_shards=*/2,
                 /*num_replicas=*/1, options, &clock);
  const int32_t node = rig.ds.test_nodes[0];
  auto resp = rig.service->Score(1, node);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded())
      << resp.status().ToString();
  // The virtual clock advanced by roughly the budget, not the full
  // un-deadlined scan.
  EXPECT_LT(clock.NowSeconds(), 0.2);
}

TEST(ServingChaosTest, LatencyIsTheClockAdvanceAcrossScore) {
  VirtualClock clock;
  ServiceOptions options;
  options.deadline_s = 60.0;
  ServiceRig rig("seed=11,slow_replica=0@0.02", /*num_shards=*/2,
                 /*num_replicas=*/2, options, &clock);
  double max_advance = 0.0;
  for (int i = 0; i < 10; ++i) {
    const int32_t node = rig.ds.test_nodes[i % rig.ds.test_nodes.size()];
    const double before = clock.NowSeconds();
    auto resp = rig.service->Score(i, node);
    const double advance = clock.NowSeconds() - before;
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    // The reported latency is what the clock measured across the call,
    // slow-replica reads included.
    EXPECT_EQ(resp.value().latency_s, advance);
    EXPECT_DOUBLE_EQ(resp.value().deadline_slack_s,
                     std::max(0.0, options.deadline_s - advance));
    max_advance = std::max(max_advance, advance);
  }
  // At least one request read through the slow replica.
  EXPECT_GE(max_advance, 0.02);
}

// ---------------------------------------------------------------------------
// Load shedding (needs real concurrency: a gate store blocks the first
// request inside its adjacency reads while a second request arrives).

/// Blocks Get on adjacency keys ("a" prefix) while the gate is closed;
/// metadata, node records, and feature rows pass through, so a prefilter
/// fallback can still read the seed's features while the GNN path hangs.
class GateKv : public kv::KvStore {
 public:
  explicit GateKv(kv::KvStore* inner) : inner_(inner) {}

  Status Put(std::string_view key, std::string_view value) override {
    return inner_->Put(key, value);
  }
  Status Get(std::string_view key, std::string* value) const override {
    if (!key.empty() && key[0] == 'a') {
      std::unique_lock<std::mutex> lock(mu_);
      ++blocked_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
      --blocked_;
    }
    return inner_->Get(key, value);
  }
  Status Delete(std::string_view key) override {
    return inner_->Delete(key);
  }
  int64_t Count() const override { return inner_->Count(); }
  std::vector<std::string> KeysWithPrefix(
      std::string_view prefix) const override {
    return inner_->KeysWithPrefix(prefix);
  }

  void WaitUntilBlocked() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  kv::KvStore* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int blocked_ = 0;
  bool open_ = false;
};

struct ShedRig {
  explicit ShedRig(ServiceOptions service_options) {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 120;
    config.num_fraud_rings = 4;
    config.num_stolen_cards = 8;
    config.feature_dim = 16;
    ds = data::TransactionGenerator::Make(config, "shed-test");

    inner = std::make_unique<kv::MemKvStore>();
    gate = std::make_unique<GateKv>(inner.get());
    {
      kv::FeatureStore ingest(inner.get());
      XF_CHECK(ingest.Ingest(ds.graph).ok());
    }
    features = std::make_unique<kv::FeatureStore>(gate.get());

    core::DetectorConfig model_config;
    model_config.feature_dim = ds.graph.feature_dim();
    model_config.hidden_dim = 8;
    model_config.num_heads = 2;
    model_config.num_layers = 1;
    Rng model_rng(7);
    model = std::make_unique<core::XFraudDetector>(model_config, &model_rng);

    service_options.deadline_s = 0.0;  // the gate, not time, controls flow
    service = std::make_unique<ScoringService>(model.get(), features.get(),
                                               service_options);
    std::vector<data::Rule> rules;
    rules.push_back({/*dim=*/0, /*threshold=*/0.0f, /*greater=*/true,
                     /*precision=*/0.8, /*recall=*/0.4});
    fallback = std::make_unique<baselines::RuleScorer>(rules);
    service->set_fallback(fallback.get());
  }

  data::SimDataset ds;
  std::unique_ptr<kv::MemKvStore> inner;
  std::unique_ptr<GateKv> gate;
  std::unique_ptr<kv::FeatureStore> features;
  std::unique_ptr<core::XFraudDetector> model;
  std::unique_ptr<baselines::RuleScorer> fallback;
  std::unique_ptr<ScoringService> service;
};

TEST(LoadSheddingTest, FailFastShedsPastMaxInflight) {
  ServiceOptions options;
  options.max_inflight = 1;
  options.shed_policy = ShedPolicy::kFailFast;
  ShedRig rig(options);
  const int32_t node = rig.ds.test_nodes[0];

  std::thread first([&] {
    auto resp = rig.service->Score(1, node);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  });
  rig.gate->WaitUntilBlocked();  // request 1 is mid-flight in the sampler

  const int64_t shed_before = CounterValue("serve/shed");
  auto resp = rig.service->Score(2, node);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsUnavailable()) << resp.status().ToString();
  EXPECT_EQ(CounterValue("serve/shed"), shed_before + 1);

  rig.gate->Open();
  first.join();
}

TEST(LoadSheddingTest, DegradePolicyAnswersShedRequestsFromThePrefilter) {
  ServiceOptions options;
  options.max_inflight = 1;
  options.shed_policy = ShedPolicy::kDegrade;
  ShedRig rig(options);
  const int32_t node = rig.ds.test_nodes[0];

  std::thread first([&] {
    auto resp = rig.service->Score(1, node);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  });
  rig.gate->WaitUntilBlocked();

  auto resp = rig.service->Score(2, node);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp.value().degraded);
  EXPECT_TRUE(resp.value().from_prefilter);
  // The prefilter vote over the seed's features, not a GNN score.
  std::vector<float> feat;
  ASSERT_TRUE(rig.features->ReadFeatures(node, &feat).ok());
  EXPECT_EQ(resp.value().score, rig.fallback->Score(feat));

  rig.gate->Open();
  first.join();
}

TEST(LoadSheddingTest, DegradeWithZeroBudgetStillRefuses) {
  ServiceOptions options;
  options.max_inflight = 1;
  options.shed_policy = ShedPolicy::kDegrade;
  options.max_degraded_frac = 0.0;
  ShedRig rig(options);
  const int32_t node = rig.ds.test_nodes[0];

  std::thread first([&] {
    auto resp = rig.service->Score(1, node);
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  });
  rig.gate->WaitUntilBlocked();

  auto resp = rig.service->Score(2, node);
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsUnavailable()) << resp.status().ToString();

  rig.gate->Open();
  first.join();
}

}  // namespace
}  // namespace xfraud::serve
