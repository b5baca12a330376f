// Tests for the streaming ingest tier (DESIGN.md §15): GraphIngestor
// replay equivalence with the offline GraphBuilder path, crash/reattach
// recovery, torn-write retry idempotence, the FanoutEpochSource grid
// protocol, GraphView cache invalidation — and the ContinuousIngest chaos
// suite that tools/ci.sh --mode=faults runs, which asserts the PR's
// acceptance criterion: scores of a pinned epoch are bit-identical under
// kill_replica / torn_write / stall_compaction chaos, while writers and
// the background compactor keep running.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/baselines/rule_scorer.h"
#include "xfraud/common/check.h"
#include "xfraud/common/clock.h"
#include "xfraud/common/rng.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/fault/faulty_kv.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/kv/sharded_kv.h"
#include "xfraud/kv/snapshot.h"
#include "xfraud/serve/scoring_service.h"
#include "xfraud/stream/graph_ingestor.h"
#include "xfraud/stream/streaming_topology.h"

namespace xfraud::stream {
namespace {

std::string TempPath(const std::string& name) {
  std::string path =
      "/tmp/xf-stream-" + std::to_string(::getpid()) + "-" + name;
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  return path;
}

std::string TempDir(const std::string& name) {
  std::string dir =
      "/tmp/xf-stream-" + std::to_string(::getpid()) + "-" + name;
  std::string cmd = "rm -rf " + dir;
  XF_CHECK_EQ(std::system(cmd.c_str()), 0);
  return dir;
}

std::unique_ptr<kv::LogKvStore> OpenOrDie(const std::string& path) {
  auto store = kv::LogKvStore::Open(path);
  XF_CHECK(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

/// A small deterministic transaction workload (~250 txns, 12-d features).
std::vector<graph::TransactionRecord> SmallWorkload() {
  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.num_buyers = 120;
  config.txns_per_buyer_mean = 2.0;
  config.num_fraud_rings = 4;
  config.num_stolen_cards = 8;
  config.feature_dim = 12;
  config.seed = 20260807;
  data::TransactionGenerator gen(config);
  return gen.GenerateRecords();
}

/// Asserts two batches are bit-identical in every materialized field.
void ExpectSameBatch(const graph::MiniBatch& a, const graph::MiniBatch& b) {
  EXPECT_EQ(a.node_types, b.node_types);
  EXPECT_EQ(a.edge_src, b.edge_src);
  EXPECT_EQ(a.edge_dst, b.edge_dst);
  EXPECT_EQ(a.edge_types, b.edge_types);
  EXPECT_EQ(a.target_locals, b.target_locals);
  EXPECT_EQ(a.target_labels, b.target_labels);
  EXPECT_TRUE(a.features.BitwiseEqual(b.features));
}

// ---------------------------------------------------------------------------
// GraphIngestor vs the offline builder

TEST(StreamIngestTest, ReplayedLogMatchesOfflineBuilderBitIdentically) {
  const std::vector<graph::TransactionRecord> records = SmallWorkload();

  // Offline path: freeze the whole log into one graph, bulk-load it.
  data::SimDataset ds = data::TransactionGenerator::BuildDataset(
      records, "offline", 0.7, 0.1, /*split_seed=*/13);
  kv::MemKvStore offline_kv;
  kv::FeatureStore offline(&offline_kv);
  ASSERT_TRUE(offline.Ingest(ds.graph).ok());

  // Streaming path: append the same log, publish once.
  auto log = OpenOrDie(TempPath("replay"));
  GraphIngestor ingestor(log.get(), log.get());
  ASSERT_TRUE(ingestor.Attach().ok());
  for (const auto& r : records) {
    ASSERT_TRUE(ingestor.Append(r).ok()) << r.txn_id;
  }
  auto epoch = ingestor.PublishEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  ASSERT_EQ(epoch.value(), 1u);

  kv::FeatureStore streaming(log.get());
  auto num = streaming.NumNodes(1);
  ASSERT_TRUE(num.ok());
  ASSERT_EQ(num.value(), ds.graph.num_nodes());
  auto dim = streaming.FeatureDim(1);
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ(dim.value(), ds.graph.feature_dim());

  // Every node: type, label, features, and adjacency are bit-identical to
  // what the offline builder produced — same ids, same bytes.
  for (int32_t node = 0; node < ds.graph.num_nodes(); ++node) {
    graph::NodeType ta, tb;
    int8_t la, lb;
    ASSERT_TRUE(offline.ReadNode(node, &ta, &la).ok()) << node;
    ASSERT_TRUE(streaming.ReadNode(node, &tb, &lb, 1).ok()) << node;
    ASSERT_EQ(ta, tb) << node;
    ASSERT_EQ(la, lb) << node;

    std::vector<float> fa, fb;
    Status sa = offline.ReadFeatures(node, &fa);
    Status sb = streaming.ReadFeatures(node, &fb, 1);
    ASSERT_EQ(sa.ok(), sb.ok()) << node;
    if (sa.ok()) {
      ASSERT_EQ(fa, fb) << node;
    }

    std::vector<int32_t> na, nb;
    std::vector<uint8_t> ea, eb;
    ASSERT_TRUE(offline.ReadNeighbors(node, &na, &ea).ok()) << node;
    ASSERT_TRUE(streaming.ReadNeighbors(node, &nb, &eb, 1).ok()) << node;
    ASSERT_EQ(na, nb) << node;
    ASSERT_EQ(ea, eb) << node;
  }

  // Whole sampling walks replay identically too (same RNG stream, same
  // frontier bytes → same batch).
  std::vector<int32_t> seeds = {ingestor.TxnNode(records[0].txn_id),
                                ingestor.TxnNode(records[1].txn_id),
                                ingestor.TxnNode(records[2].txn_id)};
  for (int32_t s : seeds) ASSERT_GE(s, 0);
  Rng rng_a(99), rng_b(99);
  auto batch_a = offline.LoadBatch(seeds, 2, 8, &rng_a, kv::kHeadEpoch);
  auto batch_b = streaming.LoadBatch(seeds, 2, 8, &rng_b, 1);
  ASSERT_TRUE(batch_a.ok()) << batch_a.status().ToString();
  ASSERT_TRUE(batch_b.ok()) << batch_b.status().ToString();
  ExpectSameBatch(batch_a.value(), batch_b.value());
}

TEST(StreamIngestTest, AppendValidatesIdsAndFeatureDim) {
  auto log = OpenOrDie(TempPath("validate"));
  GraphIngestor ingestor(log.get(), log.get());
  ASSERT_TRUE(ingestor.Attach().ok());

  graph::TransactionRecord r;
  r.txn_id = "";
  r.features = {1.0f, 2.0f};
  EXPECT_TRUE(ingestor.Append(r).IsInvalidArgument());

  r.txn_id = "t1";
  r.buyer_id = "b1";
  ASSERT_TRUE(ingestor.Append(r).ok());
  EXPECT_TRUE(ingestor.Append(r).code() == StatusCode::kAlreadyExists);

  graph::TransactionRecord drift;
  drift.txn_id = "t2";
  drift.features = {1.0f, 2.0f, 3.0f};  // dim 3 after dim 2
  EXPECT_TRUE(ingestor.Append(drift).IsInvalidArgument());

  // Buffered (unpublished) txns already resolve through TxnNode.
  EXPECT_EQ(ingestor.TxnNode("t1"), 0);
  EXPECT_EQ(ingestor.TxnNode("missing"), -1);
  EXPECT_EQ(ingestor.buffered(), 1);
}

TEST(StreamIngestTest, AttachRecoversIdMapsAcrossReopen) {
  const std::string path = TempPath("reattach");
  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  const size_t half = records.size() / 2;

  int64_t nodes_after_half = 0;
  {
    auto log = OpenOrDie(path);
    GraphIngestor ingestor(log.get(), log.get());
    ASSERT_TRUE(ingestor.Attach().ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(ingestor.Append(records[i]).ok());
    }
    ASSERT_TRUE(ingestor.PublishEpoch().ok());
    nodes_after_half = ingestor.num_nodes();
  }  // process "crashes" after a clean publish

  auto log = OpenOrDie(path);
  GraphIngestor ingestor(log.get(), log.get());
  ASSERT_TRUE(ingestor.Attach().ok());
  EXPECT_EQ(ingestor.num_nodes(), nodes_after_half);
  // Old ids survive, duplicates are still caught after the restart.
  EXPECT_EQ(ingestor.TxnNode(records[0].txn_id), 0);
  EXPECT_TRUE(ingestor.Append(records[0]).code() == StatusCode::kAlreadyExists);

  // The id sequence continues where it left off and entity interning still
  // dedupes against pre-crash entities.
  for (size_t i = half; i < records.size(); ++i) {
    ASSERT_TRUE(ingestor.Append(records[i]).ok());
  }
  ASSERT_TRUE(ingestor.PublishEpoch().ok());

  // The two-epoch streaming run now matches the one-shot offline build.
  data::SimDataset ds = data::TransactionGenerator::BuildDataset(
      records, "offline", 0.7, 0.1, /*split_seed=*/13);
  EXPECT_EQ(ingestor.num_nodes(), ds.graph.num_nodes());
}

TEST(StreamIngestTest, TornWriteRetryPublishesBitIdenticalEpoch) {
  // A small batch keeps the per-flush KV op count low enough that a
  // retried flush has a real chance of drawing zero faults — the torn
  // rate is per *op*, so huge batches under high rates never converge.
  std::vector<graph::TransactionRecord> records = SmallWorkload();
  records.resize(12);

  // Control: the same appends through a clean store.
  auto clean_log = OpenOrDie(TempPath("torn-clean"));
  GraphIngestor clean(clean_log.get(), clean_log.get());
  ASSERT_TRUE(clean.Attach().ok());
  for (const auto& r : records) ASSERT_TRUE(clean.Append(r).ok());
  ASSERT_TRUE(clean.PublishEpoch().ok());

  // Chaos: every write may be torn (half the value persists, the call
  // errors). PublishEpoch keeps its buffer on failure and the retried
  // flush overwrites the torn remnants in the pending epoch.
  auto plan = fault::FaultPlan::Parse("seed=9,torn_write=0.03");
  ASSERT_TRUE(plan.ok());
  fault::FaultInjector injector(plan.value());
  auto torn_log = OpenOrDie(TempPath("torn-chaos"));
  fault::FaultyKvStore faulty(torn_log.get(), &injector);
  GraphIngestor ingestor(&faulty, torn_log.get());
  ASSERT_TRUE(ingestor.Attach().ok());
  for (const auto& r : records) ASSERT_TRUE(ingestor.Append(r).ok());

  Result<uint64_t> published = ingestor.PublishEpoch();
  int retries = 0;
  while (!published.ok() && retries < 500) {
    ++retries;
    published = ingestor.PublishEpoch();
  }
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published.value(), 1u);
  EXPECT_GT(injector.injected_torn_writes(), 0);
  EXPECT_GT(retries, 0);

  // The committed epoch contains no half-written row: every record is
  // byte-equal to the fault-free control.
  kv::FeatureStore want(clean_log.get());
  kv::FeatureStore got(torn_log.get());
  auto num = got.NumNodes(1);
  ASSERT_TRUE(num.ok());
  ASSERT_EQ(num.value(), want.NumNodes(1).value());
  for (int32_t node = 0; node < num.value(); ++node) {
    std::vector<float> fa, fb;
    Status sa = want.ReadFeatures(node, &fa, 1);
    Status sb = got.ReadFeatures(node, &fb, 1);
    ASSERT_EQ(sa.ok(), sb.ok()) << node;
    if (sa.ok()) {
      ASSERT_EQ(fa, fb) << node;
    }
    std::vector<int32_t> na, nb;
    std::vector<uint8_t> ea, eb;
    ASSERT_TRUE(want.ReadNeighbors(node, &na, &ea, 1).ok()) << node;
    ASSERT_TRUE(got.ReadNeighbors(node, &nb, &eb, 1).ok()) << node;
    ASSERT_EQ(na, nb) << node;
    ASSERT_EQ(ea, eb) << node;
  }
}

TEST(StreamIngestTest, CrashBeforePublishReplaysBitIdentically) {
  const std::string path = TempPath("crash-replay");
  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  const size_t half = records.size() / 2;

  {
    auto log = OpenOrDie(path);
    GraphIngestor ingestor(log.get(), log.get());
    ASSERT_TRUE(ingestor.Attach().ok());
    for (size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(ingestor.Append(records[i]).ok());
    }
    ASSERT_TRUE(ingestor.PublishEpoch().ok());
    // Second batch: force the flush to run (torn write fails it midway),
    // leaving a half-written pending epoch on disk — then "crash" before
    // any retry succeeds.
    auto plan = fault::FaultPlan::Parse("seed=21,torn_write=1");
    ASSERT_TRUE(plan.ok());
    fault::FaultInjector injector(plan.value());
    fault::FaultyKvStore faulty(log.get(), &injector);
    GraphIngestor doomed(&faulty, log.get());
    ASSERT_TRUE(doomed.Attach().ok());
    for (size_t i = half; i < records.size(); ++i) {
      ASSERT_TRUE(doomed.Append(records[i]).ok());
    }
    EXPECT_FALSE(doomed.PublishEpoch().ok());
    EXPECT_GT(injector.injected_torn_writes(), 0);
  }

  // Recovery: Attach drops the torn pending tail and the replayed batch
  // lands with the exact ids the uncrashed run would have assigned.
  auto log = OpenOrDie(path);
  GraphIngestor ingestor(log.get(), log.get());
  ASSERT_TRUE(ingestor.Attach().ok());
  EXPECT_EQ(log->published_epoch(), 1u);
  for (size_t i = half; i < records.size(); ++i) {
    ASSERT_TRUE(ingestor.Append(records[i]).ok()) << records[i].txn_id;
  }
  ASSERT_TRUE(ingestor.PublishEpoch().ok());

  // Same final graph as an offline build of the full log.
  data::SimDataset ds = data::TransactionGenerator::BuildDataset(
      records, "offline", 0.7, 0.1, /*split_seed=*/13);
  kv::MemKvStore offline_kv;
  kv::FeatureStore offline(&offline_kv);
  ASSERT_TRUE(offline.Ingest(ds.graph).ok());
  kv::FeatureStore streaming(log.get());
  ASSERT_EQ(streaming.NumNodes(2).value(), ds.graph.num_nodes());
  for (int32_t node = 0; node < ds.graph.num_nodes(); ++node) {
    std::vector<int32_t> na, nb;
    std::vector<uint8_t> ea, eb;
    ASSERT_TRUE(offline.ReadNeighbors(node, &na, &ea).ok()) << node;
    ASSERT_TRUE(streaming.ReadNeighbors(node, &nb, &eb, 2).ok()) << node;
    ASSERT_EQ(na, nb) << node;
    ASSERT_EQ(ea, eb) << node;
  }
}

// ---------------------------------------------------------------------------
// FanoutEpochSource grid protocol

TEST(StreamIngestTest, FanoutRollsLaggingCellsForwardOnDiscard) {
  StreamingOptions options;
  options.dir = TempDir("fanout");
  options.num_shards = 2;
  options.num_replicas = 2;
  auto topo = StreamingTopology::Open(std::move(options));
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  StreamingTopology* t = topo.value().get();

  graph::TransactionRecord r;
  r.txn_id = "t1";
  r.buyer_id = "b1";
  r.features = {1.0f, 2.0f};
  ASSERT_TRUE(t->ingestor()->Append(r).ok());
  ASSERT_TRUE(t->ingestor()->PublishEpoch().ok());
  ASSERT_EQ(t->epochs()->published_epoch(), 1u);

  // Simulate a crash mid-publish: one cell committed epoch 2, the rest did
  // not. The grid's published epoch is the minimum — still 1.
  ASSERT_TRUE(t->cell(0, 0)->PublishEpoch().ok());
  ASSERT_EQ(t->cell(0, 0)->published_epoch(), 2u);
  EXPECT_EQ(t->epochs()->published_epoch(), 1u);

  // Recovery rolls the lagging cells *forward* to the maximum (their
  // pending tails hold the full epoch) instead of losing the commit.
  ASSERT_TRUE(t->epochs()->DiscardPending().ok());
  EXPECT_EQ(t->epochs()->published_epoch(), 2u);
  for (int s = 0; s < t->num_shards(); ++s) {
    for (int rep = 0; rep < t->num_replicas(); ++rep) {
      EXPECT_EQ(t->cell(s, rep)->published_epoch(), 2u) << s << "," << rep;
    }
  }
  // Epoch 1's data is still intact after realignment.
  EXPECT_EQ(t->features()->NumNodes(1).value(), 2);
}

TEST(StreamIngestTest, BulkLoadFillsEveryReplicaOnceInARemovedTempDir) {
  data::SimDataset ds = data::TransactionGenerator::BuildDataset(
      SmallWorkload(), "bulk", 0.7, 0.1, /*split_seed=*/13);
  kv::MemKvStore reference_kv;
  kv::FeatureStore reference(&reference_kv);
  ASSERT_TRUE(reference.Ingest(ds.graph).ok());

  auto grid_dirs = [] {
    std::set<std::string> dirs;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
      const std::string name = e.path().filename().string();
      if (name.rfind("xfraud-grid-", 0) == 0) dirs.insert(e.path().string());
    }
    return dirs;
  };
  const std::set<std::string> before = grid_dirs();
  std::vector<std::string> created;
  {
    StreamingOptions options;  // empty dir: a private temp dir
    options.num_shards = 3;
    options.num_replicas = 2;
    auto topo = StreamingTopology::Open(std::move(options));
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    StreamingTopology* t = topo.value().get();
    for (const std::string& d : grid_dirs()) {
      if (before.count(d) == 0) created.push_back(d);
    }
    ASSERT_EQ(created.size(), 1u);
    ASSERT_TRUE(t->BulkLoad(ds.graph).ok());
    EXPECT_EQ(t->epochs()->published_epoch(), 1u);
    // The ingestor reattached on top of the loaded graph.
    EXPECT_EQ(t->ingestor()->num_nodes(), ds.graph.num_nodes());

    // Every replica column holds the whole graph: reading each node's
    // features with one replica of every shard dead still matches.
    for (int dead = 0; dead < 2; ++dead) {
      std::vector<kv::KvStore*> column;
      for (int s = 0; s < 3; ++s) column.push_back(t->cell(s, 1 - dead));
      kv::ShardedKvStore view(column);
      kv::FeatureStore features(&view);
      int rows = 0;
      for (int32_t node = 0; node < ds.graph.num_nodes(); ++node) {
        std::vector<float> want, got;
        const Status a = reference.ReadFeatures(node, &want);
        const Status b = features.ReadFeatures(node, &got, 1);
        ASSERT_EQ(a.code(), b.code()) << node << ": " << b.ToString();
        ASSERT_EQ(want, got) << node;
        rows += b.ok() ? 1 : 0;
      }
      EXPECT_GT(rows, 0);
    }

    Status again = t->BulkLoad(ds.graph);
    EXPECT_TRUE(again.IsFailedPrecondition()) << again.ToString();
    EXPECT_EQ(t->epochs()->published_epoch(), 1u);
  }
  EXPECT_FALSE(std::filesystem::exists(created[0])) << created[0];
}

// ---------------------------------------------------------------------------
// GraphView pinning and sampler-cache invalidation

TEST(StreamIngestTest, ViewReleaseEvictsItsEpochFromAdjacencyCache) {
  StreamingOptions options;
  options.dir = TempDir("views");
  auto topo = StreamingTopology::Open(std::move(options));
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  StreamingTopology* t = topo.value().get();

  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(t->ingestor()->Append(records[i]).ok());
  }
  ASSERT_TRUE(t->ingestor()->PublishEpoch().ok());

  auto view = t->OpenView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view.value().epoch(), 1u);
  Rng rng(5);
  auto batch = view.value().LoadBatch({0}, 2, 8, &rng);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_GT(t->adjacency_cache()->entries(), 0);

  // A second view on the same epoch keeps the cache alive past the first
  // release; only the last release evicts the epoch's entries.
  auto view2 = t->OpenView();
  ASSERT_TRUE(view2.ok());
  ASSERT_EQ(view2.value().epoch(), 1u);
  view.value().Release();
  EXPECT_GT(t->adjacency_cache()->entries(), 0);
  view2.value().Release();
  EXPECT_EQ(t->adjacency_cache()->entries(), 0);
}

TEST(StreamIngestTest, ViewPinsEpochAgainstCompactionAndTtl) {
  StreamingOptions options;
  options.dir = TempDir("pins");
  options.num_shards = 1;
  options.num_replicas = 1;
  options.ttl_epochs = 2;
  auto topo = StreamingTopology::Open(std::move(options));
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  StreamingTopology* t = topo.value().get();

  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  size_t next = 0;
  auto publish_batch = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(t->ingestor()->Append(records[next++]).ok());
    }
    ASSERT_TRUE(t->ingestor()->PublishEpoch().ok());
  };
  publish_batch(10);

  auto view = t->OpenView();
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view.value().epoch(), 1u);
  auto nodes_e1 = view.value().NumNodes();
  ASSERT_TRUE(nodes_e1.ok());
  std::vector<float> row_before;
  ASSERT_TRUE(view.value().ReadFeatures(0, &row_before).ok());

  // Publish far past the view's epoch and compact. The pin holds the GC
  // floor at epoch 1, so the view's reads keep returning the same bytes
  // even though unpinned epoch-1 state is TTL-expired for everyone else.
  publish_batch(10);
  publish_batch(10);
  publish_batch(10);
  ASSERT_TRUE(t->epochs()->Compact().ok());
  EXPECT_EQ(view.value().NumNodes().value(), nodes_e1.value());
  std::vector<float> row_after;
  ASSERT_TRUE(view.value().ReadFeatures(0, &row_after).ok());
  EXPECT_EQ(row_before, row_after);

  // Releasing the last view unblocks GC: the next compaction drops epoch 1
  // and pinning it again is refused.
  view.value().Release();
  ASSERT_TRUE(t->epochs()->Compact().ok());
  EXPECT_TRUE(t->epochs()->PinEpoch(1).IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// ContinuousIngest: the chaos-harness suite (tools/ci.sh --mode=faults).

/// Streams records[*next, limit) into `t` in fixed-size batches, retrying
/// PublishEpoch under injected write faults; advances *next.
void StreamIn(StreamingTopology* t,
              const std::vector<graph::TransactionRecord>& records,
              size_t* next, size_t limit, size_t batch) {
  while (*next < limit) {
    for (size_t i = 0; i < batch && *next < limit; ++i) {
      Status s = t->ingestor()->Append(records[(*next)++]);
      XF_CHECK(s.ok()) << s.ToString();
    }
    Result<uint64_t> e = t->ingestor()->PublishEpoch();
    for (int retry = 0; !e.ok() && retry < 500; ++retry) {
      e = t->ingestor()->PublishEpoch();
    }
    XF_CHECK(e.ok()) << e.status().ToString();
  }
}

TEST(ContinuousIngest, PinnedEpochScoresBitIdenticalUnderChaos) {
  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  const size_t kBatch = 25;
  const size_t kLimit = 150;

  // Score a handful of transactions at every published epoch, through a
  // pinned GraphView, on a topology built from `plan_spec`. Returns the
  // number of torn writes the plan injected.
  auto run = [&](const std::string& plan_spec,
                 std::vector<double>* scores) -> int64_t {
    VirtualClock clock;
    StreamingOptions options;
    options.dir = TempDir(plan_spec.empty() ? "chaos-clean" : "chaos-fault");
    options.num_shards = 2;
    options.num_replicas = 2;
    options.clock = &clock;
    if (!plan_spec.empty()) {
      auto plan = fault::FaultPlan::Parse(plan_spec);
      XF_CHECK(plan.ok()) << plan.status().ToString();
      options.plan = plan.value();
    }
    auto topo = StreamingTopology::Open(std::move(options));
    XF_CHECK(topo.ok()) << topo.status().ToString();
    StreamingTopology* t = topo.value().get();

    core::DetectorConfig model_config;
    model_config.feature_dim =
        static_cast<int64_t>(records[0].features.size());
    model_config.hidden_dim = 8;
    model_config.num_heads = 2;
    model_config.num_layers = 1;
    Rng model_rng(7);
    core::XFraudDetector model(model_config, &model_rng);
    serve::ServiceOptions service_options;
    service_options.clock = &clock;
    serve::ScoringService service(&model, t->features(), service_options);

    size_t next = 0;
    for (size_t done = kBatch; done <= kLimit; done += kBatch) {
      StreamIn(t, records, &next, done, kBatch);
      auto view = t->OpenView();
      XF_CHECK(view.ok()) << view.status().ToString();
      XF_CHECK_EQ(view.value().epoch(), t->epochs()->published_epoch());
      for (int i = 0; i < 4; ++i) {
        const int32_t node =
            t->ingestor()->TxnNode(records[done - 1 - i].txn_id);
        XF_CHECK_GE(node, 0);
        auto resp = service.ScoreAt(
            /*request_id=*/static_cast<int64_t>(done * 10 + i), node,
            /*deadline_s=*/0.0, view.value().epoch());
        XF_CHECK(resp.ok()) << resp.status().ToString();
        scores->push_back(resp.value().score);
      }
      // Compact while the view is still pinned, then prove the pinned
      // epoch re-scores bit-identically after GC.
      if (done == kLimit) {
        const int32_t node = t->ingestor()->TxnNode(records[0].txn_id);
        auto before = service.ScoreAt(1, node, 0.0, view.value().epoch());
        XF_CHECK(before.ok()) << before.status().ToString();
        XF_CHECK(t->epochs()->Compact().ok());
        auto after = service.ScoreAt(1, node, 0.0, view.value().epoch());
        XF_CHECK(after.ok()) << after.status().ToString();
        EXPECT_EQ(before.value().score, after.value().score);
      }
    }
    return t->injector() == nullptr ? 0
                                    : t->injector()->injected_torn_writes();
  };

  std::vector<double> clean, chaos;
  run("", &clean);
  const int64_t torn = run(
      "seed=20260805,kill_replica=1,torn_write=0.002,stall_compaction=0.001",
      &chaos);

  // The chaos actually bit on the write path...
  EXPECT_GT(torn, 0);
  // ...and every pinned-epoch score is bit-identical to the clean run's.
  ASSERT_EQ(clean.size(), chaos.size());
  for (size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i], chaos[i]) << "score " << i;
  }
}

TEST(ContinuousIngest, ReopenAfterChaosRecoversLastPublishedEpoch) {
  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  const std::string dir = TempDir("chaos-reopen");
  uint64_t published = 0;
  int64_t nodes = 0;
  {
    StreamingOptions options;
    options.dir = dir;
    auto plan = fault::FaultPlan::Parse("seed=4,torn_write=0.005");
    ASSERT_TRUE(plan.ok());
    options.plan = plan.value();
    auto topo = StreamingTopology::Open(std::move(options));
    ASSERT_TRUE(topo.ok()) << topo.status().ToString();
    StreamingTopology* t = topo.value().get();
    size_t next = 0;
    StreamIn(t, records, &next, 100, 20);
    published = t->epochs()->published_epoch();
    nodes = t->features()->NumNodes(published).value();
    // Leave a half-flushed pending epoch behind, then "crash".
    for (size_t i = 100; i < 120; ++i) {
      ASSERT_TRUE(t->ingestor()->Append(records[i]).ok());
    }
    (void)t->ingestor()->PublishEpoch();  // may fail on a torn write
  }

  StreamingOptions options;
  options.dir = dir;
  auto topo = StreamingTopology::Open(std::move(options));
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  StreamingTopology* t = topo.value().get();
  // Open() reattached: the grid sits on a fully published epoch and the
  // recovered graph is exactly the pre-crash published state.
  EXPECT_GE(t->epochs()->published_epoch(), published);
  EXPECT_EQ(t->features()->NumNodes(published).value(), nodes);
  EXPECT_EQ(t->ingestor()->TxnNode(records[0].txn_id), 0);
}

TEST(ContinuousIngest, ConcurrentReadersSeeNoTornStateUnderCompaction) {
  const std::vector<graph::TransactionRecord> records = SmallWorkload();
  StreamingOptions options;
  options.dir = TempDir("race");
  options.num_shards = 2;
  options.num_replicas = 1;
  auto plan = fault::FaultPlan::Parse("seed=7,stall_compaction=0.0005");
  ASSERT_TRUE(plan.ok());
  options.plan = plan.value();
  auto topo = StreamingTopology::Open(std::move(options));
  ASSERT_TRUE(topo.ok()) << topo.status().ToString();
  StreamingTopology* t = topo.value().get();

  // Writer publishes epochs and records the node count each one committed;
  // readers pin views and check the epoch they got reads back exactly the
  // state the writer published for it — any torn read is a mismatch.
  std::mutex mu;
  std::map<uint64_t, int64_t> nodes_at_epoch;
  std::atomic<bool> done{false};
  std::atomic<int64_t> mismatches{0};
  std::atomic<int64_t> reads{0};

  t->ingestor()->StartCompactor(Clock::Real(), /*interval_s=*/0.001,
                                t->injector());

  std::thread writer([&] {
    size_t next = 0;
    const size_t batch = 5;
    while (next + batch <= records.size()) {
      for (size_t i = 0; i < batch; ++i) {
        Status s = t->ingestor()->Append(records[next++]);
        XF_CHECK(s.ok()) << s.ToString();
      }
      auto e = t->ingestor()->PublishEpoch();
      XF_CHECK(e.ok()) << e.status().ToString();
      std::lock_guard<std::mutex> lock(mu);
      nodes_at_epoch[e.value()] = t->ingestor()->num_nodes();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + r);
      while (!done.load()) {
        auto view = t->OpenView();
        if (!view.ok()) continue;  // nothing published yet
        const uint64_t epoch = view.value().epoch();
        int64_t want = -1;
        {
          std::lock_guard<std::mutex> lock(mu);
          auto it = nodes_at_epoch.find(epoch);
          if (it != nodes_at_epoch.end()) want = it->second;
        }
        auto num = view.value().NumNodes();
        if (!num.ok() || (want >= 0 && num.value() != want)) {
          mismatches.fetch_add(1);
          continue;
        }
        std::vector<float> row;
        if (!view.value().ReadFeatures(0, &row).ok() || row.empty()) {
          mismatches.fetch_add(1);
          continue;
        }
        auto batch = view.value().LoadBatch({0}, 2, 6, &rng);
        if (!batch.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        reads.fetch_add(1);
      }
    });
  }

  writer.join();
  for (auto& th : readers) th.join();
  t->ingestor()->StopCompactor();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_GT(t->ingestor()->compaction_cycles(), 0);
  EXPECT_GT(t->injector()->injected_compaction_stalls(), 0);
  EXPECT_GE(t->epochs()->published_epoch(), 2u);
}

}  // namespace
}  // namespace xfraud::stream
