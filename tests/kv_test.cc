#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include <gtest/gtest.h>

#include "xfraud/common/crc32.h"
#include "xfraud/common/rng.h"
#include "xfraud/data/generator.h"
#include "xfraud/graph/graph_builder.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/kv/replicated_kv.h"
#include "xfraud/kv/sharded_kv.h"
#include "xfraud/sample/sampler.h"

namespace xfraud::kv {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Crc32Test, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

/// The bytewise table loop Crc32 ran before slicing-by-8, kept as the
/// oracle: the sliced loop must give the same CRC for every length and
/// start alignment.
uint32_t BytewiseCrc32(const unsigned char* bytes, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseLoopAtEveryAlignment) {
  constexpr size_t kMaxLen = size_t{4} << 20;
  Rng rng(31);
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.NextBounded(256));
  // Every length up to 72 (the eight-byte steps plus every tail), random
  // lengths up to 4 MiB, and 4 MiB itself.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 72; ++n) lengths.push_back(n);
  for (int i = 0; i < 4; ++i) lengths.push_back(rng.NextBounded(kMaxLen + 1));
  lengths.push_back(kMaxLen);
  for (size_t len : lengths) {
    for (size_t align = 0; align < 8; ++align) {
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(Crc32(p, len), BytewiseCrc32(p, len))
          << "len=" << len << " align=" << align;
    }
  }
}

template <typename MakeStore>
void RunBasicKvContract(MakeStore make) {
  auto store = make();
  std::string value;
  EXPECT_TRUE(store->Get("missing", &value).IsNotFound());
  ASSERT_TRUE(store->Put("a", "1").ok());
  ASSERT_TRUE(store->Put("b", "2").ok());
  ASSERT_TRUE(store->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  // Overwrite.
  ASSERT_TRUE(store->Put("a", "updated").ok());
  ASSERT_TRUE(store->Get("a", &value).ok());
  EXPECT_EQ(value, "updated");
  EXPECT_EQ(store->Count(), 2);
  // Delete.
  ASSERT_TRUE(store->Delete("a").ok());
  EXPECT_TRUE(store->Get("a", &value).IsNotFound());
  EXPECT_EQ(store->Count(), 1);
  // Prefix scan.
  ASSERT_TRUE(store->Put("pfx1", "x").ok());
  ASSERT_TRUE(store->Put("pfx2", "y").ok());
  auto keys = store->KeysWithPrefix("pfx");
  EXPECT_EQ(keys.size(), 2u);
  // Empty values round-trip.
  ASSERT_TRUE(store->Put("empty", "").ok());
  ASSERT_TRUE(store->Get("empty", &value).ok());
  EXPECT_EQ(value, "");
  // Binary-safe values.
  std::string binary("\x00\x01\xFF\x00zz", 6);
  ASSERT_TRUE(store->Put("bin", binary).ok());
  ASSERT_TRUE(store->Get("bin", &value).ok());
  EXPECT_EQ(value, binary);
}

TEST(MemKvTest, BasicContract) {
  RunBasicKvContract([] { return std::make_unique<MemKvStore>(); });
}

TEST(ShardedKvTest, BasicContract) {
  RunBasicKvContract([] { return ShardedKvStore::InMemory(4); });
}

TEST(LogKvTest, BasicContract) {
  std::string path = TempPath("log_basic.kv");
  std::remove(path.c_str());
  RunBasicKvContract([&] {
    auto r = LogKvStore::Open(path);
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  });
}

TEST(LogKvTest, RecordsEncodeToTheDocumentedBytes) {
  std::string path = TempPath("log_bytes.kv");
  std::remove(path.c_str());
  {
    auto store = std::move(LogKvStore::Open(path).value());
    ASSERT_TRUE(store->Put("k", "vv").ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  // {crc u32, kind u8, klen u32, vlen u32, key, value}; the CRC covers
  // everything after itself.
  const std::string put("\x51\x6A\xE0\x32"   // crc
                        "\x01"                // kind: put
                        "\x01\x00\x00\x00"   // klen
                        "\x02\x00\x00\x00"   // vlen
                        "kvv",
                        16);
  const std::string marker("\x59\xDC\xD3\x50"                    // crc
                           "\x03"                                 // epoch
                           "\x00\x00\x00\x00"                    // klen
                           "\x08\x00\x00\x00"                    // vlen
                           "\x01\x00\x00\x00\x00\x00\x00\x00",  // epoch 1
                           21);
  EXPECT_EQ(bytes, put + marker);
}

TEST(LogKvTest, PersistsAcrossReopen) {
  std::string path = TempPath("log_reopen.kv");
  std::remove(path.c_str());
  {
    auto store = std::move(LogKvStore::Open(path).value());
    ASSERT_TRUE(store->Put("k1", "v1").ok());
    ASSERT_TRUE(store->Put("k2", "v2").ok());
    ASSERT_TRUE(store->Delete("k1").ok());
    ASSERT_TRUE(store->Put("k2", "v2b").ok());
  }
  auto store = std::move(LogKvStore::Open(path).value());
  std::string value;
  EXPECT_TRUE(store->Get("k1", &value).IsNotFound());
  ASSERT_TRUE(store->Get("k2", &value).ok());
  EXPECT_EQ(value, "v2b");
  EXPECT_EQ(store->Count(), 1);
}

TEST(LogKvTest, SurvivesTruncatedTail) {
  std::string path = TempPath("log_trunc.kv");
  std::remove(path.c_str());
  {
    auto store = std::move(LogKvStore::Open(path).value());
    ASSERT_TRUE(store->Put("good", "value").ok());
    ASSERT_TRUE(store->Put("partial", "this record will be cut").ok());
  }
  // Simulate a crash mid-append: cut the last 7 bytes.
  {
    std::filesystem::path p(path);
    auto size = std::filesystem::file_size(p);
    std::filesystem::resize_file(p, size - 7);
  }
  auto store = std::move(LogKvStore::Open(path).value());
  std::string value;
  ASSERT_TRUE(store->Get("good", &value).ok());
  EXPECT_EQ(value, "value");
  EXPECT_TRUE(store->Get("partial", &value).IsNotFound());
  // The store stays writable after recovery.
  ASSERT_TRUE(store->Put("after", "crash").ok());
  ASSERT_TRUE(store->Get("after", &value).ok());
  EXPECT_EQ(value, "crash");
}

TEST(LogKvTest, SurvivesTailTornInsideTheRecordHeader) {
  std::string path = TempPath("log_torn_header.kv");
  std::remove(path.c_str());
  int64_t size_before_tail = 0;
  {
    auto store = std::move(LogKvStore::Open(path).value());
    ASSERT_TRUE(store->Put("good", "value").ok());
    size_before_tail = store->FileSize();
    ASSERT_TRUE(store->Put("tail", "never lands").ok());
  }
  // Crash so early in the append that not even the fixed-size record
  // header made it to disk — a shorter tear than a cut payload.
  std::filesystem::resize_file(std::filesystem::path(path),
                               static_cast<uintmax_t>(size_before_tail + 5));
  auto store = std::move(LogKvStore::Open(path).value());
  std::string value;
  ASSERT_TRUE(store->Get("good", &value).ok());
  EXPECT_EQ(value, "value");
  EXPECT_TRUE(store->Get("tail", &value).IsNotFound());
  // Recovery dropped the torn tail; new appends land on a clean boundary.
  ASSERT_TRUE(store->Put("after", "crash").ok());
  ASSERT_TRUE(store->Get("after", &value).ok());
  EXPECT_EQ(value, "crash");
}

TEST(LogKvTest, IgnoresStaleCompactFileLeftByACrash) {
  std::string path = TempPath("log_stale_compact.kv");
  std::string stale = path + ".compact";
  std::remove(path.c_str());
  std::remove(stale.c_str());
  {
    auto store = std::move(LogKvStore::Open(path).value());
    ASSERT_TRUE(store->Put("live", "data").ok());
  }
  // A crash between writing "<path>.compact" and the rename leaves a stale
  // compacted image behind. Make it a fully valid log with different
  // contents, so replaying it by mistake would be visible.
  {
    auto ghost = std::move(LogKvStore::Open(stale).value());
    ASSERT_TRUE(ghost->Put("ghost", "should never be served").ok());
  }
  auto store = std::move(LogKvStore::Open(path).value());
  std::string value;
  ASSERT_TRUE(store->Get("live", &value).ok());
  EXPECT_EQ(value, "data");
  EXPECT_TRUE(store->Get("ghost", &value).IsNotFound());
  // Reopen also cleaned the stale file up, so a later Compact's tmp write
  // starts from a clean slate.
  EXPECT_FALSE(std::filesystem::exists(stale));
  auto reclaimed = store->Compact();
  ASSERT_TRUE(reclaimed.ok());
  ASSERT_TRUE(store->Get("live", &value).ok());
  EXPECT_EQ(value, "data");
}

TEST(LogKvTest, DetectsCorruptPayload) {
  std::string path = TempPath("log_corrupt.kv");
  std::remove(path.c_str());
  {
    auto store = std::move(LogKvStore::Open(path).value());
    ASSERT_TRUE(store->Put("k", "AAAAAAAA").ok());
  }
  // Flip a payload byte: CRC must reject the record.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    f.put('X');
  }
  auto store = std::move(LogKvStore::Open(path).value());
  std::string value;
  EXPECT_TRUE(store->Get("k", &value).IsNotFound());
}

TEST(LogKvTest, CompactReclaimsSpace) {
  std::string path = TempPath("log_compact.kv");
  std::remove(path.c_str());
  auto store = std::move(LogKvStore::Open(path).value());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store->Put("key", "version" + std::to_string(i)).ok());
  }
  int64_t before = store->FileSize();
  auto reclaimed = store->Compact();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(reclaimed.value(), 0);
  EXPECT_LT(store->FileSize(), before);
  std::string value;
  ASSERT_TRUE(store->Get("key", &value).ok());
  EXPECT_EQ(value, "version49");
  // Still writable and persistent post-compact.
  ASSERT_TRUE(store->Put("key2", "x").ok());
  ASSERT_TRUE(store->Get("key2", &value).ok());
}

TEST(LogKvTest, ConcurrentReaders) {
  std::string path = TempPath("log_concurrent.kv");
  std::remove(path.c_str());
  auto store = std::move(LogKvStore::Open(path).value());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store
                    ->Put("key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  std::atomic<int> errors{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; i < 2000; i += kReaders) {
        std::string value;
        int k = i % 200;
        Status s = store->Get("key" + std::to_string(k), &value);
        if (!s.ok() || value != "value" + std::to_string(k)) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(errors.load(), 0);
}

TEST(ShardedKvTest, SpreadsKeysAcrossShards) {
  std::vector<std::unique_ptr<KvStore>> shards;
  std::vector<MemKvStore*> raw;
  for (int i = 0; i < 4; ++i) {
    auto s = std::make_unique<MemKvStore>();
    raw.push_back(s.get());
    shards.push_back(std::move(s));
  }
  ShardedKvStore store(std::move(shards));
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store.Put("key" + std::to_string(i), "v").ok());
  }
  // Every shard holds a nontrivial portion.
  for (auto* s : raw) {
    EXPECT_GT(s->Count(), 40);
  }
  EXPECT_EQ(store.Count(), 400);
}

class FeatureStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 200;
    config.num_fraud_rings = 6;
    config.num_stolen_cards = 10;
    ds_ = data::TransactionGenerator::Make(config, "kv-test");
    store_ = ShardedKvStore::InMemory(4);
    feature_store_ = std::make_unique<FeatureStore>(store_.get());
    ASSERT_TRUE(feature_store_->Ingest(ds_.graph).ok());
  }

  data::SimDataset ds_;
  std::unique_ptr<ShardedKvStore> store_;
  std::unique_ptr<FeatureStore> feature_store_;
};

TEST(FeatureStoreRowsTest, RowsEncodeToTheDocumentedBytes) {
  graph::GraphBuilder builder;
  graph::TransactionRecord txn;
  txn.txn_id = "t1";
  txn.buyer_id = "b1";
  txn.features = {1.0f, -2.0f};
  txn.label = graph::kLabelFraud;
  ASSERT_TRUE(builder.AddTransaction(txn).ok());
  MemKvStore store;
  FeatureStore fs(&store);
  ASSERT_TRUE(fs.Ingest(builder.Build()).ok());  // txn = node 0, buyer = 1

  auto row = [&store](const std::string& key) {
    std::string value;
    EXPECT_TRUE(store.Get(key, &value).ok()) << key;
    return value;
  };
  EXPECT_EQ(row("m"), std::string("\x02\x00\x00\x00\x00\x00\x00\x00"
                                  "\x02\x00\x00\x00\x00\x00\x00\x00",
                                  16));
  EXPECT_EQ(row("n0"), std::string("\x00\x01\x01", 3));  // txn, fraud, feats
  EXPECT_EQ(row("n1"), std::string("\x04\xFF\x00", 3));  // buyer, unknown
  EXPECT_EQ(row("f0"), std::string("\x00\x00\x80\x3F\x00\x00\x00\xC0", 8));
  EXPECT_EQ(row("a0"), std::string("\x01\x00\x00\x00\x07", 5));  // BuyerToTxn
  EXPECT_EQ(row("a1"), std::string("\x00\x00\x00\x00\x06", 5));  // TxnToBuyer
}

TEST_F(FeatureStoreTest, MetadataRoundTrip) {
  auto n = feature_store_->NumNodes();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), ds_.graph.num_nodes());
  auto dim = feature_store_->FeatureDim();
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ(dim.value(), ds_.graph.feature_dim());
}

TEST_F(FeatureStoreTest, FeaturesMatchGraph) {
  for (int32_t v : ds_.graph.LabeledTransactions()) {
    std::vector<float> feat;
    ASSERT_TRUE(feature_store_->ReadFeatures(v, &feat).ok());
    ASSERT_EQ(static_cast<int64_t>(feat.size()), ds_.graph.feature_dim());
    const float* expected = ds_.graph.Features(v);
    for (size_t i = 0; i < feat.size(); ++i) {
      EXPECT_EQ(feat[i], expected[i]);
    }
    if (v > 100) break;  // spot-check a handful
  }
}

TEST_F(FeatureStoreTest, EntityNodesHaveNoFeatures) {
  auto buyers = ds_.graph.NodesOfType(graph::NodeType::kBuyer);
  ASSERT_FALSE(buyers.empty());
  std::vector<float> feat;
  EXPECT_TRUE(feature_store_->ReadFeatures(buyers[0], &feat).IsNotFound());
}

TEST_F(FeatureStoreTest, AdjacencyMatchesGraph) {
  int32_t v = ds_.graph.LabeledTransactions()[0];
  std::vector<int32_t> neighbors;
  std::vector<uint8_t> etypes;
  ASSERT_TRUE(feature_store_->ReadNeighbors(v, &neighbors, &etypes).ok());
  ASSERT_EQ(static_cast<int64_t>(neighbors.size()), ds_.graph.InDegree(v));
  for (size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_EQ(neighbors[i],
              ds_.graph.neighbors()[ds_.graph.InDegreeBegin(v) + i]);
    EXPECT_EQ(etypes[i],
              static_cast<uint8_t>(
                  ds_.graph.edge_types()[ds_.graph.InDegreeBegin(v) + i]));
  }
}

TEST_F(FeatureStoreTest, LoadBatchMatchesDirectSampling) {
  std::vector<int32_t> seeds(ds_.train_nodes.begin(),
                             ds_.train_nodes.begin() + 8);
  Rng rng(3);
  auto batch = feature_store_->LoadBatch(seeds, /*hops=*/2, /*fanout=*/-1,
                                         &rng, kHeadEpoch);
  ASSERT_TRUE(batch.ok());
  const auto& b = batch.value();
  EXPECT_EQ(b.target_locals.size(), seeds.size());
  // Same node set as the graph-native sampler with unlimited fanout.
  sample::SageSampler sampler(2, 1 << 30);
  Rng rng2(3);
  auto direct = sampler.SampleBatch(ds_.graph, seeds, &rng2);
  EXPECT_EQ(b.num_nodes(), direct.num_nodes());
  EXPECT_EQ(b.num_edges(), direct.num_edges());
  // Labels agree.
  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(b.target_labels[i], direct.target_labels[i]);
  }
}

TEST(ReplicatedKvTest, BasicContract) {
  RunBasicKvContract([] { return ReplicatedKvStore::InMemory(3); });
}

TEST(ShardedKvTest, KeysWithPrefixSortedRegardlessOfShardLayout) {
  // Keys deliberately inserted out of order, with decoys that share a
  // shorter prefix.
  std::vector<std::string> keys = {"pfx9", "pfx10", "pfx1", "pfx5",
                                   "pfx2", "pfx77", "pfx0", "pfx42"};
  std::vector<std::string> expected = keys;
  std::sort(expected.begin(), expected.end());

  std::vector<std::string> reference;
  for (int num_shards : {1, 2, 5}) {
    auto store = ShardedKvStore::InMemory(num_shards);
    ASSERT_TRUE(store->Put("other", "x").ok());
    ASSERT_TRUE(store->Put("pf", "x").ok());
    for (const auto& k : keys) ASSERT_TRUE(store->Put(k, "v").ok());
    std::vector<std::string> got = store->KeysWithPrefix("pfx");
    // Sorted ascending, independent of how keys hashed across shards.
    EXPECT_EQ(got, expected) << num_shards << " shards";
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << num_shards << " shards";
    }
  }
}

TEST(KeysWithPrefixContract, EveryStoreReturnsSortedKeys) {
  auto check = [](KvStore* store) {
    for (const char* k : {"b2", "a1", "b1", "a9", "a10", "c"}) {
      ASSERT_TRUE(store->Put(k, "v").ok());
    }
    std::vector<std::string> all = store->KeysWithPrefix("");
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(all.size(), 6u);
    std::vector<std::string> a = store->KeysWithPrefix("a");
    EXPECT_EQ(a, (std::vector<std::string>{"a1", "a10", "a9"}));
  };
  MemKvStore mem;
  check(&mem);
  auto sharded = ShardedKvStore::InMemory(3);
  check(sharded.get());
  auto replicated = ReplicatedKvStore::InMemory(2);
  check(replicated.get());
  std::string path = TempPath("prefix_sorted.kv");
  std::remove(path.c_str());
  auto log = LogKvStore::Open(path);
  ASSERT_TRUE(log.ok());
  check(log.value().get());
}

}  // namespace
}  // namespace xfraud::kv
