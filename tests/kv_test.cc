#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"
#include "xfraud/common/rng.h"
#include "xfraud/data/generator.h"
#include "xfraud/graph/graph_builder.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/kv/replicated_kv.h"
#include "xfraud/kv/sharded_kv.h"
#include "xfraud/obs/registry.h"
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

/// The value the growth tests write under key `i`: `size` bytes that differ
/// per key, so a read served from the wrong offset cannot pass.
std::string PatternValue(int i, size_t size) {
  std::string value(size, '\0');
  Rng rng(static_cast<uint64_t>(i) + 1);
  for (char& c : value) c = static_cast<char>(rng.NextBounded(256));
  return value;
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
  // A writer appends 40 values of 64 KiB while the readers run, so the
  // read mapping grows across the 1 MiB and 2 MiB capacity boundaries
  // under their feet.
  constexpr int kBigValues = 40;
  constexpr size_t kBigSize = size_t{64} << 10;
  std::vector<std::string> big;
  for (int i = 0; i < kBigValues; ++i) big.push_back(PatternValue(i, kBigSize));
  std::atomic<bool> writer_done{false};
  std::atomic<int> errors{0};
  std::thread writer([&] {
    for (int i = 0; i < kBigValues; ++i) {
      if (!store->Put("big" + std::to_string(i), big[i]).ok()) {
        errors.fetch_add(1);
      }
    }
    writer_done.store(true);
  });
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int i = t; i < 2000 || !writer_done.load(); i += kReaders) {
        std::string value;
        int k = i % 200;
        Status s = store->Get("key" + std::to_string(k), &value);
        if (!s.ok() || value != "value" + std::to_string(k)) {
          errors.fetch_add(1);
        }
        // A big value is either not written yet or whole.
        int b = i % kBigValues;
        s = store->Get("big" + std::to_string(b), &value);
        if (!(s.IsNotFound() || (s.ok() && value == big[b]))) {
          errors.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(store->FileSize(), int64_t{2} << 20);
}

/// Remaps a bulk load of `file_size` bytes may take: the first mapping plus
/// one per capacity doubling past 1 MiB, i.e. ceil(log2(size / 1 MiB)) + 1.
int64_t RemapBudget(int64_t file_size) {
  int64_t budget = 1;
  for (int64_t capacity = int64_t{1} << 20; capacity < file_size;
       capacity *= 2) {
    ++budget;
  }
  return budget;
}

int64_t RemapCount() {
  return obs::Registry::Global().counter("kv/remaps")->value();
}

/// The rows FeatureStore::Ingest writes, one Put each, in Ingest's order:
/// the per-record load its single PutBatch must match byte for byte.
Status PutEachRecord(const graph::HeteroGraph& g, KvStore* store) {
  XF_RETURN_IF_ERROR(
      store->Put(kMetaKey, EncodeMetaRow(g.num_nodes(), g.feature_dim())));
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    XF_RETURN_IF_ERROR(store->Put(
        NodeKey(v), EncodeNodeRow(g.node_type(v), g.label(v),
                                  g.HasFeatures(v))));
    if (g.HasFeatures(v)) {
      XF_RETURN_IF_ERROR(store->Put(
          FeatKey(v), EncodeFeatureRow(g.Features(v), g.feature_dim())));
    }
    std::string adj;
    for (int64_t e = g.InDegreeBegin(v); e < g.InDegreeEnd(v); ++e) {
      AppendAdjEntry(g.neighbors()[e],
                     static_cast<uint8_t>(g.edge_types()[e]), &adj);
    }
    XF_RETURN_IF_ERROR(store->Put(AdjKey(v), adj));
  }
  return Status::OK();
}

TEST(LogKvTest, BulkLoadRemapsLogarithmically) {
  data::SimDataset ds = data::TransactionGenerator::Make(
      data::TransactionGenerator::SimSmall(), "remaps");
  std::string path = TempPath("log_bulk_remaps.kv");
  std::remove(path.c_str());
  auto store = std::move(LogKvStore::Open(path).value());
  int64_t before = RemapCount();
  ASSERT_TRUE(PutEachRecord(ds.graph, store.get()).ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  const int64_t remaps = RemapCount() - before;
  // sim-small writes a few MiB into one cell, so a load one record at a
  // time crosses at least one capacity boundary.
  ASSERT_GT(store->FileSize(), int64_t{1} << 20);
  EXPECT_GE(remaps, 2);
  EXPECT_LE(remaps, RemapBudget(store->FileSize()))
      << "file size " << store->FileSize();
  const int64_t loaded_size = store->FileSize();
  store.reset();

  // Ingest appends the same records as one batch, whose single write maps
  // the file once, at its final capacity.
  std::remove(path.c_str());
  store = std::move(LogKvStore::Open(path).value());
  before = RemapCount();
  FeatureStore features(store.get());
  ASSERT_TRUE(features.Ingest(ds.graph).ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  EXPECT_EQ(store->FileSize(), loaded_size);
  EXPECT_EQ(RemapCount() - before, 1);
  auto dim = features.FeatureDim();
  ASSERT_TRUE(dim.ok());
  EXPECT_EQ(dim.value(), ds.graph.feature_dim());
  store.reset();
  std::remove(path.c_str());
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Expects `a` and `b` to read alike: Count, the head and every readable
/// epoch's KeysWithPrefix, and Get / GetAt of every key either ever lists.
void ExpectSameReads(const LogKvStore& a, const LogKvStore& b) {
  ASSERT_EQ(a.published_epoch(), b.published_epoch());
  ASSERT_EQ(a.earliest_epoch(), b.earliest_epoch());
  ASSERT_EQ(a.Count(), b.Count());
  std::vector<std::string> keys = a.KeysWithPrefix("");
  ASSERT_EQ(keys, b.KeysWithPrefix(""));
  std::vector<uint64_t> epochs;
  for (uint64_t e = a.earliest_epoch(); e <= a.published_epoch(); ++e) {
    std::vector<std::string> at = a.KeysWithPrefixAt("", e);
    ASSERT_EQ(at, b.KeysWithPrefixAt("", e)) << "epoch " << e;
    keys.insert(keys.end(), at.begin(), at.end());
    epochs.push_back(e);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::string va, vb;
  for (const std::string& key : keys) {
    Status sa = a.Get(key, &va);
    Status sb = b.Get(key, &vb);
    ASSERT_EQ(sa.code(), sb.code()) << key;
    if (sa.ok()) {
      ASSERT_EQ(va, vb) << key;
    }
    for (uint64_t e : epochs) {
      sa = a.GetAt(key, e, &va);
      sb = b.GetAt(key, e, &vb);
      ASSERT_EQ(sa.code(), sb.code()) << key << " at epoch " << e;
      if (sa.ok()) {
        ASSERT_EQ(va, vb) << key << " at epoch " << e;
      }
    }
  }
}

/// Applies `records` to `batched` as one PutBatch and to `looped` one Put
/// at a time.
void PutBoth(LogKvStore* batched, LogKvStore* looped,
             const std::vector<KvRecord>& records) {
  ASSERT_TRUE(batched->PutBatch(records).ok());
  for (const KvRecord& record : records) {
    ASSERT_TRUE(looped->Put(record.key, record.value).ok());
  }
}

TEST(LogKvTest, BatchedIngestWritesTheBytesOfAPutLoop) {
  data::SimDataset ds = data::TransactionGenerator::Make(
      data::TransactionGenerator::SimSmall(), "batch-bytes");
  const std::string batched_path = TempPath("log_batched.kv");
  const std::string looped_path = TempPath("log_looped.kv");
  for (const std::string& p : {batched_path, looped_path}) {
    std::remove(p.c_str());
    std::remove((p + ".compact").c_str());
  }
  auto batched = std::move(LogKvStore::Open(batched_path).value());
  auto looped = std::move(LogKvStore::Open(looped_path).value());
  // Whole-file comparisons go through ASSERT_TRUE: on a mismatch the
  // message gives the sizes instead of two multi-MiB dumps.
  auto expect_same_files = [&](const std::string& what) {
    const std::string a = FileBytes(batched_path);
    const std::string b = FileBytes(looped_path);
    ASSERT_TRUE(a == b) << what << ": " << a.size() << " vs " << b.size()
                        << " bytes";
  };

  ASSERT_TRUE(FeatureStore(batched.get()).Ingest(ds.graph).ok());
  ASSERT_TRUE(PutEachRecord(ds.graph, looped.get()).ok());
  ASSERT_TRUE(batched->PublishEpoch().ok());
  ASSERT_TRUE(looped->PublishEpoch().ok());
  ASSERT_GT(batched->FileSize(), int64_t{1} << 20);
  expect_same_files("ingest");
  ExpectSameReads(*batched, *looped);

  // A repeated key lands as the same Puts would: the last value wins, in
  // place within the pending epoch.
  PutBoth(batched.get(), looped.get(),
          {{NodeKey(0), "first"}, {"x", "y"}, {NodeKey(0), "second"},
           {"x", ""}});
  expect_same_files("repeated key");
  ExpectSameReads(*batched, *looped);
  std::string value;
  ASSERT_TRUE(batched->Get(NodeKey(0), &value).ok());
  EXPECT_EQ(value, "second");

  // A batch after a delete and a publish, putting the deleted keys back.
  for (LogKvStore* store : {batched.get(), looped.get()}) {
    ASSERT_TRUE(store->Delete("x").ok());
    ASSERT_TRUE(store->Delete(AdjKey(1)).ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
  }
  PutBoth(batched.get(), looped.get(),
          {{"x", "back"}, {AdjKey(1), PatternValue(1, 300)},
           {"fresh", PatternValue(2, 5000)}});
  for (LogKvStore* store : {batched.get(), looped.get()}) {
    ASSERT_TRUE(store->PublishEpoch().ok());
  }
  expect_same_files("batch after a delete");
  ExpectSameReads(*batched, *looped);

  // An empty batch writes nothing and maps nothing.
  const int64_t size = batched->FileSize();
  const int64_t remaps = RemapCount();
  ASSERT_TRUE(batched->PutBatch({}).ok());
  EXPECT_EQ(batched->FileSize(), size);
  EXPECT_EQ(RemapCount(), remaps);
  expect_same_files("empty batch");

  ASSERT_TRUE(batched->Compact().ok());
  ASSERT_TRUE(looped->Compact().ok());
  expect_same_files("compact");
  ExpectSameReads(*batched, *looped);
  batched.reset();
  batched = std::move(LogKvStore::Open(batched_path).value());
  ExpectSameReads(*batched, *looped);
  batched.reset();
  looped.reset();
  std::remove(batched_path.c_str());
  std::remove(looped_path.c_str());

  // A ShardedKvStore over three cells (StreamingTopology::BulkLoad's
  // layout) makes one PutBatch per shard: each cell gets the bytes of the
  // same Puts routed to it one at a time, in one shard batch.
  constexpr int kShards = 3;
  std::vector<std::unique_ptr<LogKvStore>> cells;
  std::vector<KvStore*> batched_shards, looped_shards;
  std::vector<std::string> paths;
  for (int i = 0; i < 2 * kShards; ++i) {
    paths.push_back(TempPath("log_sharded_" + std::to_string(i) + ".kv"));
    std::remove(paths.back().c_str());
    cells.push_back(std::move(LogKvStore::Open(paths.back()).value()));
    (i < kShards ? batched_shards : looped_shards)
        .push_back(cells.back().get());
  }
  ShardedKvStore batched_sharded(batched_shards);
  ShardedKvStore looped_sharded(looped_shards);
  std::vector<int64_t> put_samples;
  for (int i = 0; i < kShards; ++i) {
    put_samples.push_back(
        obs::Registry::Global()
            .histogram("kv/shard" + std::to_string(i) + "/put_s")
            ->count());
  }
  ASSERT_TRUE(FeatureStore(&batched_sharded).Ingest(ds.graph).ok());
  for (int i = 0; i < kShards; ++i) {
    EXPECT_EQ(obs::Registry::Global()
                      .histogram("kv/shard" + std::to_string(i) + "/put_s")
                      ->count() -
                  put_samples[static_cast<size_t>(i)],
              1)
        << "shard " << i;
  }
  ASSERT_TRUE(PutEachRecord(ds.graph, &looped_sharded).ok());
  for (const auto& cell : cells) ASSERT_TRUE(cell->PublishEpoch().ok());
  for (int i = 0; i < kShards; ++i) {
    ASSERT_GT(cells[static_cast<size_t>(i)]->FileSize(), 0) << "shard " << i;
    ExpectSameReads(*cells[static_cast<size_t>(i)],
                    *cells[static_cast<size_t>(kShards + i)]);
    const std::string a = FileBytes(paths[static_cast<size_t>(i)]);
    const std::string b = FileBytes(paths[static_cast<size_t>(kShards + i)]);
    ASSERT_TRUE(a == b) << "shard " << i << ": " << a.size() << " vs "
                        << b.size() << " bytes";
  }
  cells.clear();
  for (const std::string& p : paths) std::remove(p.c_str());
}

/// True iff `store` holds exactly `want` at its head.
bool HoldsExactly(const LogKvStore& store,
                  const std::map<std::string, std::string>& want) {
  if (store.Count() != static_cast<int64_t>(want.size())) return false;
  std::string value;
  for (const auto& [key, expected] : want) {
    if (!store.Get(key, &value).ok() || value != expected) return false;
  }
  return true;
}

TEST(MultiProcessKv, FailedBatchLeavesNeitherFileNorIndexHoldingAnyOfIt) {
  std::string path = TempPath("log_failed_batch.kv");
  std::remove(path.c_str());
  std::map<std::string, std::string> before;
  {
    auto store = std::move(LogKvStore::Open(path).value());
    for (int i = 0; i < 4; ++i) {
      std::string key = "pre" + std::to_string(i);
      before[key] = PatternValue(i, 200);
      ASSERT_TRUE(store->Put(key, before[key]).ok());
      if (i == 2) {
        ASSERT_TRUE(store->PublishEpoch().ok());
      }
    }
  }
  const int64_t size = static_cast<int64_t>(std::filesystem::file_size(path));
  // 64 records of 1 KiB; one rewrites a pre-batch key.
  std::vector<KvRecord> batch;
  int64_t batch_bytes = 0;
  for (int i = 0; i < 64; ++i) {
    std::string key = i == 7 ? "pre1" : "batch" + std::to_string(i);
    batch.push_back({key, PatternValue(100 + i, 1024)});
    batch_bytes += 13 + static_cast<int64_t>(key.size()) + 1024;
  }

  // The child's file-size limit lands halfway through the batch's write;
  // SIGXFSZ is ignored, so the write comes back short instead of killing
  // the process. The limit acts on the child alone.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::signal(SIGXFSZ, SIG_IGN);
    struct rlimit limit;
    if (::getrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(10);
    limit.rlim_cur = static_cast<rlim_t>(size + batch_bytes / 2);
    if (::setrlimit(RLIMIT_FSIZE, &limit) != 0) ::_exit(11);
    auto opened = LogKvStore::Open(path);
    if (!opened.ok()) ::_exit(12);
    auto store = std::move(opened).value();
    if (!store->PutBatch(batch).IsIoError()) ::_exit(13);
    if (store->FileSize() != size) ::_exit(14);
    if (static_cast<int64_t>(std::filesystem::file_size(path)) != size) {
      ::_exit(15);
    }
    if (!HoldsExactly(*store, before)) ::_exit(16);
    store.reset();
    opened = LogKvStore::Open(path);
    if (!opened.ok() || !HoldsExactly(*opened.value(), before)) ::_exit(17);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);

  EXPECT_EQ(static_cast<int64_t>(std::filesystem::file_size(path)), size);
  auto store = std::move(LogKvStore::Open(path).value());
  EXPECT_TRUE(HoldsExactly(*store, before));
  // Without the limit the same batch lands whole.
  ASSERT_TRUE(store->PutBatch(batch).ok());
  EXPECT_EQ(store->FileSize(), size + batch_bytes);
  for (const KvRecord& record : batch) before[record.key] = record.value;
  EXPECT_TRUE(HoldsExactly(*store, before));
  store.reset();
  std::remove(path.c_str());
}

/// Checks that every key in `expected` reads back whole through Get (head)
/// and GetAt (the latest published epoch).
void ExpectAllReadBack(const LogKvStore& store,
                       const std::map<std::string, std::string>& expected) {
  const uint64_t epoch = store.published_epoch();
  for (const auto& [key, want] : expected) {
    std::string value;
    ASSERT_TRUE(store.Get(key, &value).ok()) << key;
    ASSERT_EQ(value, want) << key;
    ASSERT_TRUE(store.GetAt(key, epoch, &value).ok()) << key;
    ASSERT_EQ(value, want) << key << " at epoch " << epoch;
  }
}

TEST(LogKvTest, ReadMappingGrowsAndShrinksWithTheFile) {
  std::string path = TempPath("log_mapping_growth.kv");
  std::remove(path.c_str());
  std::remove((path + ".compact").c_str());
  const int64_t remaps_before = RemapCount();
  std::map<std::string, std::string> expected;
  int next = 0;
  auto store = std::move(LogKvStore::Open(path).value());
  // Values just over 64 KiB, each published, until the file is past
  // 4 MiB: the mapping crosses the 1, 2 and 4 MiB capacities. Every value
  // written so far reads back after every write.
  while (store->FileSize() <= int64_t{9} << 19) {
    std::string key = "k" + std::to_string(next);
    std::string value = PatternValue(next, (size_t{64} << 10) + 37 * next);
    ++next;
    ASSERT_TRUE(store->Put(key, value).ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
    expected[key] = value;
    ExpectAllReadBack(*store, expected);
  }
  // The first append mapped 1 MiB; the 2, 4 and 8 MiB capacities followed.
  EXPECT_EQ(RemapCount() - remaps_before, 4);

  // DiscardPending truncates the file below the mapped length (the pending
  // tail itself crossed into the 8 MiB capacity).
  const int64_t published_size = store->FileSize();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        store->Put("pending" + std::to_string(i), PatternValue(1000 + i, 65536))
            .ok());
  }
  ASSERT_GT(store->FileSize(), int64_t{8} << 20);
  ASSERT_TRUE(store->DiscardPending().ok());
  EXPECT_EQ(store->FileSize(), published_size);
  ExpectAllReadBack(*store, expected);
  std::string value;
  EXPECT_TRUE(store->Get("pending0", &value).IsNotFound());
  // Appends after the truncation land inside the existing mapping.
  ASSERT_TRUE(store->Put("after-discard", PatternValue(2000, 4096)).ok());
  ASSERT_TRUE(store->PublishEpoch().ok());
  expected["after-discard"] = PatternValue(2000, 4096);
  ExpectAllReadBack(*store, expected);

  // A torn tail, recovered on reopen: replay truncates the file under its
  // fresh, larger mapping.
  const int64_t intact_size = store->FileSize();
  ASSERT_TRUE(store->Put("torn", PatternValue(3000, 300000)).ok());
  store.reset();
  std::filesystem::resize_file(std::filesystem::path(path),
                               static_cast<uintmax_t>(intact_size + 150000));
  store = std::move(LogKvStore::Open(path).value());
  EXPECT_EQ(store->FileSize(), intact_size);
  EXPECT_TRUE(store->Get("torn", &value).IsNotFound());
  ExpectAllReadBack(*store, expected);

  // Overwrite half the keys so Compact reclaims space, then grow the
  // compacted file across a capacity boundary again.
  for (int i = 0; i < next; i += 2) {
    std::string key = "k" + std::to_string(i);
    expected[key] = PatternValue(4000 + i, 1000);
    ASSERT_TRUE(store->Put(key, expected[key]).ok());
  }
  ASSERT_TRUE(store->PublishEpoch().ok());
  auto reclaimed = store->Compact();
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
  EXPECT_GT(reclaimed.value(), 0);
  ExpectAllReadBack(*store, expected);
  const int64_t compacted_budget = RemapBudget(store->FileSize());
  while (RemapBudget(store->FileSize()) == compacted_budget) {
    std::string key = "k" + std::to_string(next);
    std::string grown = PatternValue(next, size_t{64} << 10);
    ++next;
    ASSERT_TRUE(store->Put(key, grown).ok());
    ASSERT_TRUE(store->PublishEpoch().ok());
    expected[key] = grown;
    ExpectAllReadBack(*store, expected);
  }
  store.reset();
  std::remove(path.c_str());
}

TEST(LogKvTest, CompactToAnEmptyImageStaysWritable) {
  std::string path = TempPath("log_compact_empty.kv");
  std::remove(path.c_str());
  auto store = std::move(LogKvStore::Open(path).value());
  ASSERT_TRUE(store->Put("gone", "soon").ok());
  ASSERT_TRUE(store->Delete("gone").ok());
  // Nothing published and nothing live: the compacted image is empty, and
  // the store maps it all the same.
  ASSERT_TRUE(store->Compact().ok());
  EXPECT_EQ(store->FileSize(), 0);
  std::string value;
  EXPECT_TRUE(store->Get("gone", &value).IsNotFound());
  ASSERT_TRUE(store->Put("back", "again").ok());
  ASSERT_TRUE(store->Get("back", &value).ok());
  EXPECT_EQ(value, "again");
  store.reset();
  std::remove(path.c_str());
}

/// Record boundaries and the head state after each prefix of a small WAL.
struct WalPrefix {
  int64_t end;  // file offset just past the prefix's last record
  uint64_t published;
  std::map<std::string, std::string> live;
};

TEST(LogKvTest, HostileWalBytesNeverReadPastTheFile) {
  // A WAL of puts, deletes, a batch and epoch markers whose size is
  // exactly one page: a read past its end then touches a page wholly past EOF of the
  // (1 MiB) mapping and dies with SIGBUS instead of reading zeros.
  const int64_t page = ::sysconf(_SC_PAGESIZE);
  constexpr int64_t kHeader = 13;  // crc u32, kind u8, klen u32, vlen u32
  std::string path = TempPath("log_hostile_src.kv");
  std::remove(path.c_str());
  std::vector<WalPrefix> prefixes = {{0, 0, {}}};
  {
    auto store = std::move(LogKvStore::Open(path).value());
    WalPrefix state = prefixes.back();
    auto record = [&] {
      state.end = store->FileSize();
      state.published = store->published_epoch();
      prefixes.push_back(state);
    };
    for (int i = 0; i < 6; ++i) {
      std::string key = "key" + std::to_string(i % 4);
      state.live[key] = PatternValue(i, 100 + 41 * i);
      ASSERT_TRUE(store->Put(key, state.live[key]).ok());
      record();
      if (i % 2 == 1) {
        ASSERT_TRUE(store->PublishEpoch().ok());
        record();
      }
    }
    ASSERT_TRUE(store->Delete("key1").ok());
    state.live.erase("key1");
    record();
    // A multi-record batch, one of its keys repeated: one write, but
    // replay sees its records one by one, so every boundary inside it is
    // a prefix too.
    const std::vector<KvRecord> batch = {{"batch0", PatternValue(50, 120)},
                                         {"key2", PatternValue(51, 90)},
                                         {"batch1", PatternValue(52, 1)},
                                         {"batch0", PatternValue(53, 70)}};
    const int64_t batch_start = store->FileSize();
    ASSERT_TRUE(store->PutBatch(batch).ok());
    state.end = batch_start;
    state.published = store->published_epoch();
    for (const KvRecord& r : batch) {
      state.end += kHeader + static_cast<int64_t>(r.key.size() +
                                                  r.value.size());
      state.live[r.key] = r.value;
      prefixes.push_back(state);
    }
    ASSERT_EQ(state.end, store->FileSize());
    ASSERT_TRUE(store->PublishEpoch().ok());
    record();
    // Pad with a last put whose value fills the page exactly.
    const int64_t pad = page - store->FileSize() - kHeader - 3;
    ASSERT_GE(pad, 0);
    state.live["pad"] = PatternValue(99, static_cast<size_t>(pad));
    ASSERT_TRUE(store->Put("pad", state.live["pad"]).ok());
    record();
    ASSERT_EQ(store->FileSize(), page);
  }
  std::string wal;
  {
    std::ifstream in(path, std::ios::binary);
    wal.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(static_cast<int64_t>(wal.size()), page);

  std::string probe = TempPath("log_hostile_probe.kv");
  auto open_bytes = [&](const std::string& bytes) {
    std::remove(probe.c_str());
    std::ofstream(probe, std::ios::binary) << bytes;
    return LogKvStore::Open(probe);
  };
  // Open must either fail or hold exactly the records before `limit`.
  auto expect_prefix = [&](Result<std::unique_ptr<LogKvStore>> opened,
                           int64_t limit, const std::string& what) {
    if (!opened.ok()) return;
    const LogKvStore& store = *opened.value();
    const WalPrefix* want = &prefixes.front();
    for (const WalPrefix& p : prefixes) {
      if (p.end <= limit) want = &p;
    }
    ASSERT_EQ(store.FileSize(), want->end) << what;
    ASSERT_EQ(store.published_epoch(), want->published) << what;
    ASSERT_EQ(store.Count(), static_cast<int64_t>(want->live.size())) << what;
    for (const auto& [key, value] : want->live) {
      std::string got;
      ASSERT_TRUE(store.Get(key, &got).ok()) << what << " " << key;
      ASSERT_EQ(got, value) << what << " " << key;
    }
  };

  for (int64_t cut = 0; cut <= page; ++cut) {
    expect_prefix(open_bytes(wal.substr(0, static_cast<size_t>(cut))), cut,
                  "cut at " + std::to_string(cut));
  }
  // Inflate klen (header bytes 5..8) or vlen (9..12) of each record: by
  // one, to reach exactly EOF, one byte past EOF, and to the u32 maximum.
  for (size_t r = 0; r + 1 < prefixes.size(); ++r) {
    const int64_t at = prefixes[r].end;
    for (int64_t field : {5, 9}) {
      const uint32_t old_len =
          ByteReader(wal.data() + at + field, 4).U32();
      const int64_t room = page - at - kHeader;  // bytes after this header
      for (int64_t len : {int64_t{old_len} + 1, room, room + 1,
                          int64_t{UINT32_MAX}}) {
        std::string hostile = wal;
        std::string bytes = ByteWriter().U32(static_cast<uint32_t>(len))
                                .Release();
        hostile.replace(static_cast<size_t>(at + field), 4, bytes);
        expect_prefix(open_bytes(hostile), at,
                      "record " + std::to_string(r) + " field " +
                          std::to_string(field) + " len " +
                          std::to_string(len));
      }
    }
  }
  std::remove(probe.c_str());
  std::remove(path.c_str());
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
