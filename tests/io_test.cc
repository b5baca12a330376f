// Round-trip and corruption tests of the two persistence formats: the
// TSV transaction log and the binary graph snapshot.

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"
#include "xfraud/data/generator.h"
#include "xfraud/data/log_io.h"
#include "xfraud/graph/serialize.h"

namespace xfraud {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

class LogIoTest : public ::testing::Test {
 protected:
  static std::vector<graph::TransactionRecord> SampleRecords() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 120;
    config.num_fraud_rings = 3;
    config.num_stolen_cards = 5;
    config.num_periods = 3;
    data::TransactionGenerator gen(config);
    return gen.GenerateRecords();
  }
};

TEST_F(LogIoTest, RoundTripPreservesEverything) {
  auto records = SampleRecords();
  std::string path = TempPath("log_roundtrip.tsv");
  ASSERT_TRUE(data::WriteTransactionLog(records, path).ok());
  auto loaded = data::ReadTransactionLog(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const auto& a = records[i];
    const auto& b = loaded.value()[i];
    EXPECT_EQ(a.txn_id, b.txn_id);
    EXPECT_EQ(a.buyer_id, b.buyer_id);
    EXPECT_EQ(a.email, b.email);
    EXPECT_EQ(a.payment_token, b.payment_token);
    EXPECT_EQ(a.shipping_address, b.shipping_address);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.period, b.period);
    ASSERT_EQ(a.features.size(), b.features.size());
    for (size_t f = 0; f < a.features.size(); ++f) {
      EXPECT_NEAR(a.features[f], b.features[f], 1e-4);
    }
  }
}

TEST_F(LogIoTest, RoundTripBuildsIdenticalGraph) {
  auto records = SampleRecords();
  std::string path = TempPath("log_graph.tsv");
  ASSERT_TRUE(data::WriteTransactionLog(records, path).ok());
  auto loaded = data::ReadTransactionLog(path);
  ASSERT_TRUE(loaded.ok());
  graph::GraphBuilder a, b;
  for (const auto& r : records) ASSERT_TRUE(a.AddTransaction(r).ok());
  for (const auto& r : loaded.value()) {
    ASSERT_TRUE(b.AddTransaction(r).ok());
  }
  graph::HeteroGraph ga = a.Build(), gb = b.Build();
  EXPECT_EQ(ga.num_nodes(), gb.num_nodes());
  EXPECT_EQ(ga.num_edges(), gb.num_edges());
  EXPECT_EQ(ga.NodeTypeCounts(), gb.NodeTypeCounts());
}

TEST_F(LogIoTest, MissingHeaderIsRejected) {
  std::string path = TempPath("log_noheader.tsv");
  std::ofstream(path) << "not a header\n";
  auto loaded = data::ReadTransactionLog(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(LogIoTest, MalformedLineReportsLineNumber) {
  auto records = SampleRecords();
  records.resize(2);
  std::string path = TempPath("log_badline.tsv");
  ASSERT_TRUE(data::WriteTransactionLog(records, path).ok());
  std::ofstream(path, std::ios::app) << "only\tthree\tfields\n";
  auto loaded = data::ReadTransactionLog(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 4"), std::string::npos);
}

TEST_F(LogIoTest, BadLabelIsRejected) {
  std::string path = TempPath("log_badlabel.tsv");
  auto records = SampleRecords();
  records.resize(1);
  ASSERT_TRUE(data::WriteTransactionLog(records, path).ok());
  std::ofstream(path, std::ios::app)
      << "tX\tb\te\tp\ta\tmaybe\t0\t1.0,2.0\n";
  auto loaded = data::ReadTransactionLog(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad label"), std::string::npos);
}

TEST_F(LogIoTest, PeriodWithTrailingCharactersIsRejected) {
  std::string path = TempPath("log_badperiod.tsv");
  auto records = SampleRecords();
  records.resize(1);
  ASSERT_TRUE(data::WriteTransactionLog(records, path).ok());
  std::ofstream(path, std::ios::app)
      << "tX\tb\te\tp\ta\tbenign\t12abc\t1.0,2.0\n";
  auto loaded = data::ReadTransactionLog(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("line 3: bad period 12abc"),
            std::string::npos);
}

TEST_F(LogIoTest, FeatureWithTrailingCharactersIsRejected) {
  std::string path = TempPath("log_badfeature.tsv");
  auto records = SampleRecords();
  records.resize(1);
  ASSERT_TRUE(data::WriteTransactionLog(records, path).ok());
  std::ofstream(path, std::ios::app)
      << "tX\tb\te\tp\ta\tbenign\t0\t1.0,1.5x\n";
  auto loaded = data::ReadTransactionLog(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
  EXPECT_NE(loaded.status().message().find("line 3: bad feature 1.5x"),
            std::string::npos);
}

class GraphSerializeTest : public ::testing::Test {
 protected:
  static graph::HeteroGraph SampleGraph() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 150;
    config.num_fraud_rings = 4;
    config.num_stolen_cards = 6;
    return data::TransactionGenerator::Make(config, "ser").graph;
  }
};

TEST_F(GraphSerializeTest, RoundTrip) {
  graph::HeteroGraph g = SampleGraph();
  std::string path = TempPath("graph_roundtrip.xfgr");
  ASSERT_TRUE(graph::SaveGraph(g, path).ok());
  auto loaded = graph::LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  const graph::HeteroGraph& h = loaded.value();
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  EXPECT_EQ(h.feature_dim(), g.feature_dim());
  for (int32_t v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(h.node_type(v), g.node_type(v));
    EXPECT_EQ(h.label(v), g.label(v));
    EXPECT_EQ(h.InDegree(v), g.InDegree(v));
    ASSERT_EQ(h.HasFeatures(v), g.HasFeatures(v));
    if (g.HasFeatures(v)) {
      for (int64_t c = 0; c < g.feature_dim(); ++c) {
        EXPECT_EQ(h.Features(v)[c], g.Features(v)[c]);
      }
    }
  }
  EXPECT_EQ(h.neighbors(), g.neighbors());
}

TEST_F(GraphSerializeTest, DetectsBitFlip) {
  graph::HeteroGraph g = SampleGraph();
  std::string path = TempPath("graph_corrupt.xfgr");
  ASSERT_TRUE(graph::SaveGraph(g, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200, std::ios::beg);
    char byte;
    f.seekg(200, std::ios::beg);
    f.get(byte);
    f.seekp(200, std::ios::beg);
    f.put(static_cast<char>(byte ^ 0x40));
  }
  auto loaded = graph::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(GraphSerializeTest, DetectsTruncation) {
  graph::HeteroGraph g = SampleGraph();
  std::string path = TempPath("graph_trunc.xfgr");
  ASSERT_TRUE(graph::SaveGraph(g, path).ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) / 2);
  auto loaded = graph::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

TEST_F(GraphSerializeTest, RejectsWrongMagic) {
  std::string path = TempPath("graph_magic.xfgr");
  std::ofstream(path, std::ios::binary) << "JUNKJUNKJUNK";
  auto loaded = graph::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
}

// ---- Crafted snapshots -----------------------------------------------------

/// A CRC-sealed snapshot of a two-node graph — transaction 0 (fraud, one
/// feature row) and buyer 1, each the other's in-neighbour — with the
/// header and the CSR arrays open to tampering.
struct TinySnapshot {
  int64_t num_nodes = 2;
  int64_t num_edges = 2;
  int64_t feature_rows = 1;
  int64_t feature_dim = 2;
  std::vector<int32_t> feature_row = {0, -1};
  std::vector<int64_t> offsets = {0, 1, 2};
  std::vector<int32_t> neighbors = {1, 0};

  Status Write(const std::string& path) const {
    ByteWriter arrays;
    arrays.Array(std::vector<uint8_t>{0, 4}).Array(std::vector<int8_t>{1, -1});
    arrays.Array(feature_row).Array(offsets).Array(neighbors);
    arrays.Array(std::vector<uint8_t>{7, 6});
    arrays.Array(std::vector<float>{1.0f, -2.0f});
    const std::string payload = arrays.Release();
    ByteWriter out;
    out.Bytes("XFGR").U32(1).I64(num_nodes).I64(num_edges);
    out.I64(feature_rows).I64(feature_dim).Bytes(payload);
    out.U32(Crc32(payload.data(), payload.size()));
    return AtomicWriteFileWithCrc(path, out.Release());
  }
};

void ExpectSnapshotIsCorruption(const TinySnapshot& snap) {
  const std::string path = TempPath("graph_crafted.xfgr");
  ASSERT_TRUE(snap.Write(path).ok());
  auto loaded = graph::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST_F(GraphSerializeTest, HonestCraftedSnapshotLoads) {
  const std::string path = TempPath("graph_crafted_ok.xfgr");
  ASSERT_TRUE(TinySnapshot{}.Write(path).ok());
  auto loaded = graph::LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), 2);
  EXPECT_EQ(loaded.value().Features(0)[1], -2.0f);
}

TEST_F(GraphSerializeTest, HeaderCountsBeyondTheFileAreCorruption) {
  TinySnapshot nodes;
  nodes.num_nodes = int64_t{1} << 33;
  ExpectSnapshotIsCorruption(nodes);
  TinySnapshot edges;
  edges.num_edges = int64_t{1} << 40;
  ExpectSnapshotIsCorruption(edges);
  TinySnapshot overflow;  // 1 × 2^62 floats: the byte count wraps to 0
  overflow.feature_dim = int64_t{1} << 62;
  ExpectSnapshotIsCorruption(overflow);
  TinySnapshot negative;
  negative.feature_dim = -1;
  ExpectSnapshotIsCorruption(negative);
}

TEST_F(GraphSerializeTest, NonMonotoneOffsetsAreCorruption) {
  TinySnapshot snap;
  snap.offsets = {0, 3, 2};
  ExpectSnapshotIsCorruption(snap);
  snap.offsets = {1, 1, 2};  // does not start at 0
  ExpectSnapshotIsCorruption(snap);
  snap.offsets = {0, 1, 1};  // does not end at num_edges
  ExpectSnapshotIsCorruption(snap);
}

TEST_F(GraphSerializeTest, OutOfRangeNeighbourIsCorruption) {
  TinySnapshot snap;
  snap.neighbors = {1, 7};
  ExpectSnapshotIsCorruption(snap);
  snap.neighbors = {-1, 0};
  ExpectSnapshotIsCorruption(snap);
}

TEST_F(GraphSerializeTest, OutOfRangeFeatureRowIsCorruption) {
  TinySnapshot snap;
  snap.feature_row = {1, -1};
  ExpectSnapshotIsCorruption(snap);
  snap.feature_row = {0, -2};
  ExpectSnapshotIsCorruption(snap);
}

}  // namespace
}  // namespace xfraud
