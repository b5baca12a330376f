// Tests for xfraud_analyze (tools/analyze/analyze_core.*): the layering
// config, all four whole-program passes on in-memory trees, suppression
// and baseline round-trips, and a walk over the deliberately-broken fixture
// tree in tests/analyze_fixtures/ with exact expected findings.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze_core.h"

namespace xfraud::analyze {
namespace {

std::vector<std::string> Keys(const std::vector<Finding>& findings) {
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const auto& f : findings) keys.push_back(BaselineKey(f));
  return keys;
}

std::vector<Finding> Analyze(const std::vector<SourceFile>& files,
                             const LayeringConfig& config = {}) {
  return AnalyzeTree(files, config);
}

// ---------------------------------------------------------------------------
// Layering config.
// ---------------------------------------------------------------------------

TEST(AnalyzeConfig, ParsesAllowLinesWithReasons) {
  LayeringConfig config;
  std::string error;
  ASSERT_TRUE(ParseLayeringConfig(
      "# header comment\n"
      "\n"
      "allow graph -> nn  # feature tensors\n"
      "allow sample -> kv\n",
      &config, &error))
      << error;
  ASSERT_EQ(config.blessed.size(), 2u);
  EXPECT_EQ(config.blessed[0].from, "graph");
  EXPECT_EQ(config.blessed[0].to, "nn");
  EXPECT_EQ(config.blessed[0].reason, "feature tensors");
  EXPECT_TRUE(config.IsBlessed("graph", "nn"));
  EXPECT_TRUE(config.IsBlessed("sample", "kv"));
  EXPECT_FALSE(config.IsBlessed("nn", "graph"));  // direction matters
}

TEST(AnalyzeConfig, RejectsMalformedLines) {
  LayeringConfig config;
  std::string error;
  EXPECT_FALSE(ParseLayeringConfig("allow graph nn\n", &config, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  error.clear();
  EXPECT_FALSE(
      ParseLayeringConfig("allow a -> b extra\n", &config, &error));
  EXPECT_FALSE(ParseLayeringConfig("deny a -> b\n", &config, &error));
}

TEST(AnalyzeConfig, ModuleLayersMatchDeclaredDag) {
  EXPECT_EQ(ModuleLayer("common"), 0);
  EXPECT_EQ(ModuleLayer("graph"), 1);
  EXPECT_EQ(ModuleLayer("kv"), 2);
  EXPECT_EQ(ModuleLayer("fault"), 3);
  EXPECT_EQ(ModuleLayer("serve"), 4);
  EXPECT_EQ(ModuleLayer("stream"), 4);
  EXPECT_EQ(ModuleLayer("nonexistent"), -1);
}

// ---------------------------------------------------------------------------
// Pass 1: layering + cycles.
// ---------------------------------------------------------------------------

TEST(AnalyzeLayering, DownwardEdgesAreFree) {
  auto f = Analyze({{"src/xfraud/kv/store.h",
                 "#include \"xfraud/common/status.h\"\n"
                 "#include \"xfraud/graph/hetero_graph.h\"\n"}});
  EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(AnalyzeLayering, SameLayerEdgeNeedsBlessing) {
  std::vector<SourceFile> files = {
      {"src/xfraud/sample/loader.h", "#include \"xfraud/kv/store.h\"\n"}};
  auto f = Analyze(files);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_NE(f[0].message.find("allow sample -> kv"), std::string::npos);

  LayeringConfig config;
  config.blessed.push_back({"sample", "kv", "test"});
  EXPECT_TRUE(Analyze(files, config).empty());
}

TEST(AnalyzeLayering, UpwardEdgeIsFlagged) {
  auto f = Analyze({{"src/xfraud/common/bad.h",
                 "#include \"xfraud/serve/scorer.h\"\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_NE(f[0].message.find("layer 0"), std::string::npos);
  EXPECT_NE(f[0].message.find("layer 4"), std::string::npos);
}

TEST(AnalyzeLayering, UnknownModuleIsFlagged) {
  auto f = Analyze({{"src/xfraud/mystery/widget.h",
                 "#include \"xfraud/common/status.h\"\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "layering");
  EXPECT_NE(f[0].message.find("'mystery'"), std::string::npos);
}

TEST(AnalyzeLayering, UmbrellaAndNonLibraryFilesAreExempt) {
  EXPECT_TRUE(Analyze({{"src/xfraud/xfraud.h",
                    "#include \"xfraud/serve/scorer.h\"\n"}})
                  .empty());
  EXPECT_TRUE(Analyze({{"tests/kv_test.cc",
                    "#include \"xfraud/serve/scorer.h\"\n"}})
                  .empty());
}

TEST(AnalyzeLayering, AllowCommentSuppressesOneSite) {
  auto f = Analyze({{"src/xfraud/common/bad.h",
                 "// xfraud-analyze: allow(layering)\n"
                 "#include \"xfraud/obs/registry.h\"\n"}});
  EXPECT_TRUE(f.empty());
}

TEST(AnalyzeLayering, IncludesInCommentsAreIgnored) {
  auto f = Analyze({{"src/xfraud/common/doc.h",
                 "// example: #include \"xfraud/serve/scorer.h\"\n"}});
  EXPECT_TRUE(f.empty());
}

TEST(AnalyzeCycle, ReportsChainWithBothEdges) {
  LayeringConfig config;  // bless both directions: cycles are unblessable
  config.blessed.push_back({"kv", "sample", ""});
  config.blessed.push_back({"sample", "kv", ""});
  auto f = Analyze({{"src/xfraud/kv/a.h", "#include \"xfraud/sample/b.h\"\n"},
                {"src/xfraud/sample/b.h", "#include \"xfraud/kv/a.h\"\n"}},
               config);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-cycle");
  EXPECT_NE(f[0].message.find("kv -> sample"), std::string::npos);
  EXPECT_NE(f[0].message.find("src/xfraud/sample/b.h:1"), std::string::npos)
      << f[0].message;
  EXPECT_NE(f[0].message.find("-> kv"), std::string::npos);
}

TEST(AnalyzeCycle, AcyclicTreeIsClean) {
  auto f = Analyze({{"src/xfraud/kv/a.h", "#include \"xfraud/common/c.h\"\n"},
                {"src/xfraud/train/t.h", "#include \"xfraud/kv/a.h\"\n"}});
  EXPECT_TRUE(f.empty());
}

// ---------------------------------------------------------------------------
// Pass 2: discarded Status.
// ---------------------------------------------------------------------------

constexpr char kStatusDecls[] =
    "Status Save(int x);\n"
    "Result<int> Count(int x);\n";

TEST(AnalyzeDiscarded, FlagsBareCallStatements) {
  auto f = Analyze({{"src/xfraud/kv/decls.h", kStatusDecls},
                {"src/xfraud/kv/use.cc",
                 "void f() {\n"
                 "  Save(1);\n"
                 "  Count(2);\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "discarded-status");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'Save'"), std::string::npos);
  EXPECT_EQ(f[1].line, 3);
}

TEST(AnalyzeDiscarded, SanctionedUsesAreClean) {
  auto f = Analyze({{"src/xfraud/kv/decls.h", kStatusDecls},
                {"src/xfraud/kv/use.cc",
                 "Status g() {\n"
                 "  (void)Save(1);\n"
                 "  Status s = Save(2);\n"
                 "  if (!Save(3).ok()) return s;\n"
                 "  XF_RETURN_IF_ERROR(Save(4));\n"
                 "  bool ok = Save(5).ok() && Count(6).ok();\n"
                 "  return Save(7);\n"
                 "}\n"}});
  EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(AnalyzeDiscarded, ReceiverCallsAndControlBodiesAreFlagged) {
  auto f = Analyze({{"src/xfraud/kv/decls.h", "struct S { Status Flush(); };\n"},
                {"src/xfraud/kv/use.cc",
                 "void f(S* s, bool c) {\n"
                 "  s->Flush();\n"
                 "  if (c) s->Flush();\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].line, 3);
}

TEST(AnalyzeDiscarded, ConflictingReturnTypesExcludeTheName) {
  auto f = Analyze({{"src/xfraud/kv/decls.h",
                 "Status Reused(int x);\n"
                 "int Reused(char c);\n"},
                {"src/xfraud/kv/use.cc", "void f() { Reused(1); }\n"}});
  EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(AnalyzeDiscarded, IndexCrossesFilesAndScopesToLibraryAndTools) {
  std::vector<SourceFile> files = {
      {"src/xfraud/kv/decls.h", kStatusDecls},
      {"tests/some_test.cc", "void t() { Save(1); }\n"},   // tests exempt
      {"tools/some_tool.cc", "void t() { Save(2); }\n"}};  // tools checked
  auto f = Analyze(files);
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].file, "tools/some_tool.cc");
}

TEST(AnalyzeDiscarded, AllowCommentSuppressesOneSite) {
  auto f = Analyze({{"src/xfraud/kv/decls.h", kStatusDecls},
                {"src/xfraud/kv/use.cc",
                 "void f() {\n"
                 "  // xfraud-analyze: allow(discarded-status)\n"
                 "  Save(1);\n"
                 "  Save(2);\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 4);
}

// ---------------------------------------------------------------------------
// Pass 3: unordered iteration.
// ---------------------------------------------------------------------------

TEST(AnalyzeUnordered, FlagsRangeForOverDeclaredMember) {
  auto f = Analyze({{"src/xfraud/nn/thing.h",
                 "struct T { std::unordered_map<int, double> weights_; };\n"},
                {"src/xfraud/nn/thing.cc",
                 "double T::Sum() {\n"
                 "  double t = 0;\n"
                 "  for (const auto& [k, v] : weights_) t += v;\n"
                 "  return t;\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "unordered-iter");
  EXPECT_EQ(f[0].file, "src/xfraud/nn/thing.cc");
  EXPECT_EQ(f[0].line, 3);
}

TEST(AnalyzeUnordered, FlagsAliasOfUnorderedElement) {
  auto f = Analyze({{"src/xfraud/nn/thing.cc",
                 "std::vector<std::unordered_map<int, int>> buckets_;\n"
                 "int f(int i) {\n"
                 "  auto& b = buckets_[i];\n"
                 "  int n = 0;\n"
                 "  for (const auto& [k, v] : b) n += v;\n"
                 "  for (const auto& [k, v] : buckets_[0]) n += k;\n"
                 "  return n;\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].line, 5);
  EXPECT_EQ(f[1].line, 6);
}

TEST(AnalyzeUnordered, FlagsIteratorPairSnapshot) {
  auto f = Analyze({{"src/xfraud/nn/thing.cc",
                 "std::unordered_set<int> ids_;\n"
                 "std::vector<int> Snapshot() {\n"
                 "  return std::vector<int>(ids_.begin(), ids_.end());\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3);
}

TEST(AnalyzeUnordered, OrderedContainersAndNonLibraryAreClean) {
  EXPECT_TRUE(Analyze({{"src/xfraud/nn/thing.cc",
                    "std::map<int, int> m_;\n"
                    "std::vector<int> v_;\n"
                    "int f() {\n"
                    "  int n = 0;\n"
                    "  for (int x : v_) n += x;\n"
                    "  for (const auto& [k, v] : m_) n += v;\n"
                    "  return n;\n"
                    "}\n"}})
                  .empty());
  EXPECT_TRUE(Analyze({{"tools/tool.cc",
                    "std::unordered_map<int, int> m_;\n"
                    "int f() { int n = 0;\n"
                    "  for (const auto& [k, v] : m_) n += v;\n"
                    "  return n; }\n"}})
                  .empty());
}

TEST(AnalyzeUnordered, AllowCommentSuppressesOneSite) {
  auto f = Analyze({{"src/xfraud/nn/thing.cc",
                 "std::unordered_map<int, int> m_;\n"
                 "int f() {\n"
                 "  int n = 0;\n"
                 "  // xfraud-analyze: allow(unordered-iter)\n"
                 "  for (const auto& [k, v] : m_) n += v;\n"
                 "  for (const auto& [k, v] : m_) n += k;\n"
                 "  return n;\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 6);
}

// ---------------------------------------------------------------------------
// Pass 4: ingest bypass.
// ---------------------------------------------------------------------------

TEST(AnalyzeIngest, FlagsStoreMutationOutsideIngestTier) {
  auto f = Analyze({{"src/xfraud/serve/holder.h",
                 "struct Holder {\n"
                 "  kv::KvStore* store_;\n"
                 "  std::unique_ptr<kv::LogKvStore> wal_;\n"
                 "};\n"},
                {"src/xfraud/serve/use.cc",
                 "void f(Holder* h, kv::FeatureStore* features) {\n"
                 "  h->store_->Put(\"k\", \"v\");\n"
                 "  h->wal_->Delete(\"k\");\n"
                 "  features->Ingest(g);\n"
                 "  h->wal_->PutBatch(records);\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0].rule, "ingest-bypass");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'store_.Put'"), std::string::npos);
  EXPECT_NE(f[0].message.find("module 'serve'"), std::string::npos);
  EXPECT_EQ(f[1].line, 3);
  EXPECT_EQ(f[2].line, 4);
  EXPECT_EQ(f[3].line, 5);
  EXPECT_NE(f[3].message.find("'wal_.PutBatch'"), std::string::npos);
}

TEST(AnalyzeIngest, StoreOwnersAndReadsAreClean) {
  // kv, stream, and fault own the write path; reads bypass nothing; and
  // tests/tools are not library code.
  for (const char* path :
       {"src/xfraud/kv/use.cc", "src/xfraud/stream/use.cc",
        "src/xfraud/fault/use.cc", "tests/use_test.cc", "tools/use.cc"}) {
    EXPECT_TRUE(Analyze({{path,
                      "kv::KvStore* store_;\n"
                      "void f() { store_->Put(\"k\", \"v\"); }\n"}})
                    .empty())
        << path;
  }
  EXPECT_TRUE(Analyze({{"src/xfraud/serve/use.cc",
                    "kv::KvStore* store_;\n"
                    "void g(std::string* v) { store_->Get(\"k\", v); }\n"}})
                  .empty());
}

TEST(AnalyzeIngest, NonStoreReceiversAreClean) {
  auto f = Analyze({{"src/xfraud/serve/use.cc",
                 "kv::KvStore* serving() const;\n"
                 "Cache index_;\n"
                 "void f() { index_.Put(1); }\n"}});
  EXPECT_TRUE(f.empty()) << f[0].message;
}

TEST(AnalyzeIngest, SubscriptedReceiverAndAllowComment) {
  auto f = Analyze({{"src/xfraud/serve/use.cc",
                 "std::vector<kv::MemKvStore*> cells_;\n"
                 "void f() {\n"
                 "  cells_[0]->Put(\"k\", \"v\");\n"
                 "  // xfraud-analyze: allow(ingest-bypass)\n"
                 "  cells_[1]->Put(\"k\", \"v\");\n"
                 "}\n"}});
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("'cells_.Put'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline round-trip.
// ---------------------------------------------------------------------------

TEST(AnalyzeBaseline, FiltersMatchedAndReportsStale) {
  std::vector<Finding> findings = {
      {"src/xfraud/kv/a.cc", 10, "layering", "m1"},
      {"src/xfraud/kv/b.cc", 20, "unordered-iter", "m2"}};
  std::vector<std::string> baseline = {
      "src/xfraud/kv/a.cc:10: layering",      // matches
      "src/xfraud/kv/gone.cc:5: layering"};   // stale
  std::vector<std::string> stale;
  auto remaining = ApplyBaseline(findings, baseline, &stale);
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_EQ(remaining[0].file, "src/xfraud/kv/b.cc");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "src/xfraud/kv/gone.cc:5: layering");
}

TEST(AnalyzeBaseline, WriteParseRoundTrip) {
  std::vector<Finding> findings = {
      {"src/xfraud/kv/a.cc", 10, "layering", "m1"},
      {"src/xfraud/kv/b.cc", 20, "unordered-iter", "m2"}};
  std::string text = "# comment\n\n" + FindingsToBaseline(findings);
  std::vector<std::string> keys = ParseBaseline(text);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "src/xfraud/kv/a.cc:10: layering");
  std::vector<std::string> stale;
  EXPECT_TRUE(ApplyBaseline(findings, keys, &stale).empty());
  EXPECT_TRUE(stale.empty());
}

// ---------------------------------------------------------------------------
// Fixture tree: exact findings, text and JSON.
// ---------------------------------------------------------------------------

#ifdef XFRAUD_ANALYZE_FIXTURE_DIR
std::string Fx(const std::string& rel) {
  return std::string(XFRAUD_ANALYZE_FIXTURE_DIR) + "/" + rel;
}

TEST(AnalyzeFixtures, ExactFindingsWithEmptyConfig) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      AnalyzePaths({XFRAUD_ANALYZE_FIXTURE_DIR}, {}, &findings, &error))
      << error;
  std::vector<std::string> expected = {
      Fx("src/xfraud/graph/status_use.cc") + ":16: discarded-status",
      Fx("src/xfraud/graph/status_use.cc") + ":17: discarded-status",
      Fx("src/xfraud/graph/status_use.cc") + ":18: discarded-status",
      Fx("src/xfraud/kv/cycle_a.h") + ":6: include-cycle",
      Fx("src/xfraud/train/ingest_bypass.cc") + ":18: ingest-bypass",
      Fx("src/xfraud/train/ingest_bypass.cc") + ":19: ingest-bypass",
      Fx("src/xfraud/train/ingest_bypass.cc") + ":20: ingest-bypass",
      Fx("src/xfraud/train/ingest_bypass.cc") + ":21: ingest-bypass",
      Fx("src/xfraud/train/ingest_bypass.cc") + ":34: ingest-bypass",
      Fx("src/xfraud/train/ingest_bypass.cc") + ":39: ingest-bypass",
      Fx("src/xfraud/common/upward.h") + ":6: layering",
      Fx("src/xfraud/kv/cycle_a.h") + ":6: layering",
      Fx("src/xfraud/sample/cycle_b.h") + ":6: layering",
      Fx("src/xfraud/nn/unordered.cc") + ":14: unordered-iter",
      Fx("src/xfraud/nn/unordered.cc") + ":21: unordered-iter",
      Fx("src/xfraud/nn/unordered.cc") + ":22: unordered-iter",
      Fx("src/xfraud/nn/unordered.cc") + ":30: unordered-iter",
  };
  EXPECT_EQ(Keys(findings), expected);
}

TEST(AnalyzeFixtures, CycleChainNamesBothEdges) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      AnalyzePaths({XFRAUD_ANALYZE_FIXTURE_DIR}, {}, &findings, &error))
      << error;
  const Finding* cycle = nullptr;
  for (const auto& f : findings) {
    if (f.rule == "include-cycle") cycle = &f;
  }
  ASSERT_NE(cycle, nullptr);
  EXPECT_NE(cycle->message.find("kv -> sample"), std::string::npos);
  EXPECT_NE(cycle->message.find(Fx("src/xfraud/kv/cycle_a.h") + ":6"),
            std::string::npos);
  EXPECT_NE(cycle->message.find(Fx("src/xfraud/sample/cycle_b.h") + ":6"),
            std::string::npos);
}

TEST(AnalyzeFixtures, BlessingRemovesLayeringButNeverTheCycle) {
  LayeringConfig config;
  config.blessed.push_back({"kv", "sample", "test"});
  config.blessed.push_back({"sample", "kv", "test"});
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      AnalyzePaths({XFRAUD_ANALYZE_FIXTURE_DIR}, config, &findings, &error))
      << error;
  int cycles = 0;
  for (const auto& f : findings) {
    if (f.rule == "include-cycle") ++cycles;
    if (f.rule == "layering") {
      EXPECT_NE(f.file.find("upward.h"), std::string::npos)
          << "blessed edge still flagged: " << f.file;
    }
  }
  EXPECT_EQ(cycles, 1);
}

TEST(AnalyzeFixtures, JsonSnapshotCarriesEveryFinding) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      AnalyzePaths({XFRAUD_ANALYZE_FIXTURE_DIR}, {}, &findings, &error))
      << error;
  std::string json = lint::FindingsToJson(findings);
  for (const char* rule :
       {"layering", "include-cycle", "discarded-status", "unordered-iter",
        "ingest-bypass"}) {
    EXPECT_NE(json.find(std::string("\"rule\": \"") + rule + "\""),
              std::string::npos)
        << rule;
  }
  EXPECT_NE(json.find("\"line\": 16"), std::string::npos);
}

TEST(AnalyzeFixtures, BaselineMakesTheFixtureTreePass) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      AnalyzePaths({XFRAUD_ANALYZE_FIXTURE_DIR}, {}, &findings, &error))
      << error;
  ASSERT_FALSE(findings.empty());
  // --write-baseline followed by --baseline must yield a clean run.
  std::vector<std::string> keys =
      ParseBaseline(FindingsToBaseline(findings));
  std::vector<std::string> stale;
  EXPECT_TRUE(ApplyBaseline(findings, keys, &stale).empty());
  EXPECT_TRUE(stale.empty());
}

TEST(AnalyzeFixtures, StaleBaselineEntryFailsTheRun) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(
      AnalyzePaths({XFRAUD_ANALYZE_FIXTURE_DIR}, {}, &findings, &error))
      << error;
  std::vector<std::string> keys =
      ParseBaseline(FindingsToBaseline(findings));
  std::vector<std::string> stale;
  auto remaining = ApplyBaseline(findings, keys, &stale);
  EXPECT_EQ(ExitStatus(remaining, stale), 0);
  // One entry whose finding is gone: every finding is still covered, but
  // the run fails and names the entry.
  keys.push_back(Fx("src/xfraud/graph/status_use.cc") +
                 ":99: discarded-status");
  stale.clear();
  remaining = ApplyBaseline(findings, keys, &stale);
  EXPECT_TRUE(remaining.empty());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0],
            Fx("src/xfraud/graph/status_use.cc") + ":99: discarded-status");
  EXPECT_EQ(ExitStatus(remaining, stale), 1);
  EXPECT_EQ(ExitStatus(findings, {}), 1);
}
#endif  // XFRAUD_ANALYZE_FIXTURE_DIR

}  // namespace
}  // namespace xfraud::analyze
