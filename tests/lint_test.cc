// Tests for the xfraud_lint rule engine (tools/lint_core.*): every rule
// firing and passing on in-memory snippets, the allow() escape hatch, and a
// walk over the deliberately-broken fixture tree in tests/lint_fixtures/.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint_core.h"

namespace xfraud::lint {
namespace {

constexpr char kLibPath[] = "src/xfraud/fake/module.cc";
constexpr char kLibHeader[] = "src/xfraud/fake/module.h";

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const auto& f : findings) rules.push_back(f.rule);
  return rules;
}

TEST(LintNondeterminism, FiresOnRandSrandTimeRandomDevice) {
  auto f = LintContent(kLibPath,
                       "int x = rand();\n"
                       "void s() { srand(7); }\n"
                       "long t = time(nullptr);\n"
                       "std::random_device rd;\n");
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].line, 2);
  EXPECT_EQ(f[2].line, 3);
  EXPECT_EQ(f[3].line, 4);
  for (const auto& finding : f) EXPECT_EQ(finding.rule, "nondeterminism");
}

TEST(LintNondeterminism, ExemptInRngModule) {
  auto f = LintContent("src/xfraud/common/rng.cc", "std::random_device rd;\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintNondeterminism, IgnoresWordsContainingTokens) {
  auto f = LintContent(kLibPath,
                       "int q = operand(1);\n"
                       "double runtime(int x);\n"
                       "int brand_new = strand(2);\n");
  EXPECT_TRUE(f.empty()) << f[0].rule;
}

TEST(LintRawClock, FiresOnClockReadsAndSleeps) {
  auto f = LintContent(kLibPath,
                       "auto t = std::chrono::steady_clock::now();\n"
                       "auto u = std::chrono::system_clock::now();\n"
                       "std::this_thread::sleep_for(d);\n"
                       "std::this_thread::sleep_until(tp);\n");
  ASSERT_EQ(f.size(), 4u);
  for (const auto& finding : f) EXPECT_EQ(finding.rule, "no-raw-clock");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[3].line, 4);
}

TEST(LintRawClock, ExemptInCommonAndSilentOutsideLibrary) {
  EXPECT_TRUE(LintContent("src/xfraud/common/clock.cc",
                          "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  EXPECT_TRUE(LintContent("src/xfraud/common/timer.h",
                          "#pragma once\n"
                          "using Clock = std::chrono::steady_clock;\n")
                  .empty());
  EXPECT_TRUE(LintContent("bench/bench_thing.cc",
                          "std::this_thread::sleep_for(d);\n")
                  .empty());
}

TEST(LintRawClock, InjectableClockAndTypeAliasesAreFine) {
  auto f = LintContent(kLibPath,
                       "double t = clock_->NowSeconds();\n"
                       "clock_->SleepFor(0.1);\n"
                       "using Clock = xfraud::Clock;\n"
                       "// steady_clock::now() mentioned in a comment\n");
  EXPECT_TRUE(f.empty()) << f[0].rule;
}

TEST(LintRawSocket, FiresOnSocketSyscallsInLibraryCode) {
  auto f = LintContent(kLibPath,
                       "int fd = socket(AF_UNIX, SOCK_STREAM, 0);\n"
                       "bind(fd, addr, len);\n"
                       "listen(fd, 4);\n"
                       "int p = accept(fd, nullptr, nullptr);\n"
                       "connect(p, addr, len);\n");
  ASSERT_EQ(f.size(), 5u);
  for (const auto& finding : f) EXPECT_EQ(finding.rule, "no-raw-socket");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[4].line, 5);
}

TEST(LintRawSocket, FiresOnDataPlaneSyscallsInServe) {
  // serve/ speaks frames through dist/socket_transport; even a bare
  // send/recv/poll on a smuggled fd is a layering break there.
  auto f = LintContent("src/xfraud/serve/router.cc",
                       "send(fd, buf, n, 0);\n"
                       "recv(fd, buf, n, 0);\n"
                       "poll(fds, 2, 100);\n"
                       "setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, len);\n"
                       "shutdown(fd, SHUT_RDWR);\n");
  ASSERT_EQ(f.size(), 5u);
  for (const auto& finding : f) EXPECT_EQ(finding.rule, "no-raw-socket");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[4].line, 5);
}

TEST(LintRawSocket, ExemptInDistAndSilentOutsideLibrary) {
  EXPECT_TRUE(LintContent("src/xfraud/dist/socket_transport.cc",
                          "int fd = socket(AF_UNIX, SOCK_STREAM, 0);\n")
                  .empty());
  EXPECT_TRUE(LintContent("src/xfraud/dist/rendezvous.cc",
                          "bind(fd, addr, len);\n")
                  .empty());
  EXPECT_TRUE(LintContent("tools/some_tool.cc",
                          "connect(fd, addr, len);\n")
                  .empty());
}

TEST(LintRawSocket, WrappersAndMentionsAreFine) {
  auto f = LintContent(kLibPath,
                       "auto c = SocketCommunicator::Connect(options, host);\n"
                       "store.BindShards(4);\n"
                       "// calls connect() under the hood\n"
                       "int disconnect_count = 0;\n"
                       "listener.Accept();\n");
  EXPECT_TRUE(f.empty()) << f[0].rule;
}

TEST(LintRawBytes, FiresOnCharPointerCastsInLibraryCode) {
  auto f = LintContent(kLibPath,
                       "out.append(reinterpret_cast<const char*>(&v), 4);\n"
                       "auto* p = reinterpret_cast<unsigned char*>(buf);\n"
                       "int x = 0;\n"
                       "auto* q = reinterpret_cast<\n"
                       "    const char *>(&x);\n"
                       "auto* s = reinterpret_cast<signed char*>(&x);\n");
  ASSERT_EQ(f.size(), 4u);
  for (const auto& finding : f) EXPECT_EQ(finding.rule, "no-raw-bytes");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].line, 2);
  EXPECT_EQ(f[2].line, 4);  // anchored at the cast, not the type
  EXPECT_EQ(f[3].line, 6);
}

TEST(LintRawBytes, CodecIsExemptAndOtherCastsAreFine) {
  const std::string cast = "auto* p = reinterpret_cast<const char*>(&v);\n";
  EXPECT_TRUE(LintContent("src/xfraud/common/bytes.cc", cast).empty());
  EXPECT_TRUE(LintContent("tests/some_test.cc", cast).empty());
  auto f = LintContent(
      kLibPath,
      "auto* a = reinterpret_cast<struct sockaddr*>(&addr);\n"
      "auto* b = reinterpret_cast<const float*>(bytes);\n"
      "// reinterpret_cast<const char*> in a comment\n"
      "const char* s = \"reinterpret_cast<char*>\";\n"
      "auto* c = my_reinterpret_cast<char*>(x);\n");
  EXPECT_TRUE(f.empty()) << f[0].rule << " at line " << f[0].line;
  EXPECT_TRUE(LintContent(kLibPath,
                          "// xfraud-lint: allow(no-raw-bytes)\n" + cast)
                  .empty());
}

TEST(LintStoAto, FiresInSrcAndTools) {
  const std::string code =
      "int a = std::stoi(s);\n"
      "unsigned long long b = std::stoull(s, nullptr, 16);\n"
      "double c = std::stod (s);\n"
      "int d = atoi(p);\n"
      "long e = ::atol(p);\n"
      "auto* f = &std::stof;\n";
  for (const char* path : {kLibPath, "tools/xfraud_cli.cc",
                           "src/other/module.cc"}) {
    auto f = LintContent(path, code);
    ASSERT_EQ(f.size(), 6u) << path;
    for (size_t i = 0; i < f.size(); ++i) {
      EXPECT_EQ(f[i].rule, "no-sto-ato");
      EXPECT_EQ(f[i].line, static_cast<int>(i) + 1);
    }
  }
}

TEST(LintStoAto, SilentElsewhereAndOnLookalikes) {
  const std::string call = "int a = std::stoi(s);\n";
  EXPECT_TRUE(LintContent("tests/some_test.cc", call).empty());
  EXPECT_TRUE(LintContent("bench/bench_x.cc", call).empty());
  EXPECT_TRUE(LintContent("mytools/x.cc", call).empty());
  auto f = LintContent(kLibPath,
                       "// std::stoi in a comment\n"
                       "const char* s = \"atoi(p)\";\n"
                       "int stoichiometry = restore_atoi(2);\n"
                       "Result<int> r = ParseNumber<int>(s);\n");
  EXPECT_TRUE(f.empty()) << f[0].rule << " at line " << f[0].line;
  EXPECT_TRUE(
      LintContent(kLibPath, "// xfraud-lint: allow(no-sto-ato)\n" + call)
          .empty());
}

TEST(LintNakedNew, FiresInLibraryCode) {
  auto f = LintContent(kLibPath, "int* p = new int(3);\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "no-naked-new");
  EXPECT_EQ(f[0].line, 1);
}

TEST(LintNakedNew, FiresOnMallocFamily) {
  auto f = LintContent(kLibPath, "void* p = malloc(8); free(p);\n");
  ASSERT_EQ(f.size(), 1u);  // one finding per line
  EXPECT_EQ(f[0].rule, "no-naked-new");
}

TEST(LintNakedNew, SilentOutsideLibrary) {
  auto f = LintContent("bench/bench_thing.cc", "int* p = new int(3);\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintNakedNew, SilentInCommentsAndStrings) {
  auto f = LintContent(kLibPath,
                       "// a new beginning\n"
                       "const char* s = \"new shiny\";\n"
                       "/* new in block comment */\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintRawIo, FiresOnCoutAndPrintf) {
  auto f = LintContent(kLibPath,
                       "void p() { std::cout << 1; }\n"
                       "void q() { printf(\"x\"); }\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "no-raw-io");
  EXPECT_EQ(f[1].rule, "no-raw-io");
}

TEST(LintRawIo, SnprintfIsFine) {
  auto f = LintContent(kLibPath, "int n = snprintf(buf, 8, \"x\");\n");
  EXPECT_TRUE(f.empty());
}

TEST(LintRawIo, ExemptInObsAndLogging) {
  EXPECT_TRUE(LintContent("src/xfraud/obs/trace.cc",
                          "fprintf(stderr, \"x\");\n")
                  .empty());
  EXPECT_TRUE(LintContent("src/xfraud/common/logging.cc",
                          "std::cout << 1;\n")
                  .empty());
}

TEST(LintDirectWrite, FiresOnOfstreamFopenAndRawOpen) {
  auto f = LintContent(kLibPath,
                       "std::ofstream out(path);\n"
                       "FILE* fp = fopen(\"x\", \"w\");\n"
                       "int fd = ::open(\"x\", O_WRONLY);\n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].line, 2);
  EXPECT_EQ(f[2].line, 3);
  for (const auto& finding : f) EXPECT_EQ(finding.rule, "no-direct-write");
}

TEST(LintDirectWrite, ReadsAndMemberOpenAreFine) {
  auto f = LintContent(kLibPath,
                       "std::ifstream in(path);\n"
                       "in.open(path);\n"
                       "store->Open(path);\n");
  EXPECT_TRUE(f.empty()) << f[0].rule;
}

TEST(LintDirectWrite, ExemptInAtomicFileAndLogKv) {
  EXPECT_TRUE(LintContent("src/xfraud/common/atomic_file.cc",
                          "int fd = ::open(tmp.c_str(), O_WRONLY);\n")
                  .empty());
  EXPECT_TRUE(LintContent("src/xfraud/kv/log_kv.cc",
                          "int fd = ::open(path.c_str(), O_RDWR);\n")
                  .empty());
}

TEST(LintDirectWrite, SilentOutsideLibraryAndInComments) {
  EXPECT_TRUE(
      LintContent("tools/xfraud_cli.cc", "std::ofstream out(path);\n")
          .empty());
  EXPECT_TRUE(LintContent(kLibPath, "// mentions std::ofstream only\n")
                  .empty());
}

TEST(LintHeaderGuard, FiresOnUnguardedHeader) {
  auto f = LintContent(kLibHeader, "inline int f() { return 1; }\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "header-guard");
  EXPECT_EQ(f[0].line, 1);
}

TEST(LintHeaderGuard, AcceptsIfndefGuardAndPragmaOnce) {
  EXPECT_TRUE(LintContent(kLibHeader,
                          "#ifndef A_H_\n#define A_H_\n#endif\n")
                  .empty());
  EXPECT_TRUE(LintContent(kLibHeader, "#pragma once\nint x;\n").empty());
}

TEST(LintHeaderGuard, NotAppliedToSourceFiles) {
  EXPECT_TRUE(LintContent(kLibPath, "int f() { return 1; }\n").empty());
}

TEST(LintUsingNamespace, FiresInHeaderOnly) {
  auto f = LintContent(kLibHeader,
                       "#pragma once\nusing namespace std;\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "no-using-namespace");
  EXPECT_EQ(f[0].line, 2);
  EXPECT_TRUE(LintContent(kLibPath, "using namespace std;\n").empty());
}

TEST(LintCatchAll, FiresOnSwallowedException) {
  auto f = LintContent(kLibPath,
                       "void f() {\n"
                       "  try { g(); } catch (...) {\n"
                       "    int ignored = 0;\n"
                       "  }\n"
                       "}\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "no-catch-all");
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintCatchAll, RethrowCaptureAndConvertAreFine) {
  EXPECT_TRUE(LintContent(kLibPath,
                          "void f() { try { g(); } catch (...) { throw; } }\n")
                  .empty());
  EXPECT_TRUE(
      LintContent(kLibPath,
                  "void f() { try { g(); } catch (...) {\n"
                  "  eptr = std::current_exception(); } }\n")
          .empty());
  EXPECT_TRUE(
      LintContent(kLibPath,
                  "Status f() { try { g(); } catch (...) {\n"
                  "  return Status::Internal(\"boom\"); } return OK(); }\n")
          .empty());
}

TEST(LintCatchAll, TypedCatchIsFine) {
  EXPECT_TRUE(
      LintContent(kLibPath,
                  "void f() { try { g(); } catch (const E& e) { log(e); } }\n")
          .empty());
}

TEST(LintTodoIssue, FiresWithoutIssueRef) {
  auto f = LintContent(kLibPath,
                       "// TODO: someday\n"
                       "// FIXME soon\n"
                       "// TODO(#123): tracked, fine\n");
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].rule, "todo-issue");
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[1].line, 2);
}

TEST(LintAllow, SuppressesOnSameAndPreviousLine) {
  EXPECT_TRUE(
      LintContent(kLibPath,
                  "int* p = new int(1);  // xfraud-lint: allow(no-naked-new)\n")
          .empty());
  EXPECT_TRUE(LintContent(kLibPath,
                          "// xfraud-lint: allow(no-naked-new)\n"
                          "int* p = new int(1);\n")
                  .empty());
}

TEST(LintAllow, OnlySuppressesTheNamedRule) {
  auto f = LintContent(
      kLibPath, "int* p = new int(rand());  // xfraud-lint: allow(no-naked-new)\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "nondeterminism");
}

TEST(LintAllow, SupportsMultipleRules) {
  EXPECT_TRUE(
      LintContent(
          kLibPath,
          "// xfraud-lint: allow(no-naked-new, nondeterminism)\n"
          "int* p = new int(rand());\n")
          .empty());
}

TEST(LintScanner, RawStringContentsNeverReachCode) {
  // Default delimiter: contents would fire nondeterminism + no-raw-io.
  EXPECT_TRUE(
      LintContent(kLibPath, "const char* q = R\"(rand(); std::cout;)\";\n")
          .empty());
  // Custom delimiter: an embedded )" must not close the literal.
  EXPECT_TRUE(LintContent(kLibPath,
                          "const char* q = R\"xy(new int; )\" rand();)xy\";\n")
                  .empty());
  // Encoding prefixes.
  EXPECT_TRUE(
      LintContent(kLibPath, "auto q = u8R\"(time(nullptr))\";\n").empty());
  EXPECT_TRUE(
      LintContent(kLibPath, "auto q = LR\"(socket(1, 2, 3))\";\n").empty());
  // A trailing backslash in a raw string is literal, not an escape; the
  // literal still closes and code after it is scanned normally.
  auto f = LintContent(kLibPath, "auto q = R\"(\\)\"; int x = rand();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "nondeterminism");
}

TEST(LintScanner, PastedIdentifierIsNotARawString) {
  // FOOR"..." — the R belongs to an identifier, so this is an ordinary
  // string; its \" is an escape and the literal ends at the final quote.
  EXPECT_TRUE(
      LintContent(kLibPath, "auto q = FOOR\"(text)\" + std::string();\n")
          .empty());
  // Malformed d-char-seq (space before the open paren): not a raw string;
  // falls back to ordinary string scanning rather than eating the file.
  auto f = LintContent(kLibPath,
                       "auto q = R\"bad delim(x)\";\nint y = rand();\n");
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintScanner, SplitKeepsOffsetsAndSeparatesHalves) {
  SplitSource s = SplitCodeComments("int a; // note\nR\"(hid)\" int b;\n");
  EXPECT_EQ(s.code.size(), s.comments.size());
  EXPECT_NE(s.code.find("int a;"), std::string::npos);
  EXPECT_EQ(s.code.find("note"), std::string::npos);
  EXPECT_NE(s.comments.find("note"), std::string::npos);
  EXPECT_EQ(s.code.find("hid"), std::string::npos);
  EXPECT_EQ(s.comments.find("hid"), std::string::npos);
  EXPECT_NE(s.code.find("int b;"), std::string::npos);
}

TEST(LintScanner, ParseAllowDirectivesHonorsTag) {
  std::vector<std::string> comments = {
      " xfraud-analyze: allow(unordered-iter, layering)",
      " xfraud-lint: allow(no-naked-new)",
  };
  auto analyze = ParseAllowDirectives(comments, "xfraud-analyze:");
  ASSERT_EQ(analyze.size(), 2u);
  ASSERT_EQ(analyze[0].size(), 2u);
  EXPECT_EQ(analyze[0][0], "unordered-iter");
  EXPECT_EQ(analyze[0][1], "layering");
  EXPECT_TRUE(analyze[1].empty());
  auto lint = ParseAllowDirectives(comments, "xfraud-lint:");
  EXPECT_TRUE(lint[0].empty());
  ASSERT_EQ(lint[1].size(), 1u);
  EXPECT_EQ(lint[1][0], "no-naked-new");
}

TEST(LintJson, EscapesAndFormats) {
  std::vector<Finding> findings = {{"a\"b.cc", 3, "rule-x", "msg \\ done"}};
  std::string json = FindingsToJson(findings);
  EXPECT_NE(json.find("\"a\\\"b.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("msg \\\\ done"), std::string::npos);
  EXPECT_EQ(FindingsToJson({}), "[]\n");
}

#ifdef XFRAUD_LINT_FIXTURE_DIR
TEST(LintFixtures, BadTreeFiresEveryRuleGoodTreeClean) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintPaths({XFRAUD_LINT_FIXTURE_DIR}, &findings, &error))
      << error;

  std::vector<std::string> fired = Rules(findings);
  for (const std::string& rule : RuleIds()) {
    EXPECT_TRUE(std::find(fired.begin(), fired.end(), rule) != fired.end())
        << "fixture tree never fired rule " << rule;
  }
  for (const auto& f : findings) {
    EXPECT_EQ(f.file.find("good"), std::string::npos)
        << f.file << ":" << f.line << " " << f.rule
        << " fired in a good/ fixture";
  }
  // Spot-check file:line anchoring.
  bool saw_guard = false;
  for (const auto& f : findings) {
    if (f.rule == "header-guard") {
      saw_guard = true;
      EXPECT_NE(f.file.find("missing_guard.h"), std::string::npos);
      EXPECT_EQ(f.line, 1);
    }
    if (f.rule == "no-catch-all") {
      EXPECT_NE(f.file.find("catch_all.cc"), std::string::npos);
      EXPECT_EQ(f.line, 5);
    }
  }
  EXPECT_TRUE(saw_guard);
}

TEST(LintFixtures, NondeterminismFixtureLinesAreExact) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintPaths({std::string(XFRAUD_LINT_FIXTURE_DIR) +
                         "/src/xfraud/bad/nondeterminism.cc"},
                        &findings, &error))
      << error;
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 7);   // srand
  EXPECT_EQ(findings[1].line, 8);   // rand
  EXPECT_EQ(findings[2].line, 9);   // time
  EXPECT_EQ(findings[3].line, 10);  // random_device
}
#endif  // XFRAUD_LINT_FIXTURE_DIR

}  // namespace
}  // namespace xfraud::lint
