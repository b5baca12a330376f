#ifndef XFRAUD_TOOLS_ANALYZE_ANALYZE_CORE_H_
#define XFRAUD_TOOLS_ANALYZE_ANALYZE_CORE_H_

#include <string>
#include <vector>

#include "lint_core.h"

// xfraud_analyze: whole-program passes that need to see every file at once,
// complementing xfraud_lint's per-file rules. Std-only like lint_core: the
// analyzer must build and run even when the library itself doesn't compile.
//
// Passes (rule ids):
//   layering         — an #include "xfraud/<module>/..." edge that is not
//                      strictly downward in the declared module DAG and not
//                      blessed in layering.conf.
//   include-cycle    — a strongly connected component in the module include
//                      graph, reported with the offending include chain.
//   discarded-status — a call to a Status/Result-returning function whose
//                      result is neither assigned, returned, checked, nor
//                      cast to (void).
//   unordered-iter   — iteration over an unordered_map/unordered_set in
//                      src/xfraud, where hash order can leak into results.
//   ingest-bypass    — a Put/PutBatch/Delete/Ingest on a KV store from a
//                      library module other than kv/stream/fault: direct
//                      store mutation outside the ingest tier side-steps
//                      epoch snapshots and crash recovery.
//
// Suppression mirrors lint: `// xfraud-analyze: allow(rule-id)` on the
// offending line or the line above, plus an optional checked-in baseline of
// `file:line: rule-id` lines for gradual adoption.

namespace xfraud::analyze {

using lint::Finding;

/// One blessed (exempt) layering edge: module `from` may include `to` even
/// though `to` is not strictly below it. Cycles are never blessable.
struct BlessedEdge {
  std::string from;
  std::string to;
  std::string reason;
};

/// Parsed layering.conf: lines of `allow <from> -> <to>  # reason`, with
/// `#` comments and blank lines ignored.
struct LayeringConfig {
  std::vector<BlessedEdge> blessed;

  bool IsBlessed(const std::string& from, const std::string& to) const;
};

bool ParseLayeringConfig(const std::string& text, LayeringConfig* config,
                         std::string* error);
bool LoadLayeringConfig(const std::string& path, LayeringConfig* config,
                        std::string* error);

/// Layer of a module in the declared DAG
///   common -> {obs, graph, nn, la} -> {kv, sample, data, baselines}
///          -> {core, fault} -> {train, explain, dist, serve, stream}
/// (0 = common, 4 = top). Returns -1 for a module the DAG does not know,
/// which pass 1 reports as a layering finding.
int ModuleLayer(const std::string& module);

/// All analyzer rule identifiers.
const std::vector<std::string>& RuleIds();

/// One file of the program under analysis. `path` is used both for scoping
/// (library passes key off a "src/xfraud/" component) and for findings.
struct SourceFile {
  std::string path;
  std::string contents;
};

/// Runs all passes over the whole program. Files are analyzed in path
/// order; findings come out grouped by pass, then by file and line, and are
/// deterministic for a given tree.
std::vector<Finding> AnalyzeTree(const std::vector<SourceFile>& files,
                                 const LayeringConfig& config);

/// Collects sources under `roots` (walk semantics of lint's
/// ListSourceFiles: *_fixtures/, build trees, and .git are skipped) and
/// runs AnalyzeTree. Returns false and sets `error` on I/O failure.
bool AnalyzePaths(const std::vector<std::string>& roots,
                  const LayeringConfig& config,
                  std::vector<Finding>* findings, std::string* error);

/// Baseline key for a finding: "file:line: rule-id".
std::string BaselineKey(const Finding& finding);

/// Parses a baseline file body: one BaselineKey per line, `#` comments and
/// blank lines ignored.
std::vector<std::string> ParseBaseline(const std::string& text);

/// Drops findings whose key appears in `baseline`. Baseline entries that
/// matched nothing are appended to `stale` (they point at fixed findings
/// and should be pruned); `stale` may be null.
std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::vector<std::string>& baseline,
                                   std::vector<std::string>* stale);

/// Exit status of a run: 0 when no finding survived the baseline and no
/// baseline entry is stale, else 1. A stale entry fails the run because it
/// would silently re-admit a new finding at that file:line.
int ExitStatus(const std::vector<Finding>& remaining,
               const std::vector<std::string>& stale);

/// Serializes findings as baseline lines (for --write-baseline).
std::string FindingsToBaseline(const std::vector<Finding>& findings);

}  // namespace xfraud::analyze

#endif  // XFRAUD_TOOLS_ANALYZE_ANALYZE_CORE_H_
