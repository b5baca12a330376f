// xfraud_analyze: whole-program static analysis — module layering DAG and
// include cycles, discarded Status/Result results, and unordered-container
// iteration (determinism taint).
//
// Usage:
//   xfraud_analyze [--config=layering.conf] [--baseline=FILE]
//                  [--write-baseline=FILE] [--json=report.json] [--quiet]
//                  [--list-rules] [paths...]
//
// With no paths, analyzes src/ tests/ bench/ examples/ tools/ relative to
// the current directory, and picks up tools/analyze/layering.conf and
// tools/analyze/analyze_baseline.txt when present. Exits 0 when clean, 1 on
// non-baselined findings or stale baseline entries, 2 on usage or I/O
// errors. Findings print as `file:line: rule-id message`. Suppress one site
// with `// xfraud-analyze: allow(rule-id)` on that line or the line above.
//
// The passes and their rationale are documented in DESIGN.md §14.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze_core.h"

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string config_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string json_path;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const std::string& rule : xfraud::analyze::RuleIds()) {
        std::cout << rule << "\n";
      }
      return 0;
    }
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--config=", 0) == 0) {
      config_path = arg.substr(9);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: xfraud_analyze [--config=layering.conf] "
                   "[--baseline=FILE] [--write-baseline=FILE] "
                   "[--json=report.json] [--quiet] [--list-rules] "
                   "[paths...]\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "xfraud_analyze: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
      if (std::filesystem::is_directory(dir)) roots.push_back(dir);
    }
    if (roots.empty()) {
      std::cerr << "xfraud_analyze: no default roots found; run from the "
                   "repo root or pass paths\n";
      return 2;
    }
  }
  if (config_path.empty() &&
      std::filesystem::is_regular_file("tools/analyze/layering.conf")) {
    config_path = "tools/analyze/layering.conf";
  }
  if (baseline_path.empty() &&
      std::filesystem::is_regular_file("tools/analyze/analyze_baseline.txt")) {
    baseline_path = "tools/analyze/analyze_baseline.txt";
  }

  std::string error;
  xfraud::analyze::LayeringConfig config;
  if (!config_path.empty() &&
      !xfraud::analyze::LoadLayeringConfig(config_path, &config, &error)) {
    std::cerr << "xfraud_analyze: " << error << "\n";
    return 2;
  }

  std::vector<xfraud::analyze::Finding> findings;
  if (!xfraud::analyze::AnalyzePaths(roots, config, &findings, &error)) {
    std::cerr << "xfraud_analyze: " << error << "\n";
    return 2;
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "xfraud_analyze: cannot write " << write_baseline_path
                << "\n";
      return 2;
    }
    out << xfraud::analyze::FindingsToBaseline(findings);
  }

  std::vector<std::string> baseline;
  if (!baseline_path.empty()) {
    std::string text;
    if (!xfraud::lint::ReadFileToString(baseline_path, &text, &error)) {
      std::cerr << "xfraud_analyze: " << error << "\n";
      return 2;
    }
    baseline = xfraud::analyze::ParseBaseline(text);
  }
  std::vector<std::string> stale;
  findings = xfraud::analyze::ApplyBaseline(findings, baseline, &stale);

  if (!quiet) {
    for (const auto& f : findings) {
      std::cout << f.file << ":" << f.line << ": " << f.rule << " "
                << f.message << "\n";
    }
    for (const std::string& key : stale) {
      std::cerr << "xfraud_analyze: stale baseline entry (already fixed — "
                   "prune it): "
                << key << "\n";
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "xfraud_analyze: cannot write " << json_path << "\n";
      return 2;
    }
    out << xfraud::lint::FindingsToJson(findings);
  }
  const int status = xfraud::analyze::ExitStatus(findings, stale);
  if (!quiet) {
    std::cout << (status == 0 ? "xfraud_analyze: clean"
                              : "xfraud_analyze: " +
                                    std::to_string(findings.size()) +
                                    " finding(s), " +
                                    std::to_string(stale.size()) +
                                    " stale baseline entr(ies)")
              << "\n";
  }
  return status;
}
