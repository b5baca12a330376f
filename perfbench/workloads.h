#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The four sections every benchmark run executes — single-process
// training, multi-process training, the multi-process serving tier and
// streaming ingest — each in an untraced form (end-to-end metrics) and a
// traced form (per-layer metrics). README.md in this directory says what
// each measures and why.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"
#include "xfraud/data/generator.h"

namespace perfbench {

/// What one run collects: metrics by name, operation accounting and the
/// correctness verdict. Human-readable lines go to stdout as they come.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  /// Operations of one kind: how many were attempted and how many failed.
  void Ops(const std::string& kind, int64_t attempted, int64_t failed);
  /// A correctness check; a false one fails the whole run.
  void Check(bool ok, const std::string& what);
  /// Adds one set-up component (seconds, already a median over repeats).
  void AddSetup(const std::string& component, double seconds);
  void Line(const std::string& text);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  double setup_s() const { return setup_s_; }

 private:
  std::map<std::string, Metric> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  double setup_s_ = 0.0;
  std::vector<std::string> failures_;
};

struct RunOptions {
  std::string workload;
  int feature_dim = 64;  // width of the generated transaction features
  uint64_t seed = 1;
  double seconds = 10.0;  // measured window of the whole run
  bool trace = false;
  std::string work_dir;   // relative scratch directory inside the checkout
};

/// The input every section shares: a seeded sim-small-sized dataset with
/// the workload's feature width.
struct Inputs {
  xfraud::data::GeneratorConfig config;
  xfraud::data::SimDataset ds;
};

/// Generates the dataset (and records its set-up time, the median of
/// repeated generations).
Inputs MakeInputs(const RunOptions& options, Report* report);

/// The untraced run: all four sections, reporting the end-to-end metrics.
void RunEndToEnd(const RunOptions& options, const Inputs& in,
                 Report* report);

/// The traced run: the same sections with spans around the calls into
/// each layer, reporting the per-layer metrics.
void RunLayers(const RunOptions& options, const Inputs& in, Tracer* tracer,
               Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
