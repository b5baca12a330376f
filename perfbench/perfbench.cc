// The xfraud benchmark program. One run generates a seeded dataset and runs
// the four sections — train, train_dist, serve, ingest — then prints every
// metric by name with its unit, the operation accounting, the correctness
// verdict, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (from the repository root, normally through perfbench/run.py):
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// variant and reports the per-layer metrics (README.md).

#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// A workload is the shape of the generated input; every workload runs all
/// four sections, so every run reports every metric.
struct Workload {
  const char* name;
  int feature_dim;  // per-transaction feature width
};

constexpr Workload kWorkloads[] = {
    {"small", 64},   // sim-small as in the paper's Table 3 setting
    {"wide", 128},  // twice the bytes per transaction row
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return hex;
    }
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? std::numeric_limits<double>::max() : 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1>\n";
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (args.count(key) == 0) return Usage("missing argument");
  }
  const Workload* workload = FindWorkload(args["--workload"]);
  if (workload == nullptr) return Usage("unknown workload");
  RunOptions options;
  options.workload = workload->name;
  options.feature_dim = workload->feature_dim;
  char* end = nullptr;
  options.seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed is not a number");
  options.seconds = std::strtod(args["--seconds"].c_str(), &end);
  if (*end != '\0' || !(options.seconds > 0)) {
    return Usage("--seconds is not a positive number");
  }
  options.trace = args["--trace"] == "1";
  // Relative paths keep the serving tier's AF_UNIX socket paths short
  // however deep the checkout sits.
  options.work_dir = ".bench_work/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(options.work_dir);

  const char* commit = std::getenv("PERFBENCH_COMMIT");
  std::cout << "provenance: {\"workload\": " << JsonString(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << JsonNumber(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
            << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
            << ", \"git_commit\": "
            << JsonString(commit != nullptr ? commit : "unknown")
            << ", \"scratch_fs\": "
            << JsonString(FilesystemOf(options.work_dir)) << "}\n";

  Report report;
  std::unique_ptr<Tracer> tracer;
  if (options.trace) tracer = std::make_unique<Tracer>();
  try {
    const Inputs in = MakeInputs(options, &report);
    if (tracer != nullptr) {
      RunLayers(options, in, tracer.get(), &report);
    } else {
      RunEndToEnd(options, in, &report);
    }
  } catch (const std::exception& e) {
    report.Check(false, std::string("exception: ") + e.what());
  }
  std::filesystem::remove_all(options.work_dir);
  if (!options.trace) {
    report.Set("setup_s", report.setup_s(), "s");
  } else {
    const std::string path = ".bench_out/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    std::filesystem::create_directories(".bench_out");
    report.Line("trace: " + std::to_string(tracer->size()) + " spans -> " +
                path + (tracer->WriteChromeJson(path) ? "" : " (failed)"));
  }

  for (const auto& [name, m] : report.metrics()) {
    std::cout << "metric " << name << " = " << JsonNumber(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted()
            << ", \"failed\": " << report.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics()) {
    std::cout << (first ? "" : ", ") << JsonString(name)
              << ": {\"value\": " << JsonNumber(m.value)
              << ", \"unit\": " << JsonString(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
