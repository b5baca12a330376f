// The paper's end-to-end evaluation on eBay-xlarge, regenerated on
// sim-xlarge (DESIGN.md §1):
//   Table 3 / Table 7 — AUC/AP/accuracy, train s/epoch, inference s/batch
//                        for GAT, GEM, xFraud detector+ on 8 and 16 workers,
//                        seeds A and B;
//   Figure 8  — precision/recall curves per setting;
//   Figure 9  — ROC curves for FPR < 0.1;  Figure 15 — full-range ROC;
//   Figure 14 — convergence (val AUC per epoch);
//   Tables 14-16 — TPR/FNR/FPR/TNR at score thresholds;
//   Tables 17-19 — precision/recall at score thresholds + the Appendix H.4
//                  production back-projection.
//
// All 12 runs share one synthetic workload; "train s/epoch" is the measured
// wall-clock epoch of the threaded DDP run (one thread per worker, so 8 and
// 16 workers oversubscribe a host with fewer cores — see EXPERIMENTS.md).

#include <cmath>
#include <map>

#include "bench_common.h"

namespace xfraud::bench {
namespace {

struct RunResult {
  std::string model;
  int workers = 8;
  std::string seed_name;
  train::EvalResult test;
  dist::DistributedResult dist;
};

RunResult RunOne(const data::SimDataset& ds, const std::string& model_name,
                 int workers, const std::string& seed_name, uint64_t seed,
                 int epochs) {
  std::vector<std::unique_ptr<core::GnnModel>> replicas;
  std::vector<core::GnnModel*> ptrs;
  for (int w = 0; w < workers; ++w) {
    replicas.push_back(MakeModel(model_name, ds.graph, seed));
    ptrs.push_back(replicas.back().get());
  }
  sample::SageSampler sampler(2, 12);
  dist::DistributedOptions options;
  options.num_workers = workers;
  options.num_clusters = 128;
  options.train = BenchTrainOptions(seed, epochs);

  RunResult out;
  out.model = model_name;
  out.workers = workers;
  out.seed_name = seed_name;
  dist::DistributedTrainer trainer(ptrs, &sampler, options);
  out.dist = trainer.Train(ds);

  // Test-set scores + per-batch timings via replica 0 on the full graph
  // (batch of 640 nodes, like the paper's inference measurements).
  // Trainer::Evaluate runs the BatchLoader pipeline and reports sampling
  // and model-forward time separately — the paper's "inference (s/batch)"
  // is the forward column.
  sample::SageSampler eval_sampler(2, 12);
  train::TrainOptions eval_opts;
  eval_opts.seed = seed ^ 0xFEED;
  eval_opts.num_sample_workers = SampleWorkersFromEnv();
  train::Trainer evaluator(ptrs[0], &eval_sampler, eval_opts);
  out.test = evaluator.Evaluate(ds.graph, ds.test_nodes, 640);
  return out;
}

void PrintCurves(const std::vector<RunResult>& runs) {
  std::cout << "\n-- Figure 8 analogue: precision/recall curves "
               "(per model, seed A, both worker counts) --\n";
  for (const auto& r : runs) {
    if (r.seed_name != "A") continue;
    auto curve = train::ThinCurve(train::PrCurve(r.test.scores,
                                                 r.test.labels),
                                  12);
    std::cout << r.model << " (" << r.workers << " workers): ";
    for (const auto& p : curve) {
      std::cout << "(r=" << TablePrinter::Num(p.x, 2)
                << ",p=" << TablePrinter::Num(p.y, 2) << ") ";
    }
    std::cout << "\n";
  }

  std::cout << "\n-- Figure 9 analogue: ROC, zoom FPR < 0.1 --\n";
  for (const auto& r : runs) {
    if (r.seed_name != "A") continue;
    auto curve = train::RocCurve(r.test.scores, r.test.labels);
    std::vector<train::CurvePoint> zoom;
    for (const auto& p : curve) {
      if (p.x <= 0.1) zoom.push_back(p);
    }
    zoom = train::ThinCurve(zoom, 10);
    std::cout << r.model << " (" << r.workers << " workers): ";
    for (const auto& p : zoom) {
      std::cout << "(fpr=" << TablePrinter::Num(p.x, 3)
                << ",tpr=" << TablePrinter::Num(p.y, 3) << ") ";
    }
    std::cout << "\n";
  }

  std::cout << "\n-- Figure 15 analogue: ROC, full range --\n";
  for (const auto& r : runs) {
    if (r.seed_name != "A") continue;
    auto curve =
        train::ThinCurve(train::RocCurve(r.test.scores, r.test.labels), 10);
    std::cout << r.model << " (" << r.workers << " workers): ";
    for (const auto& p : curve) {
      std::cout << "(" << TablePrinter::Num(p.x, 2) << ","
                << TablePrinter::Num(p.y, 2) << ") ";
    }
    std::cout << "\n";
  }
}

void PrintThresholdTables(const std::vector<RunResult>& runs) {
  const std::vector<double> coarse = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9};
  std::cout << "\n-- Tables 14-16 analogue: TPR / TNR at thresholds "
               "(FNR = 1-TPR, FPR = 1-TNR) --\n";
  TablePrinter rates({"Model", "workers", "seed", "metric", "0.1", "0.3",
                      "0.5", "0.7", "0.9"});
  for (const auto& r : runs) {
    std::vector<std::string> tpr_row = {r.model, std::to_string(r.workers),
                                        r.seed_name, "TPR"};
    std::vector<std::string> tnr_row = {r.model, std::to_string(r.workers),
                                        r.seed_name, "TNR"};
    for (double t : {0.1, 0.3, 0.5, 0.7, 0.9}) {
      auto m = train::MetricsAtThreshold(r.test.scores, r.test.labels, t);
      tpr_row.push_back(m.any_predicted_positive
                            ? TablePrinter::Num(m.tpr, 4)
                            : "-");
      tnr_row.push_back(TablePrinter::Num(m.tnr, 4));
    }
    rates.AddRow(tpr_row);
    rates.AddRow(tnr_row);
  }
  rates.Print(std::cout);

  std::cout << "\n-- Tables 17-19 analogue: precision / recall at "
               "thresholds --\n";
  TablePrinter pr({"Model", "workers", "seed", "metric", "0.5", "0.7", "0.9",
                   "0.95", "0.98"});
  for (const auto& r : runs) {
    std::vector<std::string> p_row = {r.model, std::to_string(r.workers),
                                      r.seed_name, "precision"};
    std::vector<std::string> r_row = {r.model, std::to_string(r.workers),
                                      r.seed_name, "recall"};
    for (double t : {0.5, 0.7, 0.9, 0.95, 0.98}) {
      auto m = train::MetricsAtThreshold(r.test.scores, r.test.labels, t);
      p_row.push_back(m.any_predicted_positive
                          ? TablePrinter::Num(m.precision, 4)
                          : "-");
      r_row.push_back(m.any_predicted_positive
                          ? TablePrinter::Num(m.recall, 4)
                          : "-");
    }
    pr.AddRow(p_row);
    pr.AddRow(r_row);
  }
  pr.Print(std::cout);

  // Appendix H.4: high-precision operating point of detector+ projected
  // back to the pre-downsampling stream (1% benign kept).
  std::cout << "\n-- Appendix H.4: production back-projection (detector+, "
               "seed A, 8 workers) --\n";
  for (const auto& r : runs) {
    if (r.model != "xFraud detector+" || r.workers != 8 ||
        r.seed_name != "A") {
      continue;
    }
    // Find thresholds giving ~0.1 / ~0.2 recall.
    for (double target_recall : {0.1, 0.2, 0.3}) {
      double best_t = 0.5;
      for (double t = 0.999; t > 0.5; t -= 0.001) {
        auto m = train::MetricsAtThreshold(r.test.scores, r.test.labels, t);
        if (m.recall >= target_recall) {
          best_t = t;
          break;
        }
      }
      auto m = train::MetricsAtThreshold(r.test.scores, r.test.labels,
                                         best_t);
      double projected = train::BackProjectPrecision(m.precision, 0.01);
      std::cout << "recall~" << target_recall << ": threshold "
                << TablePrinter::Num(best_t, 3) << ", sampled precision "
                << TablePrinter::Num(m.precision, 3)
                << " -> stream precision "
                << TablePrinter::Num(projected, 3) << " (paper: 0.98->0.32 "
                << "at recall 0.1; 0.95->0.16 at recall 0.2)\n";
    }
  }
}

// Batch pipeline ablation (sim-small, single replica): the same training
// run with 0 / 2 / 4 sampler workers. Loss trajectories are bit-identical
// by construction (per-batch RNG streams), so the only difference is where
// sampling time goes: serially before each step, or overlapped with it.
//
// The config is the sampling-bound corner of the design space — the
// HGSampling sampler (whose per-type budget bookkeeping makes it the
// expensive sampler, the effect Figure 10 measures) feeding a small
// detector — because that is where a prefetch pipeline has anything to
// hide; with detector+'s SageSampler, sampling is <1% of an epoch and
// pipelining is free but irrelevant. Each row reports its own measured
// sample/compute split plus the overlap-model epoch time derived from
// those same measurements (sample + compute serial, max(sample, compute)
// pipelined), so the speedup column is insensitive to machine load.
// The wall column shows the win only when cores are free for the sampler
// threads.
void PipelineAblation(int epochs) {
  std::cout << "\n-- Batch pipeline ablation: serial vs pipelined sampling "
               "(detector/HGSampling, sim-small, seed A) --\n";
  data::SimDataset small = data::TransactionGenerator::Make(
      data::TransactionGenerator::SimSmall(), "sim-small");
  TablePrinter table({"sample workers", "epoch s (wall)", "sample s/epoch",
                      "compute s/epoch", "epoch s (overlap model)",
                      "model speedup", "final loss"});
  double serial_loss = 0.0;
  bool identical = true;
  for (int workers : {0, 2, 4}) {
    Rng model_rng(kSeedA);
    core::DetectorConfig dc;
    dc.feature_dim = small.graph.feature_dim();
    dc.hidden_dim = 8;
    dc.num_heads = 2;
    dc.num_layers = 1;
    core::XFraudDetector model(dc, &model_rng);
    sample::HgSampler sampler(/*depth=*/6, /*width=*/192);
    train::TrainOptions opts = BenchTrainOptions(kSeedA, epochs);
    opts.num_sample_workers = workers;
    train::Trainer trainer(&model, &sampler, opts);
    train::TrainResult result = trainer.Train(small);
    double sample = result.mean_epoch_sample_seconds;
    double compute = result.mean_epoch_compute_seconds;
    double serial_modeled = sample + compute;
    double modeled = workers > 0 ? std::max(sample, compute) : serial_modeled;
    double final_loss = result.history.back().train_loss;
    if (workers == 0) {
      serial_loss = final_loss;
    } else if (final_loss != serial_loss) {
      identical = false;
    }
    table.AddRow({std::to_string(workers),
                  TablePrinter::Num(result.mean_epoch_seconds, 3),
                  TablePrinter::Num(sample, 3), TablePrinter::Num(compute, 3),
                  TablePrinter::Num(modeled, 3),
                  workers == 0
                      ? std::string("-")
                      : TablePrinter::Num(serial_modeled / modeled, 2) + "x",
                  TablePrinter::Num(final_loss, 6)});
  }
  table.Print(std::cout);
  std::cout << (identical
                    ? "loss trajectories bit-identical across worker counts\n"
                    : "WARNING: loss trajectories diverged across worker "
                      "counts (pipeline determinism bug)\n");
}

void Run() {
  bool fast = FastMode();
  PrintHeader("End-to-end distributed evaluation",
              "Table 3, Table 7, Figures 8/9/14/15, Tables 14-19");

  data::GeneratorConfig config = fast
                                     ? data::TransactionGenerator::SimSmall()
                                     : data::TransactionGenerator::SimXLarge();
  data::SimDataset ds = data::TransactionGenerator::Make(
      config, fast ? "sim-small" : "sim-xlarge");
  std::cout << "dataset: " << ds.name << " (" << ds.graph.num_nodes()
            << " nodes, " << ds.graph.num_edges() / 2 << " undirected edges, "
            << TablePrinter::Num(ds.graph.FraudRate() * 100, 2)
            << "% fraud)\n";

  int epochs = fast ? 3 : 6;
  std::vector<std::string> models = {"GAT", "GEM", "xFraud detector+"};
  std::vector<int> worker_counts = {8, 16};
  std::vector<std::pair<std::string, uint64_t>> seeds = {{"A", kSeedA},
                                                         {"B", kSeedB}};
  std::vector<RunResult> runs;
  for (const auto& model : models) {
    for (int workers : worker_counts) {
      for (const auto& [seed_name, seed] : seeds) {
        WallTimer t;
        runs.push_back(RunOne(ds, model, workers, seed_name, seed, epochs));
        std::cout << "ran " << model << " x" << workers << " seed "
                  << seed_name << " in "
                  << TablePrinter::Num(t.ElapsedSeconds(), 1) << "s (AUC "
                  << TablePrinter::Num(runs.back().test.auc, 4) << ")\n";
      }
    }
  }

  // ---- Table 7 (full) and Table 3 (seed-averaged) ------------------------
  std::cout << "\n-- Table 7 analogue: per-seed results --\n";
  TablePrinter t7({"Model", "# workers", "Seed", "Accuracy", "AP", "AUC",
                   "Train (s/epoch)", "Inference (s/batch)",
                   "Sampling (s/batch)"});
  for (const auto& r : runs) {
    char inference[64];
    std::snprintf(inference, sizeof(inference), "%.4f +/- %.4f",
                  r.test.secs_per_batch_mean, r.test.secs_per_batch_std);
    char sampling[64];
    std::snprintf(sampling, sizeof(sampling), "%.4f +/- %.4f",
                  r.test.sample_secs_per_batch_mean,
                  r.test.sample_secs_per_batch_std);
    t7.AddRow({r.model, std::to_string(r.workers), r.seed_name,
               TablePrinter::Num(r.test.accuracy, 4),
               TablePrinter::Num(r.test.ap, 4),
               TablePrinter::Num(r.test.auc, 4),
               TablePrinter::Num(r.dist.mean_wall_epoch_seconds, 3),
               inference, sampling});
  }
  t7.Print(std::cout);
  std::cout << "(inference is model forward only; sampling is reported "
               "separately and overlaps it when sample workers are on)\n";

  std::cout << "\n-- Table 3 analogue: averaged over seeds A/B --\n";
  TablePrinter t3({"# workers", "Model", "AUC", "Train (s/epoch)",
                   "Inference (s/batch)", "Speedup vs 8"});
  std::map<std::string, double> epoch8;
  for (int workers : worker_counts) {
    for (const auto& model : models) {
      double auc = 0.0, epoch_s = 0.0, inf = 0.0;
      int n = 0;
      for (const auto& r : runs) {
        if (r.model != model || r.workers != workers) continue;
        auc += r.test.auc;
        epoch_s += r.dist.mean_wall_epoch_seconds;
        inf += r.test.secs_per_batch_mean;
        ++n;
      }
      auc /= n;
      epoch_s /= n;
      inf /= n;
      std::string speedup = "-";
      if (workers == 8) {
        epoch8[model] = epoch_s;
      } else {
        speedup = TablePrinter::Num(epoch8[model] / epoch_s, 2) + "x";
      }
      t3.AddRow({std::to_string(workers), model, TablePrinter::Num(auc, 4),
                 TablePrinter::Num(epoch_s, 3), TablePrinter::Num(inf, 4),
                 speedup});
    }
  }
  t3.Print(std::cout);
  std::cout << "(paper shape: detector+ best AUC; GEM fastest inference; "
               "16 workers ~1.8x faster per epoch with equal-or-lower "
               "AUC)\n";

  // ---- Figure 14: convergence ---------------------------------------------
  std::cout << "\n-- Figure 14 analogue: val AUC per epoch --\n";
  for (const auto& r : runs) {
    std::cout << r.model << " x" << r.workers << " seed " << r.seed_name
              << ": ";
    for (const auto& e : r.dist.history) {
      std::cout << TablePrinter::Num(e.val_auc, 3) << " ";
    }
    std::cout << "\n";
  }

  PrintCurves(runs);
  PrintThresholdTables(runs);
  PipelineAblation(fast ? 2 : 3);
  EmitObsSnapshot();
}

}  // namespace
}  // namespace xfraud::bench

int main() {
  xfraud::SetMinLogLevel(xfraud::LogLevel::kWarning);
  xfraud::bench::InitObsFromEnv();
  xfraud::bench::Run();
  return 0;
}
