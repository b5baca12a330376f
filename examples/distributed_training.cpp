// Distributed training walk-through (paper §3.3 / Figure 5):
//   PIC graph partitioning -> balanced worker groups -> DDP-style training
//   with gradient averaging -> the quality/efficiency trade-off of §4.1.
//
// Each worker is a thread holding a model replica and an induced partition
// graph; every step the replicas' gradients are averaged (the all-reduce),
// so all replicas stay bit-identical — verified at the end.

#include <iostream>
#include <memory>

#include "xfraud/xfraud.h"

using namespace xfraud;

int main() {
  SetMinLogLevel(LogLevel::kWarning);

  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  data::SimDataset dataset = data::TransactionGenerator::Make(config, "dist");
  std::cout << "graph: " << dataset.graph.num_nodes() << " nodes\n\n";

  TablePrinter table({"workers", "best val AUC", "wall s/epoch", "edge cut"});
  for (int kappa : {2, 4, 8}) {
    // Identically seeded replicas (DDP requires equal initial weights).
    std::vector<std::unique_ptr<core::XFraudDetector>> replicas;
    std::vector<core::GnnModel*> ptrs;
    for (int w = 0; w < kappa; ++w) {
      Rng rng(2024);
      core::DetectorConfig dc;
      dc.feature_dim = dataset.graph.feature_dim();
      replicas.push_back(std::make_unique<core::XFraudDetector>(dc, &rng));
      ptrs.push_back(replicas.back().get());
    }

    sample::SageSampler sampler(2, 12);
    dist::DistributedOptions options;
    options.num_workers = kappa;
    options.num_clusters = 64;
    options.train.max_epochs = 8;
    options.train.class_weights = {1.0f, 4.0f};
    options.train.lr = 2e-3f;
    dist::DistributedTrainer trainer(ptrs, &sampler, options);
    dist::DistributedResult result = trainer.Train(dataset);

    table.AddRow({std::to_string(kappa),
                  TablePrinter::Num(result.best_val_auc, 4),
                  TablePrinter::Num(result.mean_wall_epoch_seconds, 3),
                  TablePrinter::Num(result.edge_cut_fraction * 100, 1) + "%"});

    // DDP invariant: replicas are identical after training.
    auto p0 = replicas[0]->Parameters();
    for (int w = 1; w < kappa; ++w) {
      auto pw = replicas[w]->Parameters();
      for (size_t i = 0; i < p0.size(); ++i) {
        if (!p0[i].var.value().BitwiseEqual(pw[i].var.value())) {
          std::cout << "replica divergence detected!\n";
          return 1;
        }
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\nall replicas stayed bit-identical (DDP semantics hold).\n"
            << "shape: measured epoch time falls with workers up to the "
               "host's core count; AUC dips as partitions restrain each "
               "worker's neighbourhoods (§4.1).\n";
  return 0;
}
