// Quickstart: the 5-minute tour of the xFraud reproduction.
//
//  1. Build a heterogeneous transaction graph from raw transaction records.
//  2. Train the xFraud detector+ (self-attentive heterogeneous GNN with a
//     GraphSAGE-style sampler).
//  3. Score unseen transactions and inspect the metrics.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/example_quickstart

#include <iostream>

#include "xfraud/xfraud.h"

using namespace xfraud;

int main() {
  SetMinLogLevel(LogLevel::kWarning);

  // --- 1. Data: a synthetic e-commerce workload with planted fraud rings,
  // stolen cards and shared warehouse addresses (stands in for the
  // proprietary eBay logs; see DESIGN.md).
  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.num_buyers = 1200;  // keep the quickstart snappy
  data::SimDataset dataset = data::TransactionGenerator::Make(config, "demo");
  const graph::HeteroGraph& g = dataset.graph;
  std::cout << "graph: " << g.num_nodes() << " nodes, " << g.num_edges() / 2
            << " undirected edges, "
            << TablePrinter::Num(g.FraudRate() * 100, 1) << "% fraud\n";

  // --- 2. Model: the detector wants to know the feature dimensionality;
  // everything else has paper-inspired defaults.
  Rng rng(42);
  core::DetectorConfig dc;
  dc.feature_dim = g.feature_dim();
  core::XFraudDetector detector(dc, &rng);
  std::cout << "detector: " << detector.ParameterCount()
            << " trainable parameters\n";

  // --- 3. Training: detector+ = detector + GraphSAGE-style sampler.
  sample::SageSampler sampler(/*hops=*/2, /*fanout=*/12);
  train::TrainOptions opts;
  opts.max_epochs = 12;
  opts.class_weights = {1.0f, 4.0f};  // upweight the rare fraud class
  opts.lr = 2e-3f;
  opts.verbose = false;
  train::Trainer trainer(&detector, &sampler, opts);
  auto result = trainer.Train(dataset);
  std::cout << "trained " << result.history.size() << " epochs ("
            << TablePrinter::Num(result.mean_epoch_seconds, 2)
            << " s/epoch), best val AUC "
            << TablePrinter::Num(result.best_val_auc, 4) << "\n";

  // --- 4. Evaluation on held-out transactions.
  auto test = trainer.Evaluate(g, dataset.test_nodes);
  std::cout << "test: AUC " << TablePrinter::Num(test.auc, 4) << ", AP "
            << TablePrinter::Num(test.ap, 4) << ", accuracy "
            << TablePrinter::Num(test.accuracy, 4) << "\n";

  // --- 5. Score one incoming transaction.
  int32_t txn = dataset.test_nodes.front();
  Rng score_rng(7);
  sample::MiniBatch batch = sampler.SampleBatch(g, {txn}, &score_rng);
  nn::Var logits = detector.Forward(batch, core::ForwardOptions{});
  double risk = core::FraudProbabilities(logits)[0];
  std::cout << "transaction node " << txn << ": risk score "
            << TablePrinter::Num(risk, 4) << " (label: "
            << (g.label(txn) == graph::kLabelFraud ? "fraud" : "benign")
            << ")\n";
  return 0;
}
