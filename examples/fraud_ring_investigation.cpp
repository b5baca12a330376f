// Fraud-ring investigation: the paper's Figure 11 workflow end to end.
//
// A business-unit analyst receives a flagged transaction. This example
//  1. trains the detector on a workload containing fraud rings,
//  2. picks a flagged (high-risk) transaction from the test split,
//  3. runs the GNNExplainer and the centrality measures on its community,
//  4. combines them with the hybrid explainer, and
//  5. renders the community with edge-importance bars — the thick edges are
//     the risk-propagation paths the analyst should audit first.

#include <algorithm>
#include <iostream>

#include "xfraud/xfraud.h"

using namespace xfraud;

int main() {
  SetMinLogLevel(LogLevel::kWarning);

  // Workload with pronounced ring structure.
  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.num_buyers = 1500;
  config.num_fraud_rings = 20;
  data::SimDataset dataset = data::TransactionGenerator::Make(config, "ring");
  const graph::HeteroGraph& g = dataset.graph;

  Rng rng(11);
  core::DetectorConfig dc;
  dc.feature_dim = g.feature_dim();
  dc.num_layers = 3;  // cover the 3-hop communities we explain below
  core::XFraudDetector detector(dc, &rng);
  sample::SageSampler sampler(2, 12);
  train::TrainOptions opts;
  opts.max_epochs = 14;
  opts.class_weights = {1.0f, 4.0f};
  opts.lr = 2e-3f;
  train::Trainer trainer(&detector, &sampler, opts);
  trainer.Train(dataset);
  std::cout << "detector test AUC: "
            << TablePrinter::Num(
                   trainer.Evaluate(g, dataset.test_nodes).auc, 4)
            << "\n\n";

  // Find a confidently flagged fraud with a meaty community.
  int32_t suspect = -1;
  graph::Subgraph community;
  Rng pick_rng(3);
  for (int32_t v : dataset.test_nodes) {
    if (g.label(v) != graph::kLabelFraud) continue;
    graph::Subgraph sub = graph::KHopSubgraph(g, v, 3, 10, &pick_rng);
    if (sub.num_nodes() < 15 || sub.num_nodes() > 60) continue;
    sample::MiniBatch batch = sample::MakeBatch(g, sub, {v});
    double risk = core::FraudProbabilities(
        detector.Forward(batch, core::ForwardOptions{}))[0];
    if (risk > 0.9) {
      suspect = v;
      community = std::move(sub);
      break;
    }
  }
  if (suspect < 0) {
    std::cout << "no confidently flagged transaction found; rerun with "
                 "another seed\n";
    return 1;
  }
  std::cout << "investigating flagged transaction node " << suspect << "\n";

  // Task-aware weights: GNNExplainer on the community.
  sample::MiniBatch batch = sample::MakeBatch(g, community, {suspect});
  explain::GnnExplainer explainer(&detector, explain::GnnExplainerOptions{});
  explain::Explanation explanation = explainer.Explain(batch);

  // Task-agnostic weights: edge betweenness (Table 1's best top-5 measure).
  Rng c_rng(5);
  auto undirected = graph::UndirectedEdges(community);
  auto centrality = explain::EdgeWeightsByCentrality(
      undirected, community.num_nodes(),
      explain::CentralityMeasure::kEdgeBetweenness, &c_rng);

  // Hybrid: A*w(c) + B*w(e) with the paper's grid-searched default of an
  // even blend when no training communities are provided.
  explain::CommunityWeights weights;
  weights.centrality = centrality;
  weights.explainer = explanation.undirected_edge_weights;
  weights.human.assign(undirected.size(), 0.0);  // unused by Combine
  explain::CommunityWeights normalized = weights;
  std::vector<explain::CommunityWeights> train_set = {weights};
  explain::HybridExplainer hybrid =
      explain::HybridExplainer::FitGrid(train_set, 10, &c_rng);
  auto hybrid_weights = hybrid.Combine(weights);

  std::cout << "hybrid coefficients: A(centrality)="
            << TablePrinter::Num(hybrid.a(), 2)
            << " B(explainer)=" << TablePrinter::Num(hybrid.b(), 2) << "\n\n";
  std::cout << explain::RenderCommunity(g, community, hybrid_weights, 18);

  std::cout << "\nnode-feature importance (top 5 dimensions for the "
               "suspect):\n";
  const nn::Tensor& mask = explanation.node_feature_mask;
  std::vector<std::pair<float, int64_t>> dims;
  for (int64_t cdim = 0; cdim < mask.cols(); ++cdim) {
    dims.push_back({mask.At(community.seed_local, cdim), cdim});
  }
  std::sort(dims.rbegin(), dims.rend());
  for (int i = 0; i < 5; ++i) {
    std::cout << "  feature[" << dims[i].second << "] weight "
              << TablePrinter::Num(dims[i].first, 3) << "\n";
  }
  return 0;
}
