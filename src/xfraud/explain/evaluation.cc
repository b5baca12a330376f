#include "xfraud/explain/evaluation.h"

#include <algorithm>

#include "xfraud/common/logging.h"
#include "xfraud/train/trainer.h"

namespace xfraud::explain {

CommunityStudy::CommunityStudy(StudyOptions options) : options_(options) {
  // 1. Workload + detector, as in §5.1 (the study runs on the small set).
  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.seed = options.seed;
  // Weaker transaction features put the study's detector near the paper's
  // reported sample AUC (81.88%, §5.1) and make predictions depend on the
  // graph rather than the raw-feature path of the head — which is what the
  // edge-mask explanation is about.
  config.feature_signal = 0.55;
  dataset_ = data::TransactionGenerator::Make(config, "sim-small");

  xfraud::Rng rng(options.seed ^ 0xABCDEF);
  core::DetectorConfig dc;
  dc.feature_dim = dataset_.graph.feature_dim();
  dc.hidden_dim = 32;
  dc.num_heads = 4;
  // Three conv layers so the receptive field covers the full 3-hop
  // community: every community edge can influence the seed's logits and
  // therefore receives real gradient through the explainer's edge mask.
  dc.num_layers = 3;
  detector_ = std::make_unique<core::XFraudDetector>(dc, &rng);

  sample::SageSampler sampler(2, 12);
  train::TrainOptions topts;
  topts.max_epochs = options.detector_epochs;
  topts.patience = options.detector_epochs;
  topts.batch_size = 256;
  topts.lr = 2e-3f;
  topts.class_weights = {1.0f, 4.0f};
  topts.seed = options.seed;
  train::Trainer trainer(detector_.get(), &sampler, topts);
  trainer.Train(dataset_);
  test_auc_ = trainer.Evaluate(dataset_.graph, dataset_.test_nodes).auc;

  // 2. Pick 18 fraud-seeded + 23 benign-seeded communities from the test
  // split with usable sizes.
  std::vector<int32_t> test_nodes = dataset_.test_nodes;
  rng.Shuffle(&test_nodes);
  int fraud_left = options.fraud_communities;
  int benign_left = options.benign_communities;
  data::AnnotationSimulator annotator(
      data::AnnotationSimulator::Options{.seed = options.seed ^ 0x5150});
  GnnExplainer explainer(detector_.get(),
                         GnnExplainerOptions{.seed = options.seed ^ 0xE});
  xfraud::Rng centrality_rng(options.seed ^ 0xC3);

  for (int32_t seed_node : test_nodes) {
    if (fraud_left == 0 && benign_left == 0) break;
    int8_t label = dataset_.graph.label(seed_node);
    int& quota = label == graph::kLabelFraud ? fraud_left : benign_left;
    if (quota == 0) continue;
    // The paper's community takes everything connected to the seed; on the
    // simulated workload shared warehouses weld most of the graph into one
    // component, so the local analogue is the fanout-capped 3-hop
    // neighbourhood — the same local risk-propagation context the case
    // studies (Figs. 11/16/17) show.
    graph::Subgraph sub = graph::KHopSubgraph(dataset_.graph, seed_node,
                                              /*hops=*/3, /*fanout=*/10,
                                              &centrality_rng);
    if (sub.num_nodes() > options.max_community_nodes) continue;
    if (sub.num_nodes() < options.min_community_nodes) continue;
    auto undirected = graph::UndirectedEdges(sub);
    if (undirected.size() < 10) continue;
    --quota;

    CommunityRecord record;
    record.seed_label = label;
    record.undirected = undirected;

    // Simulated expert annotations -> node importance -> edge importance
    // ("avg" aggregation; Appendix E finds no substantial difference).
    record.annotations = annotator.Annotate(dataset_.graph, sub);
    record.node_importance =
        data::AnnotationSimulator::NodeImportance(record.annotations);
    record.human_edges = data::EdgeImportanceFromNodes(
        record.node_importance, undirected, data::EdgeAggregation::kAvg);

    // GNNExplainer on the community (the seed is the node-to-explain).
    sample::MiniBatch batch =
        sample::MakeBatch(dataset_.graph, sub, {seed_node});
    record.sub = batch.sub;
    Explanation explanation = explainer.Explain(batch);
    record.explainer_edges = explanation.undirected_edge_weights;
    {
      nn::NoGradGuard no_tape;
      core::ForwardOptions eval;
      nn::Var logits = detector_->Forward(batch, eval);
      record.seed_score = core::FraudProbabilities(logits)[0];
    }

    // All 13 centrality measures (or the cheap 11).
    record.centrality_edges.resize(kNumCentralityMeasures);
    for (int m = 0; m < kNumCentralityMeasures; ++m) {
      auto measure = static_cast<CentralityMeasure>(m);
      if (!options.all_measures &&
          (measure == CentralityMeasure::kCommunicabilityBetweenness ||
           measure == CentralityMeasure::kSubgraph)) {
        continue;
      }
      record.centrality_edges[m] = EdgeWeightsByCentrality(
          undirected, sub.num_nodes(), measure, &centrality_rng);
    }
    communities_.push_back(std::move(record));
  }
  XF_CHECK_GE(communities_.size(), 30u)
      << "not enough usable communities in the test split";
}

std::vector<CommunityWeights> CommunityStudy::Weights(
    CentralityMeasure measure) const {
  std::vector<CommunityWeights> out;
  out.reserve(communities_.size());
  for (const auto& record : communities_) {
    CommunityWeights w;
    w.centrality = record.centrality_edges[static_cast<int>(measure)];
    w.explainer = record.explainer_edges;
    w.human = record.human_edges;
    XF_CHECK(!w.centrality.empty());
    out.push_back(std::move(w));
  }
  return out;
}

void CommunityStudy::SplitTrainTest(const std::vector<CommunityWeights>& all,
                                    std::vector<CommunityWeights>* train,
                                    std::vector<CommunityWeights>* test) {
  // §5.1: first 21 communities train, last 20 test.
  size_t n_train = std::min<size_t>(21, all.size());
  train->assign(all.begin(), all.begin() + n_train);
  test->assign(all.begin() + n_train, all.end());
}

}  // namespace xfraud::explain
