#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/timer.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/dist/distributed.h"
#include "xfraud/dist/partition.h"
#include "xfraud/dist/worker.h"
#include "xfraud/graph/subgraph.h"

namespace xfraud::dist {
namespace {

TEST(KMeans1DTest, SeparatesTwoClusters) {
  std::vector<double> values = {0.1, 0.12, 0.09, 0.11, 5.0, 5.1, 4.9};
  Rng rng(1);
  auto assign = KMeans1D(values, 2, &rng);
  // First four together, last three together, different ids.
  EXPECT_EQ(assign[0], assign[1]);
  EXPECT_EQ(assign[0], assign[2]);
  EXPECT_EQ(assign[4], assign[5]);
  EXPECT_EQ(assign[4], assign[6]);
  EXPECT_NE(assign[0], assign[4]);
}

TEST(KMeans1DTest, HandlesKLargerThanN) {
  std::vector<double> values = {1.0, 2.0};
  Rng rng(2);
  auto assign = KMeans1D(values, 5, &rng);
  EXPECT_EQ(assign.size(), 2u);
}

TEST(GroupClustersTest, BalancesNodeCounts) {
  // 6 clusters, sizes summing to 60, 3 groups => ~20 nodes each.
  std::vector<int64_t> sizes = {5, 25, 10, 8, 7, 5};
  auto groups = GroupClusters(sizes, 3);
  std::vector<int64_t> load(3, 0);
  for (size_t c = 0; c < sizes.size(); ++c) {
    ASSERT_GE(groups[c], 0);
    ASSERT_LT(groups[c], 3);
    load[groups[c]] += sizes[c];
  }
  int64_t max_load = *std::max_element(load.begin(), load.end());
  int64_t min_load = *std::min_element(load.begin(), load.end());
  EXPECT_GT(min_load, 0);
  EXPECT_LE(max_load, 2 * 20);  // within 2x of the ideal
}

TEST(GroupClustersTest, UsesAllGroupsWhenPossible) {
  std::vector<int64_t> sizes(16, 10);
  auto groups = GroupClusters(sizes, 4);
  std::set<int> used(groups.begin(), groups.end());
  EXPECT_EQ(used.size(), 4u);
}

class PartitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 800;
    config.num_fraud_rings = 12;
    config.num_stolen_cards = 20;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "dist-test"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static data::SimDataset* ds_;
};

data::SimDataset* PartitionTest::ds_ = nullptr;

TEST_F(PartitionTest, PicAssignsEveryNode) {
  Rng rng(3);
  auto clusters = PowerIterationClustering(ds_->graph, 16, &rng);
  ASSERT_EQ(static_cast<int64_t>(clusters.size()), ds_->graph.num_nodes());
  for (int c : clusters) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 16);
  }
}

TEST_F(PartitionTest, PicKeepsTightCommunitiesTogether) {
  // Nodes of the same connected component embed to the same PIC value, so
  // small communities should rarely be split. Check: for a sample of
  // transactions, their direct entity neighbours mostly share the cluster.
  Rng rng(4);
  auto clusters = PowerIterationClustering(ds_->graph, 32, &rng);
  int64_t same = 0, total = 0;
  auto txns = ds_->graph.LabeledTransactions();
  for (size_t i = 0; i < txns.size(); i += 7) {
    int32_t v = txns[i];
    for (int64_t e = ds_->graph.InDegreeBegin(v);
         e < ds_->graph.InDegreeEnd(v); ++e) {
      same += clusters[ds_->graph.neighbors()[e]] == clusters[v];
      ++total;
    }
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(same) / total, 0.6);
}

TEST_F(PartitionTest, WorkersReceiveBalancedNodeCounts) {
  Rng rng(5);
  auto worker_of = PartitionForWorkers(ds_->graph, 128, 8, &rng);
  std::vector<int64_t> load(8, 0);
  for (int w : worker_of) ++load[w];
  int64_t total = std::accumulate(load.begin(), load.end(), int64_t{0});
  EXPECT_EQ(total, ds_->graph.num_nodes());
  int64_t ideal = total / 8;
  for (int64_t l : load) {
    EXPECT_GT(l, ideal / 4);
    EXPECT_LT(l, ideal * 4);
  }
}

TEST_F(PartitionTest, InducedGraphPreservesLocalStructure) {
  Rng rng(6);
  auto worker_of = PartitionForWorkers(ds_->graph, 64, 4, &rng);
  std::vector<int32_t> nodes;
  for (int64_t v = 0; v < ds_->graph.num_nodes(); ++v) {
    if (worker_of[v] == 0) nodes.push_back(static_cast<int32_t>(v));
  }
  std::vector<int32_t> local_to_global;
  graph::HeteroGraph part =
      graph::InducedGraph(ds_->graph, nodes, &local_to_global);
  EXPECT_EQ(part.num_nodes(), static_cast<int64_t>(nodes.size()));
  EXPECT_LE(part.num_edges(), ds_->graph.num_edges());
  // Types, labels and features survive the projection.
  for (int64_t local = 0; local < part.num_nodes(); ++local) {
    int32_t global = local_to_global[local];
    EXPECT_EQ(part.node_type(static_cast<int32_t>(local)),
              ds_->graph.node_type(global));
    EXPECT_EQ(part.label(static_cast<int32_t>(local)),
              ds_->graph.label(global));
    if (ds_->graph.HasFeatures(global)) {
      ASSERT_TRUE(part.HasFeatures(static_cast<int32_t>(local)));
      EXPECT_EQ(part.Features(static_cast<int32_t>(local))[0],
                ds_->graph.Features(global)[0]);
    }
  }
}

core::XFraudDetector MakeReplica(int64_t feature_dim, uint64_t seed) {
  Rng rng(seed);
  core::DetectorConfig dc;
  dc.feature_dim = feature_dim;
  dc.hidden_dim = 16;
  dc.num_heads = 2;
  dc.num_layers = 2;
  return core::XFraudDetector(dc, &rng);
}

TEST_F(PartitionTest, DistributedTrainingLearnsAndKeepsReplicasInSync) {
  const int kappa = 4;
  std::vector<std::unique_ptr<core::XFraudDetector>> replicas;
  std::vector<core::GnnModel*> ptrs;
  for (int w = 0; w < kappa; ++w) {
    replicas.push_back(std::make_unique<core::XFraudDetector>(
        MakeReplica(ds_->graph.feature_dim(), 77)));
    ptrs.push_back(replicas.back().get());
  }
  sample::SageSampler sampler(2, 8);
  DistributedOptions options;
  options.num_workers = kappa;
  options.num_clusters = 32;
  options.train.max_epochs = 12;
  options.train.patience = 12;
  options.train.batch_size = 128;
  options.train.lr = 2e-3f;
  options.train.class_weights = {1.0f, 4.0f};
  DistributedTrainer trainer(ptrs, &sampler, options);
  DistributedResult result = trainer.Train(*ds_);

  // Learned something (the bar is modest: 4-way partitioned training on a
  // small graph converges slowly).
  EXPECT_GT(result.best_val_auc, 0.65);
  EXPECT_EQ(result.partition_nodes.size(), static_cast<size_t>(kappa));
  EXPECT_GT(result.edge_cut_fraction, 0.0);
  EXPECT_LT(result.edge_cut_fraction, 0.9);

  // DDP invariant: all replicas hold identical weights after training.
  auto p0 = replicas[0]->Parameters();
  for (int w = 1; w < kappa; ++w) {
    auto pw = replicas[w]->Parameters();
    ASSERT_EQ(p0.size(), pw.size());
    for (size_t i = 0; i < p0.size(); ++i) {
      const auto& a = p0[i].var.value();
      const auto& b = pw[i].var.value();
      ASSERT_TRUE(a.SameShape(b));
      for (int64_t j = 0; j < a.size(); ++j) {
        ASSERT_EQ(a.data()[j], b.data()[j])
            << "replica " << w << " diverged at " << p0[i].name;
      }
    }
  }
}

/// A replica whose `fail_at`-th Forward throws: the rank training it fails
/// for good mid-epoch.
class ThrowingReplica : public core::GnnModel {
 public:
  ThrowingReplica(core::XFraudDetector inner, int fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  nn::Var Forward(const sample::MiniBatch& batch,
                  const core::ForwardOptions& options) const override {
    if (++calls_ == fail_at_) throw std::runtime_error("replica failed");
    return inner_.Forward(batch, options);
  }
  std::string name() const override { return "throwing"; }
  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParameter>* out) const override {
    inner_.CollectParameters(prefix, out);
  }

 private:
  core::XFraudDetector inner_;
  int fail_at_;
  mutable int calls_ = 0;
};

/// A thread rank that fails for good closes the rendezvous, so the
/// survivors' rejoin fails at once instead of waiting out its 60 s budget,
/// and Train rethrows the failed rank's exception.
TEST_F(PartitionTest, ARankThatFailsForGoodStopsTheOthersFast) {
  const int kappa = 3;
  std::vector<std::unique_ptr<core::GnnModel>> replicas;
  std::vector<core::GnnModel*> ptrs;
  for (int w = 0; w < kappa; ++w) {
    core::XFraudDetector replica = MakeReplica(ds_->graph.feature_dim(), 77);
    if (w == 1) {
      replicas.push_back(
          std::make_unique<ThrowingReplica>(std::move(replica), 3));
    } else {
      replicas.push_back(
          std::make_unique<core::XFraudDetector>(std::move(replica)));
    }
    ptrs.push_back(replicas.back().get());
  }
  sample::SageSampler sampler(2, 8);
  DistributedOptions options;
  options.num_workers = kappa;
  options.num_clusters = 32;
  options.train.max_epochs = 2;
  options.train.batch_size = 128;
  DistributedTrainer trainer(ptrs, &sampler, options);
  WallTimer timer;
  EXPECT_THROW(trainer.Train(*ds_), std::runtime_error);
  EXPECT_LT(timer.ElapsedSeconds(), 5.0);
}

/// Rank 0 hosts the rendezvous and writes the run's result, so a process
/// cluster refuses to plan its kill before doing anything else.
TEST_F(PartitionTest, ProcessModeRejectsARank0Kill) {
  DistWorkerOptions worker;
  worker.world = 2;
  worker.dist.num_workers = 2;
  worker.dist.fault_plan = fault::FaultPlan::Parse("kill_worker=0@0:0").value();
  Result<DistributedResult> result = RunDistWorker(*ds_, worker);
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST_F(PartitionTest, MoreWorkersShrinkTheLargestPartition) {
  // A rank's epoch work scales with its partition, so the largest partition
  // bounds the epoch: doubling the workers must cut it by at least 25%.
  auto largest = [&](int kappa) {
    Rng rng(99);
    auto worker_of = PartitionForWorkers(ds_->graph, 32, kappa, &rng);
    std::vector<int64_t> load(static_cast<size_t>(kappa), 0);
    for (int w : worker_of) ++load[static_cast<size_t>(w)];
    return *std::max_element(load.begin(), load.end());
  };
  EXPECT_LT(static_cast<double>(largest(4)),
            0.75 * static_cast<double>(largest(2)));
}

// ---- Hostile lengths in the dist decoders ---------------------------------

template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

class DistDecoderTest : public PartitionTest {
 protected:
  void SetUp() override {
    dir_ = "/tmp/xf-dist-decoder-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A one-rank worker whose checkpoint_dir is dir_ (no rendezvous needed).
  DistWorkerOptions WorkerOptions() const {
    DistWorkerOptions w;
    w.detector.feature_dim = ds_->graph.feature_dim();
    w.detector.hidden_dim = 8;
    w.detector.num_heads = 2;
    w.detector.num_layers = 1;
    w.dist.num_workers = 1;
    w.dist.num_clusters = 8;
    w.dist.train.max_epochs = 1;
    w.dist.train.seed = 5;
    w.checkpoint_dir = dir_;
    return w;
  }

  /// A rank-0 checkpoint header that is valid up to its shuffle-order count.
  static std::string CheckpointHeader(uint64_t seed, int64_t order_count) {
    std::string out = "XFDC";
    Append<uint32_t>(&out, 1);     // version
    Append<uint64_t>(&out, seed);
    Append<int32_t>(&out, 0);      // next epoch
    Append<double>(&out, 0.0);     // best val AUC
    Append<int32_t>(&out, 0);      // stale epochs
    for (int i = 0; i < 4; ++i) Append<uint64_t>(&out, 1);  // rng state
    Append<uint8_t>(&out, 0);      // no cached gaussian
    Append<double>(&out, 0.0);
    Append<uint64_t>(&out, 0);     // cursor
    Append<int64_t>(&out, order_count);
    return out;
  }

  void ExpectCheckpointIsCorruption(const std::string& bytes) {
    ASSERT_TRUE(AtomicWriteFileWithCrc(dir_ + "/rank-0.ckpt", bytes).ok());
    auto run = RunDistWorker(*ds_, WorkerOptions());
    ASSERT_FALSE(run.ok());
    EXPECT_TRUE(run.status().IsCorruption()) << run.status().ToString();
  }

  std::string dir_;
};

TEST_F(DistDecoderTest, CheckpointOrderCountBeyondTheFileIsCorruption) {
  ExpectCheckpointIsCorruption(CheckpointHeader(5, int64_t{1} << 40));
}

TEST_F(DistDecoderTest, CheckpointTensorShapeBeyondTheFileIsCorruption) {
  DistWorkerOptions w = WorkerOptions();
  Rng rng(w.model_seed);
  core::XFraudDetector model(w.detector, &rng);
  auto params = model.Parameters();
  std::string bytes = CheckpointHeader(5, 0);
  Append<int64_t>(&bytes, static_cast<int64_t>(params.size()));
  Append<uint32_t>(&bytes, static_cast<uint32_t>(params[0].name.size()));
  bytes += params[0].name;
  Append<int64_t>(&bytes, int64_t{1} << 20);  // rows
  Append<int64_t>(&bytes, int64_t{1} << 20);  // cols: 2^40 floats
  ExpectCheckpointIsCorruption(bytes);
}

TEST_F(DistDecoderTest, ResultCountsBeyondTheFileAreCorruption) {
  auto result_file = [](int64_t partitions, int64_t epochs) {
    std::string out = "XFDR";
    Append<uint32_t>(&out, 2);  // version
    Append<double>(&out, 0.5);  // best val AUC
    Append<double>(&out, 1.0);  // mean wall epoch
    Append<double>(&out, 0.1);  // edge cut
    Append<int64_t>(&out, partitions);
    if (partitions == 0) Append<int64_t>(&out, epochs);
    return out;
  };
  const std::string path = dir_ + "/result.bin";
  for (const std::string& bytes :
       {result_file(int64_t{1} << 40, 0), result_file(0, int64_t{1} << 40)}) {
    ASSERT_TRUE(AtomicWriteFileWithCrc(path, bytes).ok());
    auto loaded = LoadDistResult(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  // The same layout with honest counts still loads.
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, result_file(0, 0)).ok());
  auto loaded = LoadDistResult(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().best_val_auc, 0.5);
}

}  // namespace
}  // namespace xfraud::dist
