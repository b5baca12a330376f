// Multi-process distributed training tests. Every test here forks real OS
// processes (dist::RunProcessCluster), so the suite lives behind the
// MultiProcess prefix: the main xfraud_tests ctest entry filters it out and
// a dedicated xfraud_mp_tests entry runs it under a hard timeout (the
// tools/ci.sh --mode=mp leg; see tests/CMakeLists.txt).
//
// What must hold:
//  - a fault-free process cluster reproduces the threaded run bit-identically
//    (one per-rank loop on one socket ring, same partition, same streams,
//    same ascending-rank reduction order => same losses and AUCs to the last
//    bit);
//  - a SIGKILLed worker is a real process death, the launcher re-forks it,
//    it resumes from its CRC checkpoint, and the run converges to the same
//    final model as a run that was never killed.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/dist/distributed.h"
#include "xfraud/dist/launcher.h"
#include "xfraud/dist/worker.h"
#include "xfraud/fault/fault_plan.h"
#include "xfraud/sample/sampler.h"

namespace xfraud::dist {
namespace {

class MultiProcess : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 500;
    config.num_fraud_rings = 10;
    config.num_stolen_cards = 16;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "dist-mp-test"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  /// Short unique checkpoint dir (AF_UNIX socket paths live under it and
  /// are length-capped).
  static std::string MakeDir(const std::string& tag) {
    std::string dir =
        "/tmp/xf-mp-" + tag + "-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
  }

  static DistWorkerOptions BaseOptions(int world, int epochs,
                                       const std::string& dir) {
    DistWorkerOptions w;
    w.world = world;
    w.detector.feature_dim = ds_->graph.feature_dim();
    w.detector.hidden_dim = 16;
    w.detector.num_heads = 2;
    w.detector.num_layers = 2;
    w.model_seed = 77;
    w.dist.num_workers = world;
    w.dist.num_clusters = 32;
    w.dist.train.max_epochs = epochs;
    w.dist.train.patience = epochs;
    w.dist.train.batch_size = 128;
    w.dist.train.lr = 2e-3f;
    w.dist.train.class_weights = {1.0f, 4.0f};
    w.dist.train.seed = 77;
    w.checkpoint_dir = dir;
    w.op_timeout_s = 60.0;
    return w;
  }

  static std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static data::SimDataset* ds_;
};

data::SimDataset* MultiProcess::ds_ = nullptr;

/// Parity: swapping thread ranks for real processes on the same socket ring
/// changes NOTHING about the math. Same seeds => same partition, same
/// batches, same fold order => every epoch's loss and AUC match to the last
/// bit.
TEST_F(MultiProcess, ProcessClusterMatchesThreadedClusterBitIdentically) {
  const int world = 3;
  const int epochs = 2;
  std::string dir = MakeDir("parity");

  ProcessClusterOptions cluster;
  cluster.worker = BaseOptions(world, epochs, dir);
  cluster.overall_timeout_s = 240.0;
  auto report = RunProcessCluster(*ds_, cluster);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().restarts, 0);
  const DistributedResult& mp = report.value().result;

  // The threaded reference: identical replicas, identical options.
  std::vector<std::unique_ptr<core::XFraudDetector>> replicas;
  std::vector<core::GnnModel*> ptrs;
  for (int w = 0; w < world; ++w) {
    Rng rng(77);
    core::DetectorConfig dc;
    dc.feature_dim = ds_->graph.feature_dim();
    dc.hidden_dim = 16;
    dc.num_heads = 2;
    dc.num_layers = 2;
    replicas.push_back(std::make_unique<core::XFraudDetector>(dc, &rng));
    ptrs.push_back(replicas.back().get());
  }
  sample::SageSampler sampler(2, 8);
  DistributedTrainer trainer(ptrs, &sampler, cluster.worker.dist);
  DistributedResult inproc = trainer.Train(*ds_);

  ASSERT_EQ(mp.history.size(), inproc.history.size());
  for (size_t e = 0; e < mp.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(mp.history[e].train_loss, inproc.history[e].train_loss)
        << "epoch " << e;
    EXPECT_DOUBLE_EQ(mp.history[e].val_auc, inproc.history[e].val_auc)
        << "epoch " << e;
    // Both drivers measure their time inside collectives.
    EXPECT_GT(mp.history[e].measured_comm_seconds, 0.0);
    EXPECT_GT(inproc.history[e].measured_comm_seconds, 0.0);
  }
  EXPECT_DOUBLE_EQ(mp.best_val_auc, inproc.best_val_auc);
  EXPECT_EQ(mp.partition_nodes, inproc.partition_nodes);
  EXPECT_DOUBLE_EQ(mp.edge_cut_fraction, inproc.edge_cut_fraction);

  std::filesystem::remove_all(dir);
}

/// Chaos: kill_worker is a real SIGKILL of a real process mid-epoch. The
/// launcher observes the death, re-forks the rank, the rank resumes from its
/// checkpoint, survivors roll back, and the cluster re-runs the epoch —
/// converging to the byte-identical final model of a run that never saw the
/// kill.
TEST_F(MultiProcess, SigkilledWorkerRestartsAndMatchesFaultFreeRun) {
  const int world = 2;
  const int epochs = 2;

  std::string clean_dir = MakeDir("clean");
  ProcessClusterOptions clean;
  clean.worker = BaseOptions(world, epochs, clean_dir);
  clean.overall_timeout_s = 240.0;
  auto clean_report = RunProcessCluster(*ds_, clean);
  ASSERT_TRUE(clean_report.ok()) << clean_report.status().ToString();
  ASSERT_TRUE(clean_report.value().kills_observed.empty());

  std::string chaos_dir = MakeDir("chaos");
  ProcessClusterOptions chaos;
  chaos.worker = BaseOptions(world, epochs, chaos_dir);
  auto plan = fault::FaultPlan::Parse("kill_worker=1@1:1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  chaos.worker.dist.fault_plan = plan.value();
  chaos.overall_timeout_s = 240.0;
  auto chaos_report = RunProcessCluster(*ds_, chaos);
  ASSERT_TRUE(chaos_report.ok()) << chaos_report.status().ToString();

  // The kill really happened, to the planned rank, and was really restarted.
  ASSERT_EQ(chaos_report.value().kills_observed.size(), 1u);
  EXPECT_EQ(chaos_report.value().kills_observed[0], 1);
  EXPECT_EQ(chaos_report.value().restarts, 1);

  // The epoch that saw the kill is flagged as a restart in the history.
  const DistributedResult& result = chaos_report.value().result;
  ASSERT_EQ(result.history.size(), static_cast<size_t>(epochs));
  EXPECT_TRUE(result.history[1].restarted);

  // Recovery is exact, not approximate: the final model's bytes match the
  // fault-free run's.
  EXPECT_EQ(ReadFileBytes(chaos_dir + "/final_model.ckpt"),
            ReadFileBytes(clean_dir + "/final_model.ckpt"));
  EXPECT_DOUBLE_EQ(result.best_val_auc,
                   clean_report.value().result.best_val_auc);

  std::filesystem::remove_all(clean_dir);
  std::filesystem::remove_all(chaos_dir);
}

/// Rank 0 hosts the rendezvous and owns the run's history, so killing it is
/// outside the failure model — the worker must refuse the plan up front
/// rather than deadlock the cluster.
TEST_F(MultiProcess, KillingRankZeroIsRejectedUpFront) {
  DistWorkerOptions w = BaseOptions(/*world=*/2, /*epochs=*/1,
                                    MakeDir("rank0"));
  auto plan = fault::FaultPlan::Parse("kill_worker=0@0:0");
  ASSERT_TRUE(plan.ok());
  w.dist.fault_plan = plan.value();
  w.rendezvous = "unix:" + w.checkpoint_dir + "/rdzv.sock";
  auto result = RunDistWorker(*ds_, w);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

}  // namespace
}  // namespace xfraud::dist
