#include "xfraud/train/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/train/trainer.h"

namespace xfraud::train {
namespace {

nn::Tensor MakeTensor(int64_t rows, int64_t cols, float start) {
  nn::Tensor t(rows, cols);
  for (int64_t i = 0; i < t.size(); ++i) {
    t.data()[i] = start + 0.5f * static_cast<float>(i);
  }
  return t;
}

TrainerCheckpoint MakeCheckpoint() {
  TrainerCheckpoint ckpt;
  ckpt.seed = 9;
  ckpt.next_epoch = 3;
  ckpt.stale = 1;
  ckpt.best_epoch = 2;
  ckpt.best_val_auc = 0.75;
  Rng rng(42);
  ckpt.rng = rng.GetState();
  ckpt.rng.has_cached_gaussian = true;
  ckpt.rng.cached_gaussian = -0.625;
  ckpt.train_node_order = {5, 3, 8, 1};
  EpochStats e0;
  e0.epoch = 0;
  e0.train_loss = 0.9;
  e0.val_auc = 0.6;
  e0.seconds = 1.5;
  e0.sample_seconds = 0.5;
  e0.compute_seconds = 1.0;
  EpochStats e1 = e0;
  e1.epoch = 1;
  e1.val_auc = 0.7;
  ckpt.history = {e0, e1};
  ckpt.params = {{"enc/weight", MakeTensor(2, 3, 1.0f)},
                 {"head/bias", MakeTensor(1, 3, -2.0f)}};
  ckpt.opt_m = {MakeTensor(2, 3, 0.0f), MakeTensor(1, 3, 0.25f)};
  ckpt.opt_v = {MakeTensor(2, 3, 0.125f), MakeTensor(1, 3, 0.5f)};
  ckpt.opt_step = 7;
  return ckpt;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TrainerCheckpointTest, SaveLoadRoundTripsEveryField) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  TrainerCheckpoint ckpt = MakeCheckpoint();
  Status saved = SaveTrainerCheckpoint(ckpt, path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto loaded = LoadTrainerCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TrainerCheckpoint& got = loaded.value();
  EXPECT_EQ(got.seed, ckpt.seed);
  EXPECT_EQ(got.next_epoch, ckpt.next_epoch);
  EXPECT_EQ(got.stale, ckpt.stale);
  EXPECT_EQ(got.best_epoch, ckpt.best_epoch);
  EXPECT_EQ(got.best_val_auc, ckpt.best_val_auc);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got.rng.s[i], ckpt.rng.s[i]);
  EXPECT_EQ(got.rng.has_cached_gaussian, ckpt.rng.has_cached_gaussian);
  EXPECT_EQ(got.rng.cached_gaussian, ckpt.rng.cached_gaussian);
  EXPECT_EQ(got.train_node_order, ckpt.train_node_order);
  ASSERT_EQ(got.history.size(), ckpt.history.size());
  for (size_t e = 0; e < ckpt.history.size(); ++e) {
    EXPECT_EQ(got.history[e].epoch, ckpt.history[e].epoch);
    EXPECT_EQ(got.history[e].train_loss, ckpt.history[e].train_loss);
    EXPECT_EQ(got.history[e].val_auc, ckpt.history[e].val_auc);
    EXPECT_EQ(got.history[e].seconds, ckpt.history[e].seconds);
    EXPECT_EQ(got.history[e].sample_seconds, ckpt.history[e].sample_seconds);
    EXPECT_EQ(got.history[e].compute_seconds,
              ckpt.history[e].compute_seconds);
  }
  ASSERT_EQ(got.params.size(), ckpt.params.size());
  for (size_t i = 0; i < ckpt.params.size(); ++i) {
    EXPECT_EQ(got.params[i].first, ckpt.params[i].first);
    EXPECT_TRUE(got.params[i].second.BitwiseEqual(ckpt.params[i].second));
    EXPECT_TRUE(got.opt_m[i].BitwiseEqual(ckpt.opt_m[i]));
    EXPECT_TRUE(got.opt_v[i].BitwiseEqual(ckpt.opt_v[i]));
  }
  EXPECT_EQ(got.opt_step, ckpt.opt_step);
}

TEST(TrainerCheckpointTest, MissingFileIsNotFound) {
  auto loaded = LoadTrainerCheckpoint(TempPath("ckpt_never_written.bin"));
  EXPECT_TRUE(loaded.status().IsNotFound()) << loaded.status().ToString();
}

TEST(TrainerCheckpointTest, MismatchedOptimizerStateIsInvalidArgument) {
  TrainerCheckpoint ckpt = MakeCheckpoint();
  ckpt.opt_m.pop_back();
  Status saved = SaveTrainerCheckpoint(ckpt, TempPath("ckpt_bad_state.bin"));
  EXPECT_TRUE(saved.IsInvalidArgument()) << saved.ToString();
}

TEST(TrainerCheckpointTest, TruncationAnywhereIsCorruption) {
  const std::string path = TempPath("ckpt_truncate.bin");
  ASSERT_TRUE(SaveTrainerCheckpoint(MakeCheckpoint(), path).ok());
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  const std::string& bytes = raw.value();

  // Cut the file at several depths, including mid-footer and mid-payload;
  // the CRC footer check must reject every torn image.
  for (size_t keep : {size_t{0}, size_t{4}, bytes.size() / 2,
                      bytes.size() - 3, bytes.size() - 8}) {
    const std::string torn = TempPath("ckpt_torn.bin");
    std::ofstream out(torn, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(keep));
    out.close();
    auto loaded = LoadTrainerCheckpoint(torn);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "kept " << keep << " of " << bytes.size() << ": "
        << loaded.status().ToString();
  }
}

TEST(TrainerCheckpointTest, BitFlipIsCorruption) {
  const std::string path = TempPath("ckpt_bitflip.bin");
  ASSERT_TRUE(SaveTrainerCheckpoint(MakeCheckpoint(), path).ok());
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::string bytes = raw.value();
  bytes[bytes.size() / 3] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto loaded = LoadTrainerCheckpoint(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

// ---- Hostile lengths --------------------------------------------------------

/// A CRC-valid trainer checkpoint, honest up to its train-node count.
ByteWriter& CheckpointHeader(ByteWriter* out) {
  out->Bytes("XFTC").U32(1).U64(9);  // magic, version, seed
  out->I32(0).I32(0).I32(-1).F64(0.0);  // next epoch, stale, best epoch/AUC
  for (int i = 0; i < 4; ++i) out->U64(1);  // rng state
  return out->U8(0).F64(0.0);               // no cached gaussian
}

void ExpectCorruption(const std::string& bytes) {
  const std::string path = TempPath("ckpt_hostile.bin");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, bytes).ok());
  auto loaded = LoadTrainerCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(TrainerCheckpointTest, HonestCraftedCheckpointLoads) {
  ByteWriter out;
  CheckpointHeader(&out).I64(0).I64(0).I64(0).I64(5);  // empty, step 5
  const std::string path = TempPath("ckpt_crafted.bin");
  ASSERT_TRUE(AtomicWriteFileWithCrc(path, out.Release()).ok());
  auto loaded = LoadTrainerCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().opt_step, 5);
}

TEST(TrainerCheckpointTest, TrainNodeCountBeyondTheFileIsCorruption) {
  ByteWriter out;
  CheckpointHeader(&out).I64(int64_t{1} << 40);
  ExpectCorruption(out.Release());
}

TEST(TrainerCheckpointTest, HistoryAndParamCountsBeyondTheFileAreCorruption) {
  ByteWriter history;
  CheckpointHeader(&history).I64(0).I64(int64_t{1} << 40);
  ExpectCorruption(history.Release());
  ByteWriter negative;
  CheckpointHeader(&negative).I64(0).I64(-1);
  ExpectCorruption(negative.Release());
  ByteWriter params;
  CheckpointHeader(&params).I64(0).I64(0).I64(int64_t{1} << 40);
  ExpectCorruption(params.Release());
}

TEST(TrainerCheckpointTest, TensorShapeBeyondTheFileIsCorruption) {
  ByteWriter out;
  CheckpointHeader(&out).I64(0).I64(0).I64(1).Str("w");
  out.I64(int64_t{1} << 20).I64(int64_t{1} << 20);  // 2^40 floats
  ExpectCorruption(out.Release());
}

// ---- Trainer resume -------------------------------------------------------

class ResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
    config.num_buyers = 300;
    config.num_fraud_rings = 8;
    config.num_stolen_cards = 12;
    ds_ = new data::SimDataset(
        data::TransactionGenerator::Make(config, "ckpt"));
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }

  static core::XFraudDetector MakeModel(uint64_t seed) {
    Rng rng(seed);
    core::DetectorConfig dc;
    dc.feature_dim = ds_->graph.feature_dim();
    dc.hidden_dim = 16;
    dc.num_heads = 2;
    dc.num_layers = 2;
    return core::XFraudDetector(dc, &rng);
  }

  static TrainOptions BaseOptions() {
    TrainOptions opts;
    opts.max_epochs = 5;
    opts.patience = 5;
    opts.batch_size = 128;
    opts.seed = 5;
    return opts;
  }

  /// Fresh per-test checkpoint directory (stale state from a previous run
  /// must not leak into the resume assertions).
  static std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

  static data::SimDataset* ds_;
  static sample::SageSampler sampler_;
};

data::SimDataset* ResumeTest::ds_ = nullptr;
sample::SageSampler ResumeTest::sampler_(2, 8);

TEST_F(ResumeTest, InterruptedThenResumedRunIsBitIdentical) {
  // Reference: one uninterrupted 5-epoch run.
  auto ref_model = MakeModel(5);
  Trainer ref(&ref_model, &sampler_, BaseOptions());
  auto ref_result = ref.Train(*ds_);
  ASSERT_TRUE(ref_result.error.ok()) << ref_result.error.ToString();
  ASSERT_EQ(ref_result.history.size(), 5u);

  // "Crash" after epoch 1: same run capped at 2 epochs, checkpointing.
  const std::string dir = FreshDir("resume_bit_identical");
  TrainOptions first_opts = BaseOptions();
  first_opts.max_epochs = 2;
  first_opts.checkpoint_dir = dir;
  auto first_model = MakeModel(5);
  Trainer first(&first_model, &sampler_, first_opts);
  auto first_result = first.Train(*ds_);
  ASSERT_TRUE(first_result.error.ok()) << first_result.error.ToString();

  // Resume into a freshly-initialized model: the checkpoint must restore
  // parameters, optimizer moments, RNG mid-stream state, and the shuffled
  // train order, so the continued run replays epochs 2-4 exactly.
  TrainOptions resume_opts = BaseOptions();
  resume_opts.checkpoint_dir = dir;
  resume_opts.resume = true;
  auto resumed_model = MakeModel(5);
  Trainer resumed(&resumed_model, &sampler_, resume_opts);
  auto resumed_result = resumed.Train(*ds_);
  ASSERT_TRUE(resumed_result.error.ok()) << resumed_result.error.ToString();

  ASSERT_EQ(resumed_result.history.size(), ref_result.history.size());
  for (size_t e = 0; e < ref_result.history.size(); ++e) {
    EXPECT_EQ(resumed_result.history[e].train_loss,
              ref_result.history[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(resumed_result.history[e].val_auc,
              ref_result.history[e].val_auc)
        << "epoch " << e;
  }
  EXPECT_EQ(resumed_result.best_epoch, ref_result.best_epoch);
  EXPECT_EQ(resumed_result.best_val_auc, ref_result.best_val_auc);

  auto ref_params = ref_model.Parameters();
  auto resumed_params = resumed_model.Parameters();
  ASSERT_EQ(ref_params.size(), resumed_params.size());
  for (size_t i = 0; i < ref_params.size(); ++i) {
    ASSERT_TRUE(
        ref_params[i].var.value().BitwiseEqual(resumed_params[i].var.value()))
        << "parameter " << ref_params[i].name;
  }
}

TEST_F(ResumeTest, ResumeWithoutCheckpointIsAColdStart) {
  const std::string dir = FreshDir("resume_cold_start");
  TrainOptions opts = BaseOptions();
  opts.max_epochs = 1;
  opts.checkpoint_dir = dir;
  opts.resume = true;  // nothing to resume from yet
  auto model = MakeModel(5);
  Trainer trainer(&model, &sampler_, opts);
  auto result = trainer.Train(*ds_);
  EXPECT_TRUE(result.error.ok()) << result.error.ToString();
  EXPECT_EQ(result.history.size(), 1u);
  // And the epoch left a loadable checkpoint behind.
  auto ckpt = LoadTrainerCheckpoint(TrainerCheckpointPath(dir));
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt.value().next_epoch, 1);
}

TEST_F(ResumeTest, SeedMismatchRefusesToResume) {
  const std::string dir = FreshDir("resume_seed_mismatch");
  TrainOptions opts = BaseOptions();
  opts.max_epochs = 1;
  opts.checkpoint_dir = dir;
  auto model = MakeModel(5);
  Trainer trainer(&model, &sampler_, opts);
  ASSERT_TRUE(trainer.Train(*ds_).error.ok());

  TrainOptions other = BaseOptions();
  other.seed = 6;  // different run; its shuffle stream would not line up
  other.checkpoint_dir = dir;
  other.resume = true;
  auto other_model = MakeModel(6);
  Trainer resumed(&other_model, &sampler_, other);
  auto result = resumed.Train(*ds_);
  EXPECT_TRUE(result.error.IsFailedPrecondition()) << result.error.ToString();
  EXPECT_TRUE(result.history.empty());
}

TEST_F(ResumeTest, CorruptCheckpointSurfacesInsteadOfTrainingFromScratch) {
  const std::string dir = FreshDir("resume_corrupt");
  TrainOptions opts = BaseOptions();
  opts.max_epochs = 1;
  opts.checkpoint_dir = dir;
  auto model = MakeModel(5);
  Trainer trainer(&model, &sampler_, opts);
  ASSERT_TRUE(trainer.Train(*ds_).error.ok());

  // Tear the checkpoint's tail (a crash mid-write without the atomic
  // rename would look like this).
  const std::string path = TrainerCheckpointPath(dir);
  auto raw = ReadFileToString(path);
  ASSERT_TRUE(raw.ok());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(raw.value().data(),
            static_cast<std::streamsize>(raw.value().size() / 2));
  out.close();

  opts.resume = true;
  auto resumed_model = MakeModel(5);
  Trainer resumed(&resumed_model, &sampler_, opts);
  auto result = resumed.Train(*ds_);
  EXPECT_TRUE(result.error.IsCorruption()) << result.error.ToString();
  EXPECT_TRUE(result.history.empty());
}

}  // namespace
}  // namespace xfraud::train
