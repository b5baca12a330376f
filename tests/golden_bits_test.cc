// Golden bits: a fixed, seeded training run of the detector must produce
// the same parameter bits on every build. Any change to the arithmetic of
// the forward or the backward — an accumulation order, a fused op, a
// compiler flag — moves the hash and fails here, instead of waiting for a
// manual `cmp` of two checkpoints.
//
// Only a change that follows the re-bless protocol of DESIGN.md §13.5 may
// edit kGoldenCrc, and it records the new value there. The value depends on
// the platform's libm (exp/log in the generator, the model and the loss).

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"
#include "xfraud/common/rng.h"
#include "xfraud/core/detector.h"
#include "xfraud/data/generator.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/sample/sampler.h"
#include "xfraud/train/trainer.h"

namespace xfraud {
namespace {

constexpr uint32_t kGoldenCrc = 0xe1bf7d21u;

TEST(GoldenBits, TrainedParametersMatchRecordedHash) {
  data::GeneratorConfig config = data::TransactionGenerator::SimSmall();
  config.num_buyers = 300;
  config.num_fraud_rings = 8;
  config.num_stolen_cards = 12;
  data::SimDataset ds = data::TransactionGenerator::Make(config, "golden");

  Rng init_rng(7);
  core::DetectorConfig dc;
  dc.feature_dim = ds.graph.feature_dim();
  dc.hidden_dim = 16;
  dc.num_heads = 2;
  dc.num_layers = 2;
  core::XFraudDetector model(dc, &init_rng);

  // 12 steps with dropout over 4 fixed batches of 64 seeds.
  sample::SageSampler sampler(2, 8);
  train::Trainer trainer(&model, &sampler, train::TrainOptions{});
  Rng sample_rng(11);
  std::vector<sample::MiniBatch> batches;
  for (size_t b = 0; b < 4; ++b) {
    std::vector<int32_t> seeds(ds.train_nodes.begin() + 64 * b,
                               ds.train_nodes.begin() + 64 * (b + 1));
    batches.push_back(sampler.SampleBatch(ds.graph, seeds, &sample_rng));
  }
  for (int step = 0; step < 12; ++step) {
    trainer.TrainStep(batches[static_cast<size_t>(step) % batches.size()]);
  }

  // The parameters as a checkpoint serializes them: name, then tensor.
  ByteWriter out;
  for (const nn::NamedParameter& p : model.Parameters()) {
    out.Str(p.name);
    nn::EncodeTensor(p.var.value(), &out);
  }
  std::string bytes = out.Release();
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()), kGoldenCrc)
      << std::hex << "0x" << Crc32(bytes.data(), bytes.size());
}

}  // namespace
}  // namespace xfraud
