#include "xfraud/train/checkpoint.h"

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/nn/serialize.h"

namespace xfraud::train {

namespace {

constexpr char kMagic[4] = {'X', 'F', 'T', 'C'};
constexpr uint32_t kVersion = 1;

}  // namespace

std::string TrainerCheckpointPath(const std::string& dir) {
  return dir + "/trainer.ckpt";
}

Status SaveTrainerCheckpoint(const TrainerCheckpoint& ckpt,
                             const std::string& path) {
  if (ckpt.opt_m.size() != ckpt.params.size() ||
      ckpt.opt_v.size() != ckpt.params.size()) {
    return Status::InvalidArgument(
        "checkpoint optimizer state count != parameter count");
  }
  ByteWriter out;
  out.Magic(kMagic).U32(kVersion).U64(ckpt.seed).I32(ckpt.next_epoch);
  out.I32(ckpt.stale).I32(ckpt.best_epoch).F64(ckpt.best_val_auc);
  for (uint64_t s : ckpt.rng.s) out.U64(s);
  out.U8(ckpt.rng.has_cached_gaussian ? 1 : 0).F64(ckpt.rng.cached_gaussian);

  out.I64(static_cast<int64_t>(ckpt.train_node_order.size()))
      .Array(ckpt.train_node_order);
  out.I64(static_cast<int64_t>(ckpt.history.size()));
  for (const EpochStats& e : ckpt.history) {
    out.I32(e.epoch).F64(e.train_loss).F64(e.val_auc).F64(e.seconds);
    out.F64(e.sample_seconds).F64(e.compute_seconds);
  }
  out.I64(static_cast<int64_t>(ckpt.params.size()));
  for (size_t i = 0; i < ckpt.params.size(); ++i) {
    out.Str(ckpt.params[i].first);
    nn::EncodeTensor(ckpt.params[i].second, &out);
    nn::EncodeTensor(ckpt.opt_m[i], &out);
    nn::EncodeTensor(ckpt.opt_v[i], &out);
  }
  out.I64(ckpt.opt_step);
  return AtomicWriteFileWithCrc(path, out.Release());
}

Result<TrainerCheckpoint> LoadTrainerCheckpoint(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) return raw.status();
  ByteReader in(raw.value());
  if (!in.Magic(kMagic)) {
    return Status::Corruption("bad trainer checkpoint magic: " + path);
  }
  if (in.U32() != kVersion) {
    return Status::Corruption("unsupported trainer checkpoint version in " +
                              path);
  }
  TrainerCheckpoint ckpt;
  ckpt.seed = in.U64();
  ckpt.next_epoch = in.I32();
  ckpt.stale = in.I32();
  ckpt.best_epoch = in.I32();
  ckpt.best_val_auc = in.F64();
  for (uint64_t& s : ckpt.rng.s) s = in.U64();
  ckpt.rng.has_cached_gaussian = in.U8() != 0;
  ckpt.rng.cached_gaussian = in.F64();
  if (!in.Array(in.ReadCount(sizeof(int32_t)), &ckpt.train_node_order)) {
    return Status::Corruption("bad train-node order in " + path);
  }

  // A history record is an i32 epoch and five f64s.
  ckpt.history.resize(in.ReadCount(4 + 5 * 8));
  for (EpochStats& e : ckpt.history) {
    e.epoch = in.I32();
    e.train_loss = in.F64();
    e.val_auc = in.F64();
    e.seconds = in.F64();
    e.sample_seconds = in.F64();
    e.compute_seconds = in.F64();
  }
  if (!in.ok()) return Status::Corruption("bad history in " + path);

  // A parameter is at least a name length and three tensor shapes.
  const uint64_t param_count = in.ReadCount(4 + 3 * 16);
  ckpt.params.resize(param_count);
  ckpt.opt_m.resize(param_count);
  ckpt.opt_v.resize(param_count);
  for (uint64_t i = 0; i < param_count; ++i) {
    ckpt.params[i].first = in.Str();
    if (!nn::DecodeTensor(&in, &ckpt.params[i].second) ||
        !nn::DecodeTensor(&in, &ckpt.opt_m[i]) ||
        !nn::DecodeTensor(&in, &ckpt.opt_v[i])) {
      return Status::Corruption("bad parameter block in " + path);
    }
  }
  ckpt.opt_step = in.I64();
  if (!in.ok() || ckpt.opt_step < 0) {
    return Status::Corruption("bad parameter or optimizer state in " + path);
  }
  return ckpt;
}

}  // namespace xfraud::train
