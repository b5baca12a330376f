#include "xfraud/nn/serialize.h"

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "xfraud/common/atomic_file.h"

namespace xfraud::nn {

namespace {
constexpr char kMagic[4] = {'X', 'F', 'C', 'K'};
}  // namespace

void EncodeTensor(const Tensor& t, ByteWriter* out) {
  out->I64(t.rows()).I64(t.cols()).Array(t.data(), t.size());
}

bool DecodeTensor(ByteReader* in, Tensor* t) {
  const int64_t rows = in->I64();
  const int64_t cols = in->I64();
  // Divide rather than multiply, so a hostile shape cannot overflow the
  // check; the Array read below re-checks the exact byte count.
  if (!in->ok() || rows < 0 || cols < 0 ||
      (cols > 0 && static_cast<uint64_t>(rows) >
                       in->remaining() / sizeof(float) /
                           static_cast<uint64_t>(cols))) {
    return false;
  }
  std::vector<float> data;
  if (!in->Array(static_cast<uint64_t>(rows * cols), &data)) return false;
  *t = Tensor(rows, cols, data);
  return true;
}

Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path) {
  // Serialize into memory, then publish with tmp-file + rename + CRC32
  // footer: a crash mid-save leaves the previous checkpoint intact, and a
  // torn/bit-flipped file is rejected at load instead of misparsed.
  ByteWriter out;
  out.Magic(kMagic).U32(static_cast<uint32_t>(params.size()));
  for (const auto& p : params) {
    out.Str(p.name);
    EncodeTensor(p.var.value(), &out);
  }
  return AtomicWriteFileWithCrc(path, out.Release());
}

Status LoadParameters(const std::string& path,
                      std::vector<NamedParameter>* params) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) {
      return Status::IoError("cannot open for read: " + path);
    }
    return raw.status();
  }
  ByteReader in(raw.value());
  if (!in.Magic(kMagic)) {
    return Status::Corruption("bad checkpoint magic: " + path);
  }
  const uint32_t count = in.U32();
  std::unordered_map<std::string, Tensor> loaded;
  for (uint32_t i = 0; i < count && in.ok(); ++i) {
    std::string name = in.Str();
    Tensor t;
    if (!DecodeTensor(&in, &t)) {
      return Status::Corruption("bad tensor in " + path);
    }
    loaded.emplace(std::move(name), std::move(t));
  }
  if (!in.ok()) return Status::Corruption("truncated checkpoint: " + path);
  for (auto& p : *params) {
    auto it = loaded.find(p.name);
    if (it == loaded.end()) {
      return Status::NotFound("checkpoint missing parameter: " + p.name);
    }
    if (!it->second.SameShape(p.var.value())) {
      return Status::InvalidArgument("shape mismatch for " + p.name);
    }
    p.var.mutable_value() = it->second;
  }
  return Status::OK();
}

Status CopyParameters(const std::vector<NamedParameter>& src,
                      std::vector<NamedParameter>* dst) {
  if (src.size() != dst->size()) {
    return Status::InvalidArgument("parameter count mismatch");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (!src[i].var.value().SameShape((*dst)[i].var.value())) {
      return Status::InvalidArgument("shape mismatch at " + src[i].name);
    }
    (*dst)[i].var.mutable_value() = src[i].var.value();
  }
  return Status::OK();
}

}  // namespace xfraud::nn
