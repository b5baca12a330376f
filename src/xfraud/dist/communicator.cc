#include "xfraud/dist/communicator.h"

#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>

#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"

namespace xfraud::dist {

namespace {

enum class OpType {
  kNone,
  kAllReduceF32,
  kAllReduceF64,
  kBroadcastF32,
  kBroadcastF64,
  kBarrier,
  kGather,
};

const char* OpName(OpType op) {
  switch (op) {
    case OpType::kNone: return "none";
    case OpType::kAllReduceF32: return "allreduce<f32>";
    case OpType::kAllReduceF64: return "allreduce<f64>";
    case OpType::kBroadcastF32: return "broadcast<f32>";
    case OpType::kBroadcastF64: return "broadcast<f64>";
    case OpType::kBarrier: return "barrier";
    case OpType::kGather: return "gather";
  }
  return "?";
}

}  // namespace

/// The group's buffer table. Every collective deposits per-rank pointers
/// here; the last rank to arrive executes the operation in rank order while
/// the others wait on `cv`.
struct InProcessGroup::Shared {
  int size = 0;

  std::mutex mu;
  std::condition_variable cv;
  uint64_t completed = 0;  // finished collectives (the waiters' wake key)
  Status poison = Status::OK();

  // Current operation.
  OpType op = OpType::kNone;
  int root = -1;
  size_t count = 0;
  int arrived = 0;
  std::vector<int8_t> entered;
  std::vector<float*> f32;
  std::vector<double*> f64;
  std::vector<const float*> gather_send;
  std::vector<size_t> gather_count;
  std::vector<std::vector<std::vector<float>>*> gather_recv;

  void ResetOp() {
    op = OpType::kNone;
    root = -1;
    count = 0;
    arrived = 0;
    std::fill(entered.begin(), entered.end(), int8_t{0});
  }

  /// Runs the deposited operation. Reduction is the left fold in ascending
  /// rank order — the bit-identity contract shared with the socket ring.
  void Execute() {
    switch (op) {
      case OpType::kAllReduceF32: {
        float* acc = f32[0];
        for (int w = 1; w < size; ++w) {
          const float* src = f32[w];
          for (size_t i = 0; i < count; ++i) acc[i] += src[i];
        }
        for (int w = 1; w < size; ++w) {
          std::memcpy(f32[w], acc, count * sizeof(float));
        }
        break;
      }
      case OpType::kAllReduceF64: {
        double* acc = f64[0];
        for (int w = 1; w < size; ++w) {
          const double* src = f64[w];
          for (size_t i = 0; i < count; ++i) acc[i] += src[i];
        }
        for (int w = 1; w < size; ++w) {
          std::memcpy(f64[w], acc, count * sizeof(double));
        }
        break;
      }
      case OpType::kBroadcastF32:
        for (int w = 0; w < size; ++w) {
          if (w == root) continue;
          std::memcpy(f32[w], f32[root], count * sizeof(float));
        }
        break;
      case OpType::kBroadcastF64:
        for (int w = 0; w < size; ++w) {
          if (w == root) continue;
          std::memcpy(f64[w], f64[root], count * sizeof(double));
        }
        break;
      case OpType::kGather: {
        std::vector<std::vector<float>>* out = gather_recv[root];
        out->assign(static_cast<size_t>(size), {});
        for (int w = 0; w < size; ++w) {
          (*out)[w].assign(gather_send[w], gather_send[w] + gather_count[w]);
        }
        break;
      }
      case OpType::kBarrier:
      case OpType::kNone:
        break;
    }
    ResetOp();
    ++completed;
  }

  /// Fails the group; requires `mu` held.
  void PoisonLocked(Status why) {
    if (poison.ok()) poison = std::move(why);
    ResetOp();
    cv.notify_all();
  }
};

namespace {

class InProcessCommunicator final : public Communicator {
 public:
  InProcessCommunicator(std::shared_ptr<InProcessGroup::Shared> shared,
                        int rank)
      : shared_(std::move(shared)), rank_(rank) {}

  int rank() const override { return rank_; }
  int size() const override { return shared_->size; }

  Status AllReduceSum(std::span<float> data) override {
    return Run(OpType::kAllReduceF32, /*root=*/-1, data.size(), data.data(),
               nullptr, nullptr, nullptr);
  }
  Status AllReduceSum(std::span<double> data) override {
    return Run(OpType::kAllReduceF64, /*root=*/-1, data.size(), nullptr,
               data.data(), nullptr, nullptr);
  }
  Status Broadcast(std::span<float> data, int root) override {
    return Run(OpType::kBroadcastF32, root, data.size(), data.data(), nullptr,
               nullptr, nullptr);
  }
  Status Broadcast(std::span<double> data, int root) override {
    return Run(OpType::kBroadcastF64, root, data.size(), nullptr, data.data(),
               nullptr, nullptr);
  }
  Status Barrier() override {
    return Run(OpType::kBarrier, /*root=*/-1, 0, nullptr, nullptr, nullptr,
               nullptr);
  }
  Status Gather(std::span<const float> send, int root,
                std::vector<std::vector<float>>* recv) override {
    return Run(OpType::kGather, root, send.size(), nullptr, nullptr,
               send.data(), recv);
  }

  double comm_seconds() const override { return comm_seconds_; }
  int64_t bytes_on_wire() const override { return 0; }

 private:
  static Status Poison(InProcessGroup::Shared& s, const std::string& msg) {
    s.PoisonLocked(Status::FailedPrecondition("in-process group: " + msg));
    return s.poison;
  }

  /// Times Collective() into comm_seconds_, waiting for peers included.
  Status Run(OpType op, int root, size_t count, float* f32, double* f64,
             const float* gather_send,
             std::vector<std::vector<float>>* gather_recv) {
    WallTimer timer;
    Status s =
        Collective(op, root, count, f32, f64, gather_send, gather_recv);
    comm_seconds_ += timer.ElapsedSeconds();
    return s;
  }

  Status Collective(OpType op, int root, size_t count, float* f32,
                    double* f64, const float* gather_send,
                    std::vector<std::vector<float>>* gather_recv) {
    InProcessGroup::Shared& s = *shared_;
    std::unique_lock<std::mutex> lock(s.mu);
    if (!s.poison.ok()) return s.poison;
    const bool needs_root = op == OpType::kBroadcastF32 ||
                            op == OpType::kBroadcastF64 ||
                            op == OpType::kGather;
    if (needs_root && (root < 0 || root >= s.size)) {
      return Status::InvalidArgument("in-process group: root " +
                                     std::to_string(root) + " out of range");
    }
    if (op == OpType::kGather && rank_ == root && gather_recv == nullptr) {
      return Status::InvalidArgument(
          "in-process group: gather root needs a recv buffer");
    }
    if (s.arrived == 0) {
      s.op = op;
      s.root = root;
      s.count = count;
    } else if (s.op != op || s.root != root ||
               (op != OpType::kGather && s.count != count)) {
      return Poison(s, std::string("operation mismatch: rank ") +
                           std::to_string(rank_) + " issued " + OpName(op) +
                           "[" + std::to_string(count) + "] against pending " +
                           OpName(s.op) + "[" + std::to_string(s.count) + "]");
    }
    if (s.entered[static_cast<size_t>(rank_)] != 0) {
      return Poison(s, "rank " + std::to_string(rank_) +
                           " re-entered a pending collective");
    }
    s.entered[static_cast<size_t>(rank_)] = 1;
    s.f32[static_cast<size_t>(rank_)] = f32;
    s.f64[static_cast<size_t>(rank_)] = f64;
    s.gather_send[static_cast<size_t>(rank_)] = gather_send;
    s.gather_count[static_cast<size_t>(rank_)] = count;
    s.gather_recv[static_cast<size_t>(rank_)] = gather_recv;
    ++s.arrived;
    if (s.arrived == s.size) {
      s.Execute();
      s.cv.notify_all();
      return Status::OK();
    }
    const uint64_t gen = s.completed;
    s.cv.wait(lock, [&] { return s.completed != gen || !s.poison.ok(); });
    return s.completed != gen ? Status::OK() : s.poison;
  }

  std::shared_ptr<InProcessGroup::Shared> shared_;
  int rank_;
  double comm_seconds_ = 0.0;  // written only by this rank's thread
};

}  // namespace

InProcessGroup::InProcessGroup(int size) {
  XF_CHECK(size >= 1);
  shared_ = std::make_shared<Shared>();
  shared_->size = size;
  shared_->entered.assign(static_cast<size_t>(size), 0);
  shared_->f32.assign(static_cast<size_t>(size), nullptr);
  shared_->f64.assign(static_cast<size_t>(size), nullptr);
  shared_->gather_send.assign(static_cast<size_t>(size), nullptr);
  shared_->gather_count.assign(static_cast<size_t>(size), 0);
  shared_->gather_recv.assign(static_cast<size_t>(size), nullptr);
  for (int r = 0; r < size; ++r) {
    endpoints_.push_back(
        std::make_unique<InProcessCommunicator>(shared_, r));
  }
}

InProcessGroup::~InProcessGroup() = default;

int InProcessGroup::size() const { return shared_->size; }

Communicator* InProcessGroup::communicator(int rank) {
  XF_CHECK(rank >= 0 && rank < shared_->size);
  return endpoints_[static_cast<size_t>(rank)].get();
}

void InProcessGroup::Poison(Status why) {
  XF_CHECK(!why.ok());
  std::lock_guard<std::mutex> lock(shared_->mu);
  shared_->PoisonLocked(std::move(why));
}

}  // namespace xfraud::dist
