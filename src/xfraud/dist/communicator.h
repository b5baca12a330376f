#ifndef XFRAUD_DIST_COMMUNICATOR_H_
#define XFRAUD_DIST_COMMUNICATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "xfraud/common/status.h"

namespace xfraud::dist {

/// Collective-communication surface of the distributed runtime, shaped after
/// PyTorch's ProcessGroup backends. The per-rank DDP loop (TrainRank,
/// dist/worker.h) speaks only this interface; the backend decides whether a
/// rank is a thread of this process (InProcessGroup) or a real process on a
/// socket ring (SocketCommunicator).
///
/// Semantics every backend must honour:
///  - AllReduceSum reduces element-wise in ascending-rank order — the sum is
///    the left fold ((r0 + r1) + r2) + ... — and every rank's buffer holds
///    the bit-identical result afterwards. Rank order is the contract that
///    keeps replicas bitwise synchronized across backends.
///  - Broadcast copies root's buffer into every rank's buffer.
///  - Gather delivers every rank's buffer to `root`, indexed by rank; ranks
///    may contribute different lengths.
///  - Barrier returns only once every rank has entered it.
///  - Collectives are matched by call order: every rank must issue the same
///    sequence of operations with the same element counts. A mismatch is
///    FailedPrecondition (in-process) or Corruption (socket, detected via
///    frame headers).
class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  virtual Status AllReduceSum(std::span<float> data) = 0;
  virtual Status AllReduceSum(std::span<double> data) = 0;
  virtual Status Broadcast(std::span<float> data, int root) = 0;
  virtual Status Broadcast(std::span<double> data, int root) = 0;
  virtual Status Barrier() = 0;
  virtual Status Gather(std::span<const float> send, int root,
                        std::vector<std::vector<float>>* recv) = 0;

  /// Wall seconds this rank has spent inside collectives (waiting for peers
  /// included).
  virtual double comm_seconds() const = 0;

  /// Payload + header bytes this rank has put on the wire. Zero in-process.
  virtual int64_t bytes_on_wire() const = 0;
};

/// Shared-memory backend: one group object hands out `size` communicator
/// endpoints over a common buffer table, one per rank thread. Each call
/// blocks (condition variable) until every rank has entered, and the last
/// rank to arrive executes the operation in rank order, like a real
/// collective.
///
/// Once any operation fails (signature mismatch across ranks) or Poison() is
/// called, the group is poisoned: ranks blocked in a collective wake with
/// the error, and every subsequent call returns it.
class InProcessGroup {
 public:
  explicit InProcessGroup(int size);
  ~InProcessGroup();

  int size() const;
  Communicator* communicator(int rank);

  /// Fails the group with `why` (no-op if already poisoned): the in-process
  /// analogue of a dead peer's socket EOF.
  void Poison(Status why);

  /// Implementation detail (the group's buffer table); public only so the
  /// per-rank endpoints in the .cc can name it.
  struct Shared;

 private:
  std::shared_ptr<Shared> shared_;
  std::vector<std::unique_ptr<Communicator>> endpoints_;
};

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_COMMUNICATOR_H_
