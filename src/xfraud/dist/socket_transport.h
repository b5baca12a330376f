#ifndef XFRAUD_DIST_SOCKET_TRANSPORT_H_
#define XFRAUD_DIST_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "xfraud/common/clock.h"
#include "xfraud/common/fd.h"
#include "xfraud/common/frame.h"
#include "xfraud/common/status.h"
#include "xfraud/dist/rendezvous.h"

namespace xfraud::dist {

// ---- Low-level nonblocking socket I/O under a Deadline ---------------------
//
// All blocking is poll()-based with the remaining deadline budget as the
// timeout, so a dead peer costs at most the deadline, never a hang. Error
// mapping: expiry -> DeadlineExceeded; peer closed / reset -> Unavailable;
// transient connect failures (ECONNREFUSED, missing unix path) -> IoError so
// RetryWithBackoff (common/retry.h) treats them as retryable.

/// Dials `ep`; the returned fd is connected and nonblocking.
Result<UniqueFd> DialEndpoint(const Endpoint& ep, const Deadline& deadline,
                              Clock* clock);

/// Accepts one connection from a nonblocking listener; Unavailable once the
/// listener has been shut down (RendezvousHost::Close).
Result<UniqueFd> AcceptWithDeadline(int listener, const Deadline& deadline,
                                    Clock* clock);

Status SendAllBytes(int fd, const void* data, size_t n,
                    const Deadline& deadline, Clock* clock);
Status RecvAllBytes(int fd, void* data, size_t n, const Deadline& deadline,
                    Clock* clock);

/// Writes header + payload. `header.payload_bytes` and `header.payload_crc`
/// are sealed from `n` / the payload bytes (SealFramePayload), so every
/// frame on the wire carries a receiver-verifiable payload checksum.
Status SendFrame(int fd, FrameHeader header, const void* payload, size_t n,
                 const Deadline& deadline, Clock* clock);

/// SendFrame with wire-level fault injection: the header is sealed over the
/// *clean* payload, then byte `corrupt_byte` of the payload is flipped
/// before it hits the wire — the receiver must detect the damage through
/// the payload CRC. `corrupt_byte` outside [0, n) sends the frame intact.
Status SendFrameCorrupting(int fd, FrameHeader header, const void* payload,
                           size_t n, int64_t corrupt_byte,
                           const Deadline& deadline, Clock* clock);

/// Reads and validates one frame header (payload is read by the caller,
/// who is responsible for VerifyFramePayload once it has the bytes).
Result<FrameHeader> RecvFrameHeader(int fd, const Deadline& deadline,
                                    Clock* clock);

/// Reads `header.payload_bytes` of payload for an already-received header
/// into `*payload` (resized) and verifies the payload CRC; Corruption on a
/// flipped or torn payload.
Status RecvFramePayload(int fd, const FrameHeader& header,
                        std::vector<unsigned char>* payload,
                        const Deadline& deadline, Clock* clock);

/// Reads one frame that must match `want` type with exactly
/// `payload_bytes` of payload, into `payload` (CRC-verified).
Status RecvFrameInto(int fd, FrameType want, void* payload,
                     size_t payload_bytes, const Deadline& deadline,
                     Clock* clock);

/// Waits until any fd in `fds` is readable and returns its index in `fds`
/// (ties break toward the lowest index); DeadlineExceeded on expiry. The
/// serving tier's shard-server event loop multiplexes its connections
/// through this instead of issuing its own poll() — socket readiness stays
/// a dist/ primitive.
Result<int> WaitAnyReadable(const std::vector<int>& fds,
                            const Deadline& deadline, Clock* clock);

// ---- SocketCommunicator ----------------------------------------------------

struct SocketCommOptions {
  int rank = 0;
  int world = 1;
  /// Rendezvous endpoint spec (`unix:<path>` or `tcp:host:port`).
  Endpoint rendezvous;
  /// Budget for one collective (the slowest frame hop within it).
  double op_timeout_s = 60.0;
  /// Rendezvous generation this rank believes it is joining; the host's
  /// assignment overrides it (read back via generation()). Generation 0 is
  /// a first join, which re-dials a host that is not listening yet (process
  /// start order is arbitrary). A rejoin dials once: the host listens for
  /// the whole run, so a refused dial means it was closed.
  uint64_t generation = 0;
};

/// Collective communication over a ring of local sockets, shaped after
/// PyTorch's ProcessGroup. It is the one transport of the per-rank DDP loop
/// (TrainRank, dist/worker.h), whether the ranks are threads of one process
/// (DistributedTrainer) or processes (RunProcessCluster). Every rank owns a
/// listening "ring" endpoint, learns its successor from the rank-0
/// rendezvous, dials it, and accepts its predecessor.
///
/// The collective contract:
///  - AllReduceSum reduces element-wise in ascending-rank order — the sum is
///    the left fold ((r0 + r1) + r2) + ... — and every rank's buffer holds
///    the bit-identical result afterwards. Rank order is what keeps the
///    replicas bitwise synchronized, on threads and on processes alike.
///  - Broadcast copies root's buffer into every rank's buffer.
///  - Gather delivers every rank's buffer to `root`, indexed by rank; ranks
///    may contribute different lengths.
///  - Collectives are matched by call order: every rank must issue the same
///    sequence of operations with the same element counts. A mismatch is
///    Corruption, detected through the frame headers.
/// DESIGN.md §12 draws the ring walks.
///
/// Any frame error (timeout, peer death, header mismatch) breaks the ring:
/// the failing call tears down both ring connections — waking the
/// neighbours with EOF so failure detection cascades around the ring — and
/// every subsequent collective fails fast with the original error. Recovery
/// is the caller's job: roll back to the epoch-start checkpoint, bump the
/// generation, and Connect() a fresh communicator.
class SocketCommunicator {
 public:
  /// Full connection dance: bind the ring listener, rendezvous (rank 0
  /// hosts via `host`, which must be non-null iff rank == 0 and world > 1),
  /// dial the successor, accept the predecessor, exchange hellos.
  static Result<std::unique_ptr<SocketCommunicator>> Connect(
      const SocketCommOptions& options, RendezvousHost* host);

  ~SocketCommunicator();

  int rank() const;
  int size() const;
  Status AllReduceSum(std::span<float> data);
  Status AllReduceSum(std::span<double> data);
  Status Broadcast(std::span<double> data, int root);
  Status Gather(std::span<const float> send, int root,
                std::vector<std::vector<float>>* recv);

  /// Wall seconds this rank has spent inside collectives (waiting for peers
  /// included).
  double comm_seconds() const;
  /// Payload + header bytes this rank has put on the wire.
  int64_t bytes_on_wire() const;

  /// Generation assigned by the rendezvous host at Connect time.
  uint64_t generation() const;

  /// Closes both ring connections (idempotent). Neighbours see EOF and fail
  /// their in-flight collective with Unavailable.
  void Shutdown();

  struct Impl;
  /// Use Connect() — public only so make_unique can reach it; Impl is not
  /// constructible outside this class's implementation.
  explicit SocketCommunicator(std::unique_ptr<Impl> impl);

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_SOCKET_TRANSPORT_H_
