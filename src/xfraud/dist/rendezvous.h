#ifndef XFRAUD_DIST_RENDEZVOUS_H_
#define XFRAUD_DIST_RENDEZVOUS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "xfraud/common/clock.h"
#include "xfraud/common/fd.h"
#include "xfraud/common/retry.h"
#include "xfraud/common/status.h"

namespace xfraud::dist {

/// A socket address: `unix:<path>` (AF_UNIX, path under ~100 chars) or
/// `tcp:<host>:<port>` (AF_INET, loopback-oriented).
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  // unix
  std::string host;  // tcp
  uint16_t port = 0;  // tcp

  std::string ToString() const;
};

Result<Endpoint> ParseEndpoint(std::string_view spec);

/// Creates a nonblocking listening socket bound to `ep`. For tcp with
/// port 0 the kernel-assigned port is resolved into `*bound`; for unix the
/// path is unlinked first so a stale socket file from a crashed run cannot
/// block the bind.
Result<UniqueFd> ListenOn(const Endpoint& ep, Endpoint* bound);

/// Rank-0 side of the rendezvous. Owns the listener on the well-known
/// endpoint for the lifetime of the run so it can serve successive
/// generations: the first at startup, then one per recovery round after a
/// worker death. Protocol per generation (all frames common/frame.h):
///
///   joiner -> host   kJoin   {rank, seq=generation, payload=ring endpoint}
///   host -> joiner   kAssign {rank=joiner, seq=host generation,
///                             payload=successor's ring endpoint}
///
/// The host collects world-1 joins (duplicate ranks overwrite — a restarted
/// worker may race its own earlier half-open connection), computes the ring
/// successor map including its own ring endpoint, and replies to every
/// joiner. Joins carrying a stale generation are accepted; the assignment
/// carries the host's generation, which the joiner adopts.
class RendezvousHost {
 public:
  /// Binds the rendezvous listener. `world` is the full cluster size
  /// including rank 0.
  static Result<std::unique_ptr<RendezvousHost>> Create(const Endpoint& ep,
                                                        int world);
  ~RendezvousHost();

  /// Runs one generation and returns rank 0's successor ring endpoint.
  /// `rank0_ring` is rank 0's own ring listener endpoint (given out to
  /// rank world-1). Fails with DeadlineExceeded if the cluster does not
  /// assemble before `deadline`.
  Result<Endpoint> Exchange(const Endpoint& rank0_ring, uint64_t generation,
                            const Deadline& deadline, Clock* clock);

  /// Ends the rendezvous for good; safe to call from any thread. Later
  /// dials are refused, joiners already queued or waiting for an assignment
  /// see EOF, and Exchange (in progress or later) fails with Unavailable.
  /// A driver whose rank failed for good calls it so that the survivors'
  /// rejoins fail at once instead of waiting out the rendezvous budget.
  void Close();

  /// Use Create() — public only so make_unique can reach it.
  RendezvousHost(UniqueFd listener, int world);

 private:
  UniqueFd listener_;
  int world_;
};

/// Rank>0 side: dials the host with retry-with-backoff (the host may not be
/// listening yet at process start, and is briefly busy between generations),
/// announces this rank's ring endpoint, and returns the assigned successor
/// endpoint. On success `*host_generation` holds the host's generation.
Result<Endpoint> JoinRendezvous(const Endpoint& host, int rank, int world,
                                const Endpoint& my_ring, uint64_t generation,
                                const Deadline& deadline,
                                const RetryPolicy& connect_retry,
                                Clock* clock, uint64_t* host_generation);

}  // namespace xfraud::dist

#endif  // XFRAUD_DIST_RENDEZVOUS_H_
