#ifndef XFRAUD_KV_REPLICATED_KV_H_
#define XFRAUD_KV_REPLICATED_KV_H_

#include <memory>
#include <string>
#include <vector>

#include "xfraud/common/breaker.h"
#include "xfraud/common/clock.h"
#include "xfraud/kv/kvstore.h"
#include "xfraud/obs/metrics.h"

namespace xfraud::kv {

struct ReplicationOptions {
  /// Hedged reads: when the primary replica's read takes longer than this,
  /// a backup read is issued to the next healthy replica and the faster
  /// (emulated) response wins. Negative disables hedging.
  double hedge_delay_s = -1.0;
  /// Time source for latency measurement, breaker cool-offs, and the hedge
  /// decision; nullptr means Clock::Real().
  Clock* clock = nullptr;
};

/// Latency credit from hedge wins, accumulated per thread. The hedge is
/// emulated sequentially (see ReplicatedKvStore), so real elapsed time
/// includes the full slow primary read; a hedge win deposits the difference
/// between that and the latency a racing hedge would have delivered.
/// End-to-end latency accounting (the scoring service) subtracts the credit
/// so reported request latencies equal the true hedged behavior — on the
/// virtual and the real clock alike.
class HedgeRebate {
 public:
  /// Returns the credit accumulated on this thread since the last Take and
  /// resets it to zero.
  static double Take();

 private:
  friend class ReplicatedKvStore;
  static void Add(double seconds);
};

/// R-way replicated KvStore: every write goes to all replicas, reads try
/// the key's primary replica first and fail over across the rest — the
/// serving-side availability layer of the paper's KV topology (§3.3.3 /
/// Appendix C). Composes freely: replicas may be MemKvStore cells,
/// fault::FaultyKvStore decorators (chaos testing), or anything else, and a
/// ShardedKvStore can shard over several ReplicatedKvStores.
///
/// Read path per attempt: deadline check (DeadlineScope::Current) →
/// breaker admission (one CircuitBreaker per replica, common/breaker.h) →
/// replica Get. NotFound is an authoritative answer (the replicas hold
/// identical data), so it does not fail over and counts as a healthy
/// outcome for the breaker. When every replica has failed or
/// been skipped, returns the last real error, or Unavailable if no replica
/// was even admitted.
///
/// Hedging is emulated deterministically: if the primary's read succeeded
/// but took longer than `hedge_delay_s`, one backup read is issued to the
/// next admitted replica, and the response whose emulated completion time
/// (hedge_delay + backup latency vs primary latency) is earlier wins. The
/// emulation runs the two reads sequentially — total *work* equals
/// primary + hedge, exactly like a real race that cannot cancel the loser —
/// and deposits any saving into HedgeRebate so end-to-end accounting sees
/// the raced latency. Single-threaded runs are bit-reproducible.
class ReplicatedKvStore : public KvStore {
 public:
  using BreakerState = CircuitBreaker::State;

  /// Non-owning: `replicas` must outlive this store (none null, at least
  /// one).
  ReplicatedKvStore(std::vector<KvStore*> replicas,
                    ReplicationOptions options);
  /// Owning variant.
  ReplicatedKvStore(std::vector<std::unique_ptr<KvStore>> replicas,
                    ReplicationOptions options);

  /// Convenience: R in-memory replicas.
  static std::unique_ptr<ReplicatedKvStore> InMemory(
      int num_replicas, ReplicationOptions options = {});

  /// Writes to every replica; returns the first error (replicas must not
  /// silently diverge, so a failed write surfaces even when others
  /// succeeded). Write outcomes feed the breakers but ignore them — a
  /// write is never skipped on an open breaker.
  Status Put(std::string_view key, std::string_view value) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;

  /// Served from replica 0 (replicas hold identical data by contract).
  int64_t Count() const override;
  std::vector<std::string> KeysWithPrefix(
      std::string_view prefix) const override;

  /// Epoch-pinned read with the full failover/breaker/hedge machinery; the
  /// epoch is forwarded to whichever replica serves the attempt. Like
  /// NotFound, a FailedPrecondition ("epoch not readable here") is an
  /// authoritative answer — replicas hold identical histories, so it does
  /// not fail over.
  Status GetAt(std::string_view key, uint64_t epoch,
               std::string* value) const override;
  std::vector<std::string> KeysWithPrefixAt(std::string_view prefix,
                                            uint64_t epoch) const override;

  BreakerState breaker_state(size_t replica) const;

 private:
  void Init();
  size_t PrimaryOf(std::string_view key) const;
  /// Feeds replica r's breaker and counts its transitions.
  void Record(size_t r, bool healthy) const;
  Status GetOnce(size_t r, std::string_view key, uint64_t epoch,
                 std::string* value, double* latency_s) const;
  Status GetImpl(std::string_view key, uint64_t epoch,
                 std::string* value) const;

  std::vector<std::unique_ptr<KvStore>> owned_;
  std::vector<KvStore*> replicas_;
  ReplicationOptions options_;
  Clock* clock_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  // Global-registry metrics (aggregated across instances, like retry/*).
  obs::Counter* reads_;
  obs::Counter* failovers_;
  obs::Counter* hedged_reads_;
  obs::Counter* hedge_wins_;
  obs::Counter* breaker_opens_;
  obs::Counter* breaker_closes_;
  obs::Counter* exhausted_;
  obs::Histogram* get_s_;
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_REPLICATED_KV_H_
