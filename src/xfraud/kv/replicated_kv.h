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
class ReplicatedKvStore : public KvStore {
 public:
  using BreakerState = CircuitBreaker::State;

  /// Non-owning: `replicas` must outlive this store (none null, at least
  /// one). `clock` times reads and breaker cool-offs; nullptr means
  /// Clock::Real().
  ReplicatedKvStore(std::vector<KvStore*> replicas, Clock* clock);
  /// Owning variant.
  ReplicatedKvStore(std::vector<std::unique_ptr<KvStore>> replicas,
                    Clock* clock);

  /// Convenience: R in-memory replicas on the real clock.
  static std::unique_ptr<ReplicatedKvStore> InMemory(int num_replicas);

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

  /// Epoch-pinned read with the full failover/breaker machinery; the
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
  void Init(Clock* clock);
  size_t PrimaryOf(std::string_view key) const;
  /// Feeds replica r's breaker and counts its transitions.
  void Record(size_t r, bool healthy) const;
  Status GetImpl(std::string_view key, uint64_t epoch,
                 std::string* value) const;

  std::vector<std::unique_ptr<KvStore>> owned_;
  std::vector<KvStore*> replicas_;
  Clock* clock_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  // Global-registry metrics (aggregated across instances, like retry/*).
  obs::Counter* reads_;
  obs::Counter* failovers_;
  obs::Counter* breaker_opens_;
  obs::Counter* breaker_closes_;
  obs::Counter* exhausted_;
  obs::Histogram* get_s_;
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_REPLICATED_KV_H_
