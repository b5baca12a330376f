#ifndef XFRAUD_KV_SHARDED_KV_H_
#define XFRAUD_KV_SHARDED_KV_H_

#include <memory>
#include <string>
#include <vector>

#include "xfraud/kv/kvstore.h"
#include "xfraud/obs/metrics.h"

namespace xfraud::kv {

/// Hash-sharded wrapper: key space split across N inner stores so loader
/// threads contend on 1/N of the locks — the "multi threaded KVStore" of
/// paper Figure 13 that each DDP worker's data loader reads independently.
class ShardedKvStore : public KvStore {
 public:
  /// Takes ownership of the shard stores. Pre: at least one shard.
  explicit ShardedKvStore(std::vector<std::unique_ptr<KvStore>> shards);

  /// Non-owning view over externally owned shards (the serving topology
  /// layers shards over replicated/faulty stores it owns itself, and also
  /// builds per-replica ingest views over the same cells). The shards must
  /// outlive this store. Pre: at least one shard, none null.
  explicit ShardedKvStore(std::vector<KvStore*> shards);

  /// Convenience: N in-memory shards.
  static std::unique_ptr<ShardedKvStore> InMemory(int num_shards);

  Status Put(std::string_view key, std::string_view value) override;
  /// Groups `records` by shard, keeping their order within each shard, and
  /// makes one PutBatch per non-empty shard, in shard order. A shard's
  /// failure stops the batch there: earlier shards hold their records.
  Status PutBatch(const std::vector<KvRecord>& records) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  int64_t Count() const override;
  std::vector<std::string> KeysWithPrefix(
      std::string_view prefix) const override;
  /// Epoch-pinned reads route to the same shard as their head
  /// counterparts; the epoch travels to the shard backend verbatim, so
  /// a scan can never silently merge rows from different epochs — shards
  /// that can't serve the epoch fail loudly instead.
  Status GetAt(std::string_view key, uint64_t epoch,
               std::string* value) const override;
  std::vector<std::string> KeysWithPrefixAt(std::string_view prefix,
                                            uint64_t epoch) const override;

  size_t num_shards() const { return shards_.size(); }

 private:
  size_t ShardOf(std::string_view key) const;
  void InitMetrics();

  std::vector<std::unique_ptr<KvStore>> owned_;
  std::vector<KvStore*> shards_;
  // Per-shard op-latency histograms ("kv/shard<i>/get_s", ".../put_s", one
  // put_s sample per Put or shard batch) in the global registry: a hot
  // shard (skewed hash or a slow backend) shows up as one shard's p99
  // detaching from the others'.
  std::vector<obs::Histogram*> shard_get_s_;
  std::vector<obs::Histogram*> shard_put_s_;
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_SHARDED_KV_H_
