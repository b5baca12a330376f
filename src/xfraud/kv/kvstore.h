#ifndef XFRAUD_KV_KVSTORE_H_
#define XFRAUD_KV_KVSTORE_H_

#include <string>
#include <string_view>
#include <vector>

#include "xfraud/common/status.h"

namespace xfraud::kv {

/// Sentinel epoch meaning "the latest published state plus any pending
/// writes" — the pre-MVCC read semantics. Versioned reads pass a real epoch
/// instead; unversioned stores only understand kHeadEpoch.
inline constexpr uint64_t kHeadEpoch = ~0ULL;

/// One key/value pair of a KvStore::PutBatch.
struct KvRecord {
  std::string key;
  std::string value;
};

/// Key-value store interface backing the graph data loaders (paper §3.3.3 /
/// Appendix C: all graph-related information — node features, adjacency —
/// lives in a lightweight KV store so multiple loader threads can feed the
/// GNN workers).
///
/// RocksDB-style contract: all operations return Status; Get on a missing
/// key returns NotFound. Implementations must be safe for concurrent Get;
/// Put/PutBatch/Delete are single-writer.
class KvStore {
 public:
  virtual ~KvStore() = default;

  virtual Status Put(std::string_view key, std::string_view value) = 0;

  /// Puts `records` in order: afterwards the store reads exactly as if each
  /// had been Put in turn (a repeated key keeps its last value). This
  /// default is that Put loop, so a decorator keeps its per-record
  /// behaviour (fault draws, replica fan-out) and stops at the first
  /// failure with the earlier records written. LogKvStore overrides it with
  /// one framed append that lands whole or not at all; ShardedKvStore with
  /// one PutBatch per shard.
  virtual Status PutBatch(const std::vector<KvRecord>& records) {
    for (const KvRecord& record : records) {
      XF_RETURN_IF_ERROR(Put(record.key, record.value));
    }
    return Status::OK();
  }
  virtual Status Get(std::string_view key, std::string* value) const = 0;
  virtual Status Delete(std::string_view key) = 0;

  /// Number of live keys.
  virtual int64_t Count() const = 0;

  /// All live keys with the given prefix, in ascending byte order.
  virtual std::vector<std::string> KeysWithPrefix(
      std::string_view prefix) const = 0;

  /// Epoch-pinned read: the value `key` had as of published epoch `epoch`.
  /// kHeadEpoch means "latest" and is accepted everywhere. Stores without
  /// version history (MemKvStore, plain decorators over them) refuse any
  /// real epoch with FailedPrecondition — a loud failure instead of a
  /// silently mixed-epoch result.
  virtual Status GetAt(std::string_view key, uint64_t epoch,
                       std::string* value) const {
    if (epoch == kHeadEpoch) return Get(key, value);
    return Status::FailedPrecondition(
        "store is not versioned: cannot read at epoch " +
        std::to_string(epoch));
  }

  /// Epoch-pinned prefix scan; same contract as GetAt. Unversioned stores
  /// return an empty list for real epochs (scans cannot return Status, so
  /// callers needing a hard failure should probe GetAt first).
  virtual std::vector<std::string> KeysWithPrefixAt(std::string_view prefix,
                                                    uint64_t epoch) const {
    if (epoch == kHeadEpoch) return KeysWithPrefix(prefix);
    return {};
  }
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_KVSTORE_H_
