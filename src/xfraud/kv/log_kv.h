#ifndef XFRAUD_KV_LOG_KV_H_
#define XFRAUD_KV_LOG_KV_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "xfraud/kv/kvstore.h"
#include "xfraud/kv/snapshot.h"

namespace xfraud::kv {

/// A persistent, log-structured KV store — the reproduction's LMDB stand-in
/// (paper §3.3.3), now with MVCC epochs (DESIGN.md §15). Writes append
/// CRC-protected records to a segment file; an in-memory index maps each key
/// to its version chain. Reads go through a read-only mmap of the segment,
/// so — like LMDB — concurrent readers touch shared, immutable pages and
/// scale with threads (the property Figure 13's multi-threaded loader
/// exploits). The mapping's capacity runs ahead of the file (1 MiB,
/// doubled as the file outgrows it), so appends remap only O(log size)
/// times; no read goes past the file's end (see log_kv.cc).
///
/// Record layout (little endian):
///   u32 crc (over the rest) | u8 kind | u32 klen | u32 vlen
///   | key bytes | value bytes
/// Kinds: 1=put, 2=delete, 3=epoch-commit marker (klen 0, value = LE64
/// epoch number, which replay validates against the marker count — a marker
/// can never be half-believed), 4=GC floor (klen 0, value = LE64 floor
/// epoch; written only by Compact, only when the floor exceeds 1).
///
/// Epoch model: writes land in the *pending* epoch (published + 1), durable
/// in the WAL immediately but committed only by PublishEpoch (marker +
/// fsync). Head reads (Get/KeysWithPrefix/Count) see published + pending;
/// GetAt/KeysWithPrefixAt see exactly one published epoch. PinEpoch holds
/// an epoch against TTL expiry and compaction; DiscardPending rolls the
/// uncommitted tail back (crash-recovery on ingestor reattach).
///
/// Appends: every record is framed by one function and written by one
/// all-or-nothing helper (a short or failed write cuts the file back to
/// where it started). Put, Delete and PublishEpoch append one record each;
/// PutBatch frames the whole batch and appends it with one write under the
/// exclusive lock, so readers see none of a batch or all of it, and a failed
/// batch leaves neither the file nor the index holding any of it. Compact
/// frames its image into a buffer written once per MiB.
///
/// Open() replays the log and stops at the first corrupt/truncated record,
/// truncating the torn tail (crash-safe append semantics). Compact()
/// garbage-collects versions below the GC floor = min(pins, published),
/// preserving each surviving version in its original epoch segment so every
/// readable epoch is bit-identical across compaction.
class LogKvStore : public KvStore, public EpochSource {
 public:
  /// Opens (creating if needed) the store backed by `path`.
  static Result<std::unique_ptr<LogKvStore>> Open(const std::string& path);

  ~LogKvStore() override;

  LogKvStore(const LogKvStore&) = delete;
  LogKvStore& operator=(const LogKvStore&) = delete;

  Status Put(std::string_view key, std::string_view value) override;
  /// One framed write for the whole batch (see the class comment); the
  /// WAL bytes and the pending epoch equal those of the same Puts in order.
  /// An empty batch writes nothing.
  Status PutBatch(const std::vector<KvRecord>& records) override;
  Status Get(std::string_view key, std::string* value) const override;
  Status Delete(std::string_view key) override;
  int64_t Count() const override;
  std::vector<std::string> KeysWithPrefix(
      std::string_view prefix) const override;
  Status GetAt(std::string_view key, uint64_t epoch,
               std::string* value) const override;
  std::vector<std::string> KeysWithPrefixAt(std::string_view prefix,
                                            uint64_t epoch) const override;

  // EpochSource:
  Result<uint64_t> PublishEpoch() override;
  uint64_t published_epoch() const override;
  Status PinEpoch(uint64_t epoch) override;
  void UnpinEpoch(uint64_t epoch) override;
  Status DiscardPending() override;

  /// Garbage-collects versions below the GC floor and rewrites the segment;
  /// returns bytes reclaimed. Crash-safe: the new image is fsynced before an
  /// atomic rename publishes it, so SIGKILL at any instant leaves either the
  /// old or the new image — never a half-published epoch.
  Result<int64_t> Compact() override;

  /// Read-time TTL in epochs (0 = keep forever). A version written at epoch
  /// e is visible at read epoch E iff E - e < ttl; head reads use
  /// E = published + 1 (the open epoch). Purely a visibility rule — expiry
  /// is monotone in E, so compaction can reclaim expired versions without
  /// coordinating with readers beyond the pin floor.
  void SetTtlEpochs(uint64_t ttl);

  /// Earliest epoch still readable (compaction floor; 1 on a fresh log).
  uint64_t earliest_epoch() const;

  /// Current segment size in bytes (live + garbage).
  int64_t FileSize() const;

  /// Test hook: called inside Compact at phase 0 (image written, not yet
  /// fsynced), 1 (fsynced, not yet renamed), 2 (renamed). The SIGKILL
  /// crash-window tests park a self-kill here.
  void SetCompactionHook(std::function<void(int)> hook);

 private:
  explicit LogKvStore(std::string path);

  /// One entry in a key's version chain, ascending by epoch, at most one
  /// per (key, epoch) — a rewrite within the open epoch replaces in place,
  /// which keeps single-epoch (legacy) stores compacting exactly as before.
  struct Version {
    uint64_t epoch;
    int64_t value_offset;  // offset of the value bytes; -1 = tombstone
    uint32_t value_size;
    bool tombstone() const { return value_offset < 0; }
  };

  /// A key's version chain, the value of its index slot. Almost every key
  /// has one version, so the first lives inline and the chain spills to a
  /// heap vector (holding every version) only on the key's second: a
  /// one-version key costs its hash node and no other allocation.
  class Chain {
   public:
    explicit Chain(const Version& first) : first_(first) {}
    const Version* begin() const {
      return spill_.empty() ? &first_ : spill_.data();
    }
    const Version* end() const {
      return spill_.empty() ? &first_ + 1 : spill_.data() + spill_.size();
    }
    const Version& back() const { return end()[-1]; }
    /// Appends `v` (its epoch above back()'s), or replaces back() when `v`
    /// is in the same epoch.
    void Upsert(const Version& v);

   private:
    Version first_;
    std::vector<Version> spill_;  // empty, or all versions (2 or more)
  };

  Status ReplayLog();
  /// Appends `frame` (whole records) at the end of the segment and maps it,
  /// all or nothing: on failure the file is cut back to its old end.
  Status AppendLocked(std::string_view frame);
  /// Remaps the segment at the next power-of-two capacity (>= 1 MiB) when
  /// the file has outgrown the current mapping; a no-op otherwise.
  Status GrowReadMapping();
  /// Drops the read mapping, if any.
  void Unmap();
  using Index = std::unordered_map<std::string, Chain>;

  /// Records `v` as the latest version of `key` in `*index` (replace in
  /// place within the same epoch).
  static void Upsert(Index* index, std::string_view key, const Version& v);
  /// TTL + epoch-order visibility of one version at read epoch `epoch`.
  bool VisibleAt(const Version& v, uint64_t epoch) const;
  /// Latest version of `chain` visible at `epoch`; nullptr if none (or the
  /// winner is a tombstone / TTL-expired).
  const Version* ResolveAt(const Chain& chain, uint64_t epoch) const;
  uint64_t head_epoch_locked() const { return published_ + 1; }
  uint64_t earliest_locked() const { return floor_ == 0 ? 1 : floor_; }

  std::string path_;
  int fd_ = -1;
  int64_t file_size_ = 0;

  mutable std::shared_mutex mu_;  // index guard: shared Get, exclusive Put
  Index index_;

  uint64_t published_ = 0;      // committed epochs (= markers in the log)
  int64_t published_end_ = 0;   // file offset just past the last marker
  uint64_t floor_ = 0;          // GC floor from a kind-4 record (0 = none)
  uint64_t ttl_epochs_ = 0;     // 0 = no expiry
  std::map<uint64_t, int> pins_;  // epoch -> live pin count

  std::function<void(int)> compaction_hook_;

  // Framing buffer of the one-record appends (Put, Delete, PublishEpoch),
  // reused so they allocate nothing per call. Guarded by mu_.
  std::string frame_;

  // Read-only mapping of the segment, `map_capacity_` bytes long: at least
  // file_size_, often more. Reads stay below file_size_.
  const char* map_base_ = nullptr;
  int64_t map_capacity_ = 0;
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_LOG_KV_H_
