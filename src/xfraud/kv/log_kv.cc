#include "xfraud/kv/log_kv.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"
#include "xfraud/common/logging.h"
#include "xfraud/kv/kv_metrics.h"

namespace xfraud::kv {

namespace {

constexpr uint8_t kKindPut = 1;
constexpr uint8_t kKindDelete = 2;
constexpr uint8_t kKindEpoch = 3;  // commit marker: klen 0, value LE64 epoch
constexpr uint8_t kKindFloor = 4;  // GC floor: klen 0, value LE64 epoch
constexpr size_t kHeaderSize = 4 + 1 + 4 + 4;  // crc + kind + klen + vlen

// The read mapping's capacity: 1 MiB, doubled until it covers the file. A
// load of N bytes one Put at a time then maps ceil(log2(N / 1 MiB)) + 1
// times instead of once per record; a PutBatch maps at most once.
//
// The mapping reaches past the file's end, and touching a page that lies
// wholly past EOF raises SIGBUS. No read can get there: every read is
// bounded by file_size_ — replay's header walk checks each record against
// it, and Get/GetAt/Compact read only index entries, which replay or an
// append under the exclusive lock created below file_size_. The shrink
// paths keep the rule: replay's torn-tail ftruncate and DiscardPending cut
// the file only under the exclusive lock and rebuild the index from the
// shorter file before any reader runs, a failed append cuts off only bytes
// no index entry points at yet, and Compact maps the new image before
// swapping it in.
constexpr int64_t kMinMapCapacity = int64_t{1} << 20;

int64_t MapCapacityFor(int64_t size) {
  int64_t capacity = kMinMapCapacity;
  while (capacity < size) capacity *= 2;
  return capacity;
}

/// Maps `capacity` bytes of `fd` read-only; nullptr if mmap fails.
const char* MapForRead(int fd, int64_t capacity) {
  void* base = ::mmap(nullptr, static_cast<size_t>(capacity), PROT_READ,
                      MAP_SHARED, fd, 0);
  if (base == MAP_FAILED) return nullptr;
  KvMetrics::Get().remaps->Increment();
  return static_cast<const char*>(base);
}

// Compact writes its image whenever this many framed bytes are buffered.
constexpr size_t kCompactFlushBytes = size_t{1} << 20;

/// Frames one WAL record onto the end of `*frame`: {crc: u32, kind: u8,
/// klen: u32, vlen: u32, key, value}, the CRC covering everything after
/// itself. Returns the position of the value bytes in `*frame`.
size_t AppendRecord(uint8_t kind, std::string_view key,
                    std::string_view value, std::string* frame) {
  // Record framing stores lengths as u32; larger payloads would be silently
  // truncated on replay.
  XF_CHECK_LE(key.size(), UINT32_MAX);
  XF_CHECK_LE(value.size(), UINT32_MAX);
  const size_t start = frame->size();
  ByteWriter out(frame);
  out.U32(0).U8(kind).U32(static_cast<uint32_t>(key.size()));
  out.U32(static_cast<uint32_t>(value.size())).Bytes(key).Bytes(value);
  out.PatchU32(start, Crc32(frame->data() + start + 4,
                            frame->size() - start - 4));
  return start + kHeaderSize + key.size();
}

/// Writes `bytes` at `offset` of `fd` with one pwrite, all or nothing: on a
/// short or failed write the file is cut back to `offset`.
Status WriteAll(int fd, const std::string& path, int64_t offset,
                std::string_view bytes) {
  if (::pwrite(fd, bytes.data(), bytes.size(), offset) ==
      static_cast<ssize_t>(bytes.size())) {
    return Status::OK();
  }
  if (::ftruncate(fd, offset) != 0) {
    return Status::IoError("short write on " + path +
                           ", and cutting it back failed");
  }
  return Status::IoError("short write on " + path);
}

/// The value of an epoch-marker or GC-floor record.
std::string EpochValue(uint64_t epoch) {
  return ByteWriter().U64(epoch).Release();
}

}  // namespace

LogKvStore::LogKvStore(std::string path) : path_(std::move(path)) {}

Result<std::unique_ptr<LogKvStore>> LogKvStore::Open(const std::string& path) {
  // make_unique cannot reach the private ctor; ownership is taken on the
  // same line. xfraud-lint: allow(no-naked-new)
  std::unique_ptr<LogKvStore> store(new LogKvStore(path));
  // A crash mid-Compact can leave a stale "<path>.compact" behind (the
  // rename never happened, so the live log is still authoritative). Remove
  // it on open: it must never be replayed, and leaving it around would make
  // the next Compact start from a partially-written file.
  ::unlink((path + ".compact").c_str());
  store->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (store->fd_ < 0) {
    return Status::IoError("cannot open " + path);
  }
  struct stat st;
  if (::fstat(store->fd_, &st) != 0) {
    return Status::IoError("fstat failed on " + path);
  }
  store->file_size_ = st.st_size;
  // No lock needed: the store is not shared until Open returns. Note that
  // replay keeps any uncommitted pending-epoch tail — rolling it back is an
  // explicit policy decision (DiscardPending, e.g. on ingestor reattach),
  // never something Open does silently.
  Status s = store->ReplayLog();
  if (!s.ok()) return s;
  return store;
}

LogKvStore::~LogKvStore() {
  Unmap();
  if (fd_ >= 0) ::close(fd_);
}

void LogKvStore::Unmap() {
  if (map_base_ != nullptr) {
    ::munmap(const_cast<char*>(map_base_),
             static_cast<size_t>(map_capacity_));
  }
  map_base_ = nullptr;
  map_capacity_ = 0;
}

Status LogKvStore::GrowReadMapping() {
  if (file_size_ <= map_capacity_) return Status::OK();
  // Map the larger window before dropping the old one: a failed mmap leaves
  // every byte the index already points at readable.
  const int64_t capacity = MapCapacityFor(file_size_);
  const char* base = MapForRead(fd_, capacity);
  if (base == nullptr) return Status::IoError("mmap failed on " + path_);
  Unmap();
  map_base_ = base;
  map_capacity_ = capacity;
  return Status::OK();
}

Status LogKvStore::AppendLocked(std::string_view frame) {
  const int64_t start = file_size_;
  XF_RETURN_IF_ERROR(WriteAll(fd_, path_, start, frame));
  file_size_ = start + static_cast<int64_t>(frame.size());
  Status mapped = GrowReadMapping();
  if (!mapped.ok()) {
    // Nothing points at the new bytes yet: cut them off again.
    file_size_ = start;
    if (::ftruncate(fd_, start) != 0) {
      return Status::IoError("ftruncate failed on " + path_);
    }
  }
  return mapped;
}

Status LogKvStore::ReplayLog() {
  index_.clear();
  published_ = 0;
  published_end_ = 0;
  floor_ = 0;
  XF_RETURN_IF_ERROR(GrowReadMapping());
  int64_t offset = 0;
  int64_t valid_end = 0;
  while (offset + static_cast<int64_t>(kHeaderSize) <= file_size_) {
    const char* rec = map_base_ + offset;
    ByteReader header(rec, kHeaderSize);
    const uint32_t crc = header.U32();
    const uint8_t kind = header.U8();
    const uint32_t klen = header.U32();
    const uint32_t vlen = header.U32();
    int64_t total = static_cast<int64_t>(kHeaderSize) + klen + vlen;
    if (offset + total > file_size_) break;  // truncated tail
    uint32_t actual = Crc32(rec + 4, kHeaderSize - 4 + klen + vlen);
    if (actual != crc) break;  // corrupt tail: stop replay (crash safety)
    const std::string_view key(rec + kHeaderSize, klen);
    const int64_t value_offset =
        offset + static_cast<int64_t>(kHeaderSize) + klen;
    if (kind == kKindPut) {
      Upsert(&index_, key, Version{published_ + 1, value_offset, vlen});
    } else if (kind == kKindDelete) {
      Upsert(&index_, key, Version{published_ + 1, -1, 0});
    } else if (kind == kKindEpoch) {
      // A marker commits exactly the next epoch; anything else means the
      // log was torn or tampered with — stop replay there.
      if (klen != 0 || vlen != 8) break;
      if (ByteReader(rec + kHeaderSize, 8).U64() != published_ + 1) break;
      ++published_;
      published_end_ = offset + total;
    } else if (kind == kKindFloor) {
      if (klen != 0 || vlen != 8) break;
      floor_ = ByteReader(rec + kHeaderSize, 8).U64();
    } else {
      break;  // unknown record kind: treat as corruption
    }
    offset += total;
    valid_end = offset;
  }
  // Drop any corrupt/truncated tail so future appends start clean.
  if (valid_end < file_size_) {
    if (::ftruncate(fd_, valid_end) != 0) {
      return Status::IoError("ftruncate failed on " + path_);
    }
    file_size_ = valid_end;  // the mapping stays; reads stop at valid_end
  }
  return Status::OK();
}

void LogKvStore::Chain::Upsert(const Version& v) {
  if (back().epoch == v.epoch) {
    // A rewrite within the open epoch replaces in place.
    (spill_.empty() ? first_ : spill_.back()) = v;
  } else if (spill_.empty()) {
    spill_ = {first_, v};
  } else {
    spill_.push_back(v);
  }
}

void LogKvStore::Upsert(Index* index, std::string_view key,
                        const Version& v) {
  auto [it, inserted] = index->try_emplace(std::string(key), v);
  if (!inserted) it->second.Upsert(v);
}

bool LogKvStore::VisibleAt(const Version& v, uint64_t epoch) const {
  if (v.epoch > epoch) return false;
  return ttl_epochs_ == 0 || epoch - v.epoch < ttl_epochs_;
}

const LogKvStore::Version* LogKvStore::ResolveAt(const Chain& chain,
                                                 uint64_t epoch) const {
  // Latest version at or below the read epoch wins; if it is a tombstone
  // or TTL-expired the key is absent at that epoch (older versions are
  // shadowed, never resurrected).
  for (const Version* v = chain.end(); v != chain.begin();) {
    --v;
    if (v->epoch > epoch) continue;
    if (v->tombstone() || !VisibleAt(*v, epoch)) return nullptr;
    return v;
  }
  return nullptr;
}

Status LogKvStore::Put(std::string_view key, std::string_view value) {
  const KvMetrics& metrics = KvMetrics::Get();
  std::unique_lock lock(mu_);
  frame_.clear();
  const int64_t value_offset =
      file_size_ +
      static_cast<int64_t>(AppendRecord(kKindPut, key, value, &frame_));
  XF_RETURN_IF_ERROR(AppendLocked(frame_));
  Upsert(&index_, key,
         Version{head_epoch_locked(), value_offset,
                 static_cast<uint32_t>(value.size())});
  metrics.put_ops->Increment();
  metrics.bytes_written->Add(static_cast<int64_t>(frame_.size()));
  return Status::OK();
}

Status LogKvStore::PutBatch(const std::vector<KvRecord>& records) {
  if (records.empty()) return Status::OK();
  const KvMetrics& metrics = KvMetrics::Get();
  // Framing reads no store state, so it runs before the lock is taken;
  // the lock covers the one write and the index updates.
  size_t bytes = 0;
  for (const KvRecord& record : records) {
    bytes += kHeaderSize + record.key.size() + record.value.size();
  }
  std::string frame;
  frame.reserve(bytes);
  for (const KvRecord& record : records) {
    AppendRecord(kKindPut, record.key, record.value, &frame);
  }
  std::unique_lock lock(mu_);
  int64_t offset = file_size_;
  XF_RETURN_IF_ERROR(AppendLocked(frame));
  index_.reserve(index_.size() + records.size());
  for (const KvRecord& record : records) {
    offset += static_cast<int64_t>(kHeaderSize + record.key.size());
    Upsert(&index_, record.key,
           Version{head_epoch_locked(), offset,
                   static_cast<uint32_t>(record.value.size())});
    offset += static_cast<int64_t>(record.value.size());
  }
  metrics.put_ops->Add(static_cast<int64_t>(records.size()));
  metrics.bytes_written->Add(static_cast<int64_t>(frame.size()));
  return Status::OK();
}

Status LogKvStore::Get(std::string_view key, std::string* value) const {
  const KvMetrics& metrics = KvMetrics::Get();
  std::shared_lock lock(mu_);
  auto it = index_.find(std::string(key));
  const Version* v = it == index_.end()
                         ? nullptr
                         : ResolveAt(it->second, head_epoch_locked());
  if (v == nullptr) {
    metrics.get_misses->Increment();
    return Status::NotFound("key: " + std::string(key));
  }
  XF_CHECK_LE(v->value_offset + v->value_size, file_size_);
  value->assign(map_base_ + v->value_offset, v->value_size);
  metrics.get_hits->Increment();
  metrics.bytes_read->Add(static_cast<int64_t>(v->value_size));
  return Status::OK();
}

Status LogKvStore::GetAt(std::string_view key, uint64_t epoch,
                         std::string* value) const {
  if (epoch == kHeadEpoch) return Get(key, value);
  const KvMetrics& metrics = KvMetrics::Get();
  std::shared_lock lock(mu_);
  if (epoch == 0 || epoch > published_) {
    return Status::FailedPrecondition(
        "epoch " + std::to_string(epoch) + " is not published (head is " +
        std::to_string(published_) + ")");
  }
  if (epoch < earliest_locked()) {
    return Status::FailedPrecondition(
        "epoch " + std::to_string(epoch) + " was compacted away (floor " +
        std::to_string(earliest_locked()) + ")");
  }
  auto it = index_.find(std::string(key));
  const Version* v =
      it == index_.end() ? nullptr : ResolveAt(it->second, epoch);
  if (v == nullptr) {
    metrics.get_misses->Increment();
    return Status::NotFound("key: " + std::string(key) + " at epoch " +
                            std::to_string(epoch));
  }
  XF_CHECK_LE(v->value_offset + v->value_size, file_size_);
  value->assign(map_base_ + v->value_offset, v->value_size);
  metrics.get_hits->Increment();
  metrics.bytes_read->Add(static_cast<int64_t>(v->value_size));
  return Status::OK();
}

Status LogKvStore::Delete(std::string_view key) {
  std::unique_lock lock(mu_);
  auto it = index_.find(std::string(key));
  if (it == index_.end() ||
      ResolveAt(it->second, head_epoch_locked()) == nullptr) {
    return Status::OK();  // idempotent: nothing visible to delete
  }
  frame_.clear();
  AppendRecord(kKindDelete, key, "", &frame_);
  XF_RETURN_IF_ERROR(AppendLocked(frame_));
  Upsert(&index_, key, Version{head_epoch_locked(), -1, 0});
  return Status::OK();
}

int64_t LogKvStore::Count() const {
  std::shared_lock lock(mu_);
  int64_t live = 0;
  // Order-insensitive hash-map walk: counting only.
  // xfraud-analyze: allow(unordered-iter)
  for (const auto& [key, chain] : index_) {
    if (ResolveAt(chain, head_epoch_locked()) != nullptr) ++live;
  }
  return live;
}

std::vector<std::string> LogKvStore::KeysWithPrefix(
    std::string_view prefix) const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  // Order-insensitive hash-map walk: the matches are sorted below, so the
  // iteration order never reaches the caller.
  // xfraud-analyze: allow(unordered-iter)
  for (const auto& [key, chain] : index_) {
    if (key.size() >= prefix.size() &&
        std::string_view(key).substr(0, prefix.size()) == prefix &&
        ResolveAt(chain, head_epoch_locked()) != nullptr) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LogKvStore::KeysWithPrefixAt(std::string_view prefix,
                                                      uint64_t epoch) const {
  if (epoch == kHeadEpoch) return KeysWithPrefix(prefix);
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  if (epoch == 0 || epoch > published_ || epoch < earliest_locked()) {
    return out;  // unreadable epoch: callers probe GetAt for the Status
  }
  // Order-insensitive hash-map walk, sorted below.
  // xfraud-analyze: allow(unordered-iter)
  for (const auto& [key, chain] : index_) {
    if (key.size() >= prefix.size() &&
        std::string_view(key).substr(0, prefix.size()) == prefix &&
        ResolveAt(chain, epoch) != nullptr) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<uint64_t> LogKvStore::PublishEpoch() {
  std::unique_lock lock(mu_);
  const uint64_t next = published_ + 1;
  frame_.clear();
  AppendRecord(kKindEpoch, "", EpochValue(next), &frame_);
  XF_RETURN_IF_ERROR(AppendLocked(frame_));
  // The marker + fsync IS the commit: before this returns OK the epoch does
  // not exist (replay stops at the previous marker); after it returns OK
  // the epoch can never be lost to a crash.
  if (::fsync(fd_) != 0) {
    return Status::IoError("fsync failed on " + path_);
  }
  published_ = next;
  published_end_ = file_size_;
  return next;
}

uint64_t LogKvStore::published_epoch() const {
  std::shared_lock lock(mu_);
  return published_;
}

Status LogKvStore::PinEpoch(uint64_t epoch) {
  std::unique_lock lock(mu_);
  if (epoch == 0 || epoch == kHeadEpoch) {
    return Status::InvalidArgument("cannot pin epoch " +
                                   std::to_string(epoch));
  }
  if (epoch > published_) {
    return Status::FailedPrecondition(
        "cannot pin unpublished epoch " + std::to_string(epoch) +
        " (published " + std::to_string(published_) + ")");
  }
  if (epoch < earliest_locked()) {
    return Status::FailedPrecondition(
        "epoch " + std::to_string(epoch) + " was compacted away (floor " +
        std::to_string(earliest_locked()) + ")");
  }
  ++pins_[epoch];
  return Status::OK();
}

void LogKvStore::UnpinEpoch(uint64_t epoch) {
  std::unique_lock lock(mu_);
  auto it = pins_.find(epoch);
  XF_CHECK(it != pins_.end()) << "unpin of never-pinned epoch " << epoch;
  if (--it->second == 0) pins_.erase(it);
}

Status LogKvStore::DiscardPending() {
  std::unique_lock lock(mu_);
  if (file_size_ == published_end_) return Status::OK();
  if (::ftruncate(fd_, published_end_) != 0) {
    return Status::IoError("ftruncate failed on " + path_);
  }
  file_size_ = published_end_;
  // Rebuild the index from the truncated log: cheap relative to how rarely
  // an ingestor reattaches, and obviously equivalent to a crash + reopen.
  return ReplayLog();
}

void LogKvStore::SetTtlEpochs(uint64_t ttl) {
  std::unique_lock lock(mu_);
  ttl_epochs_ = ttl;
}

uint64_t LogKvStore::earliest_epoch() const {
  std::shared_lock lock(mu_);
  return earliest_locked();
}

void LogKvStore::SetCompactionHook(std::function<void(int)> hook) {
  std::unique_lock lock(mu_);
  compaction_hook_ = std::move(hook);
}

Result<int64_t> LogKvStore::Compact() {
  std::unique_lock lock(mu_);
  std::string tmp_path = path_ + ".compact";
  int tmp_fd = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) return Status::IoError("cannot open " + tmp_path);

  // GC floor: nothing at or below it is pinned except the floor itself, so
  // per key only the latest floor-visible version survives from below; every
  // version above the floor (including the uncommitted pending tail) is
  // preserved verbatim.
  uint64_t floor = published_;
  if (!pins_.empty()) floor = std::min(floor, pins_.begin()->first);

  struct Slot {
    std::string_view key;
    const Version* v;
  };
  // One bucket per epoch segment 1..published_+1 (index 0 unused): kept
  // versions are rewritten into their ORIGINAL epoch segment, between the
  // preserved commit markers, so every readable epoch — and the TTL
  // arithmetic that depends on write epochs — is bit-identical across
  // compaction.
  std::vector<std::vector<Slot>> segments(published_ + 2);
  // The collection loop itself is order-insensitive (each segment is sorted
  // by key below, making the image a pure function of retained state).
  std::vector<const Version*> retained;  // one key's, reused across keys
  // xfraud-analyze: allow(unordered-iter)
  for (const auto& [key, chain] : index_) {
    const Version* below = nullptr;  // latest version at or below the floor
    retained.clear();
    for (const Version& v : chain) {
      if (v.epoch <= floor) {
        below = &v;
      } else {
        retained.push_back(&v);
      }
    }
    if (below != nullptr && !below->tombstone() && VisibleAt(*below, floor)) {
      retained.insert(retained.begin(), below);
    }
    // Leading tombstones shadow nothing retained — drop them (this is what
    // reclaims deleted keys once no pin can see their values).
    size_t start = 0;
    while (start < retained.size() && retained[start]->tombstone()) ++start;
    for (size_t i = start; i < retained.size(); ++i) {
      segments[retained[i]->epoch].push_back(Slot{key, retained[i]});
    }
  }

  int64_t old_size = file_size_;
  int64_t new_published_end = 0;
  Index new_index;
  new_index.reserve(index_.size());

  // The image is framed into `frame` and written whenever the buffer passes
  // kCompactFlushBytes, and once more before the phase-0 hook.
  std::string frame;
  frame.reserve(kCompactFlushBytes);
  int64_t flushed = 0;  // image bytes already written
  auto flush = [&]() -> Status {
    XF_RETURN_IF_ERROR(WriteAll(tmp_fd, tmp_path, flushed, frame));
    flushed += static_cast<int64_t>(frame.size());
    frame.clear();
    return Status::OK();
  };
  // Frames one record; `*value_offset` (if given) gets the image offset of
  // its value bytes.
  auto write_record = [&](uint8_t kind, std::string_view key,
                          std::string_view value,
                          int64_t* value_offset = nullptr) -> Status {
    const size_t at = AppendRecord(kind, key, value, &frame);
    if (value_offset != nullptr) {
      *value_offset = flushed + static_cast<int64_t>(at);
    }
    return frame.size() >= kCompactFlushBytes ? flush() : Status::OK();
  };
  auto fail = [&](Status s) -> Result<int64_t> {
    ::close(tmp_fd);
    return s;
  };

  // A floor above 1 must survive reopen (readers below it would otherwise
  // see a silently collapsed history); at or below 1 no record is written,
  // which keeps never-pinned single-epoch stores' images byte-identical to
  // the pre-MVCC layout.
  if (floor > 1) {
    Status s = write_record(kKindFloor, "", EpochValue(floor));
    if (!s.ok()) return fail(std::move(s));
  }
  for (uint64_t e = 1; e <= published_ + 1; ++e) {
    std::vector<Slot>& seg = segments[e];
    std::sort(seg.begin(), seg.end(), [](const Slot& a, const Slot& b) {
      return a.key < b.key;
    });
    for (const Slot& slot : seg) {
      if (slot.v->tombstone()) {
        Status s = write_record(kKindDelete, slot.key, "");
        if (!s.ok()) return fail(std::move(s));
        Upsert(&new_index, slot.key, Version{e, -1, 0});
      } else {
        int64_t value_offset = 0;
        Status s = write_record(
            kKindPut, slot.key,
            std::string_view(map_base_ + slot.v->value_offset,
                             slot.v->value_size),
            &value_offset);
        if (!s.ok()) return fail(std::move(s));
        Upsert(&new_index, slot.key,
               Version{e, value_offset, slot.v->value_size});
      }
    }
    // Commit markers for every published epoch are preserved (replay
    // validates consecutive numbering); the pending segment, if any, stays
    // uncommitted — no trailing marker.
    if (e <= published_) {
      Status s = write_record(kKindEpoch, "", EpochValue(e));
      if (!s.ok()) return fail(std::move(s));
      new_published_end = flushed + static_cast<int64_t>(frame.size());
    }
  }
  Status flushed_all = flush();
  if (!flushed_all.ok()) return fail(std::move(flushed_all));
  const int64_t new_size = flushed;

  if (compaction_hook_) compaction_hook_(0);
  // Make the compacted image durable before the rename publishes it; a
  // crash between rename and a later fsync could otherwise surface a
  // zero-length "compacted" log.
  if (::fsync(tmp_fd) != 0) {
    return fail(Status::IoError("fsync failed on " + tmp_path));
  }
  if (compaction_hook_) compaction_hook_(1);
  // Map the new image before the rename, so a failed mmap leaves the old
  // image live and this store still reading it.
  const int64_t new_capacity = MapCapacityFor(new_size);
  const char* new_base = MapForRead(tmp_fd, new_capacity);
  if (new_base == nullptr) {
    return fail(Status::IoError("mmap failed on " + tmp_path));
  }
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::munmap(const_cast<char*>(new_base), static_cast<size_t>(new_capacity));
    return fail(Status::IoError("rename failed for " + tmp_path));
  }
  if (compaction_hook_) compaction_hook_(2);
  Unmap();
  map_base_ = new_base;
  map_capacity_ = new_capacity;
  ::close(fd_);
  fd_ = tmp_fd;
  file_size_ = new_size;
  published_end_ = new_published_end;
  if (floor > 1) floor_ = floor;
  index_ = std::move(new_index);
  return old_size - new_size;
}

int64_t LogKvStore::FileSize() const {
  std::shared_lock lock(mu_);
  return file_size_;
}

}  // namespace xfraud::kv
