#include "xfraud/kv/sharded_kv.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <string>

#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/obs/registry.h"

namespace xfraud::kv {

ShardedKvStore::ShardedKvStore(std::vector<std::unique_ptr<KvStore>> shards)
    : owned_(std::move(shards)) {
  shards_.reserve(owned_.size());
  for (const auto& shard : owned_) shards_.push_back(shard.get());
  InitMetrics();
}

ShardedKvStore::ShardedKvStore(std::vector<KvStore*> shards)
    : shards_(std::move(shards)) {
  InitMetrics();
}

void ShardedKvStore::InitMetrics() {
  XF_CHECK(!shards_.empty());
  for (KvStore* shard : shards_) XF_CHECK(shard != nullptr);
  auto& registry = obs::Registry::Global();
  shard_get_s_.reserve(shards_.size());
  shard_put_s_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::string prefix = "kv/shard" + std::to_string(i);
    shard_get_s_.push_back(registry.histogram(prefix + "/get_s"));
    shard_put_s_.push_back(registry.histogram(prefix + "/put_s"));
  }
}

std::unique_ptr<ShardedKvStore> ShardedKvStore::InMemory(int num_shards) {
  XF_CHECK_GT(num_shards, 0);
  std::vector<std::unique_ptr<KvStore>> shards;
  shards.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards.push_back(std::make_unique<MemKvStore>());
  }
  return std::make_unique<ShardedKvStore>(std::move(shards));
}

size_t ShardedKvStore::ShardOf(std::string_view key) const {
  size_t shard = std::hash<std::string_view>{}(key) % shards_.size();
  XF_DCHECK_BOUNDS(shard, shards_.size());
  return shard;
}

Status ShardedKvStore::Put(std::string_view key, std::string_view value) {
  size_t shard = ShardOf(key);
  if (!obs::IsEnabled()) return shards_[shard]->Put(key, value);
  WallTimer timer;
  Status s = shards_[shard]->Put(key, value);
  shard_put_s_[shard]->Record(timer.ElapsedSeconds());
  return s;
}

Status ShardedKvStore::PutBatch(const std::vector<KvRecord>& records) {
  std::vector<std::vector<KvRecord>> batches(shards_.size());
  for (const KvRecord& record : records) {
    batches[ShardOf(record.key)].push_back(record);
  }
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    if (batches[shard].empty()) continue;
    WallTimer timer;
    Status s = shards_[shard]->PutBatch(batches[shard]);
    if (obs::IsEnabled()) shard_put_s_[shard]->Record(timer.ElapsedSeconds());
    XF_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status ShardedKvStore::Get(std::string_view key, std::string* value) const {
  size_t shard = ShardOf(key);
  if (!obs::IsEnabled()) return shards_[shard]->Get(key, value);
  WallTimer timer;
  Status s = shards_[shard]->Get(key, value);
  shard_get_s_[shard]->Record(timer.ElapsedSeconds());
  return s;
}

Status ShardedKvStore::GetAt(std::string_view key, uint64_t epoch,
                             std::string* value) const {
  if (epoch == kHeadEpoch) return Get(key, value);
  size_t shard = ShardOf(key);
  if (!obs::IsEnabled()) return shards_[shard]->GetAt(key, epoch, value);
  WallTimer timer;
  Status s = shards_[shard]->GetAt(key, epoch, value);
  shard_get_s_[shard]->Record(timer.ElapsedSeconds());
  return s;
}

std::vector<std::string> ShardedKvStore::KeysWithPrefixAt(
    std::string_view prefix, uint64_t epoch) const {
  if (epoch == kHeadEpoch) return KeysWithPrefix(prefix);
  // Same shard-layout-independent merge as the head scan; every shard is
  // asked for the SAME epoch, so the merged listing is a single-epoch view.
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::vector<std::string> keys = shard->KeysWithPrefixAt(prefix, epoch);
    std::sort(keys.begin(), keys.end());  // defensive: contract says sorted
    std::vector<std::string> merged;
    merged.reserve(out.size() + keys.size());
    std::merge(std::make_move_iterator(out.begin()),
               std::make_move_iterator(out.end()),
               std::make_move_iterator(keys.begin()),
               std::make_move_iterator(keys.end()),
               std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

Status ShardedKvStore::Delete(std::string_view key) {
  return shards_[ShardOf(key)]->Delete(key);
}

int64_t ShardedKvStore::Count() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->Count();
  return total;
}

std::vector<std::string> ShardedKvStore::KeysWithPrefix(
    std::string_view prefix) const {
  // Merge the (sorted) per-shard lists so the result is in ascending byte
  // order regardless of shard count or hash layout — callers comparing key
  // listings across different shardings must see identical output.
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    std::vector<std::string> keys = shard->KeysWithPrefix(prefix);
    std::sort(keys.begin(), keys.end());  // defensive: contract says sorted
    std::vector<std::string> merged;
    merged.reserve(out.size() + keys.size());
    std::merge(std::make_move_iterator(out.begin()),
               std::make_move_iterator(out.end()),
               std::make_move_iterator(keys.begin()),
               std::make_move_iterator(keys.end()),
               std::back_inserter(merged));
    out = std::move(merged);
  }
  return out;
}

}  // namespace xfraud::kv
