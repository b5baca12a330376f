#ifndef XFRAUD_KV_KV_METRICS_H_
#define XFRAUD_KV_KV_METRICS_H_

#include "xfraud/obs/registry.h"

namespace xfraud::kv {

/// Cached global-registry handles shared by every KvStore backend: hit/miss
/// ratio of the loader's point reads plus the bytes crossing the store
/// boundary in each direction. Backends bump these inside their own locks'
/// shadow (relaxed atomics; a few ns on top of a map probe or log append).
/// Per-shard op latency lives in ShardedKvStore, which owns the fan-out.
/// `remaps` counts LogKvStore's real mmap calls (its read mapping grows by
/// doubling, so a bulk load should show a handful, not one per record).
struct KvMetrics {
  obs::Counter* get_hits;
  obs::Counter* get_misses;
  obs::Counter* put_ops;
  obs::Counter* bytes_read;
  obs::Counter* bytes_written;
  obs::Counter* remaps;

  static const KvMetrics& Get() {
    static const KvMetrics m = [] {
      auto& r = obs::Registry::Global();
      return KvMetrics{r.counter("kv/get_hits"), r.counter("kv/get_misses"),
                       r.counter("kv/put_ops"), r.counter("kv/bytes_read"),
                       r.counter("kv/bytes_written"), r.counter("kv/remaps")};
    }();
    return m;
  }
};

}  // namespace xfraud::kv

#endif  // XFRAUD_KV_KV_METRICS_H_
