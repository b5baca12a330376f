// Seeded ingest-tier bypasses: direct store mutation from a module that is
// neither kv, stream, nor fault, plus the sanctioned suppression. The store
// declarations deliberately span member, wrapper, and parameter forms.

#include <memory>
#include <vector>

namespace xfraud::train {

struct CheckpointSink {
  kv::KvStore* raw_store_;
  std::unique_ptr<kv::LogKvStore> wal_;
  std::vector<kv::MemKvStore*> cells_;
};

void Save(CheckpointSink* sink, kv::FeatureStore* features,
          const graph::HeteroGraph& g) {
  sink->raw_store_->Put("ckpt", "v1");  // finding (line 18)
  sink->wal_->Delete("ckpt");           // finding (line 19)
  sink->cells_[0]->Put("ckpt", "v1");   // subscripted: finding (line 20)
  features->Ingest(g);                  // finding (line 21)
}

void Load(CheckpointSink* sink) {
  std::string value;
  // Reads never bypass anything: Get on a store is clean.
  (void)sink->raw_store_->Get("ckpt", &value);
}

void AllowedSave(CheckpointSink* sink) {
  // Sanctioned one-time bulk load, documented at the site.
  // xfraud-analyze: allow(ingest-bypass)
  sink->raw_store_->Put("ckpt", "v2");
  sink->raw_store_->Put("ckpt", "v3");  // still a finding (line 34)
}

void SaveBatch(CheckpointSink* sink,
               const std::vector<kv::KvRecord>& records) {
  sink->wal_->PutBatch(records);  // finding (line 39)
}

}  // namespace xfraud::train
