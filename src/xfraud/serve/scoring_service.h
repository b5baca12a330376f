#ifndef XFRAUD_SERVE_SCORING_SERVICE_H_
#define XFRAUD_SERVE_SCORING_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "xfraud/baselines/rule_scorer.h"
#include "xfraud/common/clock.h"
#include "xfraud/common/status.h"
#include "xfraud/core/gnn_model.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/obs/metrics.h"

namespace xfraud::serve {

/// What a shed request gets instead of a full GNN score.
enum class ShedPolicy {
  /// Fast Unavailable — the caller retries elsewhere.
  kFailFast,
  /// A cheap degraded score from the prefilter baseline (requires a
  /// fallback scorer; counts against the degraded budget).
  kDegrade,
};

struct ServiceOptions {
  /// Neighborhood sampled per request (LoadBatch hops/fanout).
  int hops = 2;
  int fanout = 12;
  /// Default per-request wall budget; <= 0 disables deadlines.
  double deadline_s = 0.25;
  /// Admission control: requests past this many concurrent scores are
  /// shed; <= 0 disables shedding.
  int max_inflight = 64;
  ShedPolicy shed_policy = ShedPolicy::kFailFast;
  /// Ceiling on the running fraction of degraded responses (zero-imputed
  /// batches and prefilter fallbacks). Past it, would-be-degraded requests
  /// fail fast with Unavailable instead — mirroring the training side's
  /// --max-degraded-frac budget.
  double max_degraded_frac = 1.0;
  /// Root of the per-request sampling RNG streams: request_id r always
  /// samples with Rng(StreamSeed(seed, r)), so any request replays
  /// bit-identically regardless of arrival order or thread.
  uint64_t seed = 17;
  /// Time source for deadlines and latency; nullptr means Clock::Real().
  Clock* clock = nullptr;
};

struct ScoreResponse {
  double score = 0.0;
  /// True when anything was papered over (imputed rows, skipped
  /// expansions, or a prefilter fallback).
  bool degraded = false;
  /// True when the score came from the prefilter baseline, not the GNN.
  bool from_prefilter = false;
  /// Zero-imputed feature rows in the scored batch.
  int64_t imputed_rows = 0;
  /// End-to-end latency on the service clock.
  double latency_s = 0.0;
  /// Deadline budget left at completion (0 when no deadline was set).
  double deadline_slack_s = 0.0;
};

/// The deterministic online fraud-scoring service (the request path of
/// paper §3.3.3): Score() samples the transaction's k-hop neighborhood and
/// features over the (replicated, possibly failing) FeatureStore, runs the
/// detector forward pass, and returns the fraud probability — hardened
/// with admission control, deadline propagation (via DeadlineScope, so the
/// sampler and every KV read below it observe the budget), degraded-mode
/// loading, and an optional prefilter fallback.
///
/// Thread-safe: Score may be called concurrently (the forward pass runs
/// under a per-thread nn::NoGradGuard and records no tape; model parameters
/// are only read). Single-threaded runs are bit-reproducible: the score of
/// (request_id, txn_node) is a pure function of the checkpoint, the store
/// contents, the fault plan, and the service seed.
class ScoringService {
 public:
  /// None owned; all must outlive the service. `model` must be loaded /
  /// initialized for the store's feature_dim.
  ScoringService(const core::GnnModel* model,
                 const kv::FeatureStore* features, ServiceOptions options);

  /// Optional degraded scorer for ShedPolicy::kDegrade and GNN-path
  /// failures (not owned).
  void set_fallback(const baselines::RuleScorer* fallback) {
    fallback_ = fallback;
  }

  /// Scores one transaction under the service's default deadline.
  /// Error statuses: Unavailable (shed, replicas exhausted, or degraded
  /// budget spent) and DeadlineExceeded — both returned fast; a request
  /// never hangs past its deadline by more than one in-flight KV read.
  Result<ScoreResponse> Score(int64_t request_id, int32_t txn_node);
  /// Same with an explicit per-request budget (<= 0: no deadline).
  Result<ScoreResponse> Score(int64_t request_id, int32_t txn_node,
                              double deadline_s);

  /// Scores against one pinned published epoch: every KV read under this
  /// request (sampling walk, features, metadata) is issued at `epoch`, so
  /// the score is a pure function of that epoch's snapshot even while a
  /// writer advances the head concurrently. Callers pin the epoch first
  /// (kv::SnapshotHandle) so it cannot be compacted away mid-request;
  /// kv::kHeadEpoch reproduces Score exactly.
  Result<ScoreResponse> ScoreAt(int64_t request_id, int32_t txn_node,
                                double deadline_s, uint64_t epoch);

  /// Currently admitted requests (tests and load reporting).
  int64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  struct InflightGuard;

  Result<ScoreResponse> FallbackScore(int32_t txn_node, double start_s,
                                      const Deadline& deadline,
                                      uint64_t epoch, const char* reason);
  Result<ScoreResponse> Finish(ScoreResponse resp, double start_s,
                               const Deadline& deadline);
  /// Reserves one degraded completion against max_degraded_frac.
  bool AdmitDegraded();
  void RecordClean();

  const core::GnnModel* model_;
  const kv::FeatureStore* features_;
  const baselines::RuleScorer* fallback_ = nullptr;
  ServiceOptions options_;
  Clock* clock_;

  std::atomic<int64_t> inflight_{0};
  std::mutex degraded_mu_;
  int64_t completed_ = 0;
  int64_t degraded_completed_ = 0;

  // serve/* metrics in the global registry.
  obs::Counter* requests_;
  obs::Counter* ok_;
  obs::Counter* shed_;
  obs::Counter* degraded_;
  obs::Counter* from_prefilter_;
  obs::Counter* unavailable_;
  obs::Counter* deadline_exceeded_;
  obs::Gauge* inflight_gauge_;
  obs::Histogram* score_s_;
  obs::Histogram* sample_s_;
  obs::Histogram* forward_s_;
  obs::Histogram* slack_after_sample_s_;
  obs::Histogram* deadline_slack_s_;
};

}  // namespace xfraud::serve

#endif  // XFRAUD_SERVE_SCORING_SERVICE_H_
