#include "xfraud/serve/scoring_service.h"

#include <algorithm>
#include <string>
#include <vector>

#include "xfraud/common/logging.h"
#include "xfraud/common/rng.h"
#include "xfraud/obs/registry.h"

namespace xfraud::serve {

struct ScoringService::InflightGuard {
  explicit InflightGuard(ScoringService* service) : service_(service) {
    depth_ =
        service_->inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    service_->inflight_gauge_->Set(static_cast<double>(depth_));
  }
  ~InflightGuard() {
    int64_t now =
        service_->inflight_.fetch_sub(1, std::memory_order_relaxed) - 1;
    service_->inflight_gauge_->Set(static_cast<double>(now));
  }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

  /// Queue depth including this request, at admission time.
  int64_t depth() const { return depth_; }

  ScoringService* service_;
  int64_t depth_ = 0;
};

ScoringService::ScoringService(const core::GnnModel* model,
                               const kv::FeatureStore* features,
                               ServiceOptions options)
    : model_(model), features_(features), options_(options) {
  XF_CHECK(model_ != nullptr);
  XF_CHECK(features_ != nullptr);
  clock_ = options_.clock != nullptr ? options_.clock : Clock::Real();
  auto& r = obs::Registry::Global();
  requests_ = r.counter("serve/requests");
  ok_ = r.counter("serve/ok");
  shed_ = r.counter("serve/shed");
  degraded_ = r.counter("serve/degraded");
  from_prefilter_ = r.counter("serve/from_prefilter");
  unavailable_ = r.counter("serve/unavailable");
  deadline_exceeded_ = r.counter("serve/deadline_exceeded");
  inflight_gauge_ = r.gauge("serve/inflight");
  score_s_ = r.histogram("serve/score_s");
  sample_s_ = r.histogram("serve/sample_s");
  forward_s_ = r.histogram("serve/forward_s");
  slack_after_sample_s_ = r.histogram("serve/slack_after_sample_s");
  deadline_slack_s_ = r.histogram("serve/deadline_slack_s");
}

bool ScoringService::AdmitDegraded() {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  // Would admitting this response keep degraded/completed within budget?
  if (static_cast<double>(degraded_completed_ + 1) >
      options_.max_degraded_frac * static_cast<double>(completed_ + 1)) {
    return false;
  }
  ++degraded_completed_;
  ++completed_;
  return true;
}

void ScoringService::RecordClean() {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  ++completed_;
}

Result<ScoreResponse> ScoringService::Finish(ScoreResponse resp,
                                             double start_s,
                                             const Deadline& deadline) {
  resp.latency_s = clock_->NowSeconds() - start_s;
  if (!deadline.unlimited()) {
    resp.deadline_slack_s = std::max(0.0, deadline.RemainingSeconds());
    deadline_slack_s_->Record(resp.deadline_slack_s);
  }
  score_s_->Record(resp.latency_s);
  ok_->Increment();
  if (resp.degraded) degraded_->Increment();
  if (resp.from_prefilter) from_prefilter_->Increment();
  return resp;
}

Result<ScoreResponse> ScoringService::FallbackScore(int32_t txn_node,
                                                    double start_s,
                                                    const Deadline& deadline,
                                                    uint64_t epoch,
                                                    const char* reason) {
  XF_CHECK(fallback_ != nullptr);
  // The fallback still reads the seed's own features, under the deadline
  // and at the request's pinned epoch.
  DeadlineScope scope(deadline);
  std::vector<float> features;
  Status fs = features_->ReadFeatures(txn_node, &features, epoch);
  if (fs.IsDeadlineExceeded()) {
    deadline_exceeded_->Increment();
    return fs;
  }
  if (!fs.ok() && !fs.IsNotFound()) {
    unavailable_->Increment();
    return Status::Unavailable(std::string(reason) +
                               "; prefilter fallback failed too: " +
                               fs.ToString());
  }
  if (!AdmitDegraded()) {
    unavailable_->Increment();
    return Status::Unavailable(
        std::string(reason) + "; degraded budget exhausted (max_degraded_frac=" +
        std::to_string(options_.max_degraded_frac) + ")");
  }
  ScoreResponse resp;
  resp.score = fallback_->Score(features);
  resp.degraded = true;
  resp.from_prefilter = true;
  return Finish(std::move(resp), start_s, deadline);
}

Result<ScoreResponse> ScoringService::Score(int64_t request_id,
                                            int32_t txn_node) {
  return Score(request_id, txn_node, options_.deadline_s);
}

Result<ScoreResponse> ScoringService::Score(int64_t request_id,
                                            int32_t txn_node,
                                            double deadline_s) {
  return ScoreAt(request_id, txn_node, deadline_s, kv::kHeadEpoch);
}

Result<ScoreResponse> ScoringService::ScoreAt(int64_t request_id,
                                              int32_t txn_node,
                                              double deadline_s,
                                              uint64_t epoch) {
  requests_->Increment();
  const double start_s = clock_->NowSeconds();
  const Deadline deadline = deadline_s > 0.0
                                ? Deadline::After(clock_, deadline_s)
                                : Deadline();

  InflightGuard guard(this);
  if (options_.max_inflight > 0 && guard.depth() > options_.max_inflight) {
    shed_->Increment();
    if (options_.shed_policy == ShedPolicy::kDegrade &&
        fallback_ != nullptr) {
      return FallbackScore(txn_node, start_s, deadline, epoch, "load shed");
    }
    return Status::Unavailable(
        "load shed: " + std::to_string(guard.depth()) +
        " requests in flight > max_inflight=" +
        std::to_string(options_.max_inflight));
  }

  // Sampling + KV stage, under the request deadline.
  DeadlineScope scope(deadline);
  Rng rng(Rng::StreamSeed(options_.seed, static_cast<uint64_t>(request_id)));
  kv::FeatureStore::DegradedLoadStats stats;
  const double sample_start_s = clock_->NowSeconds();
  Result<sample::MiniBatch> batch = features_->LoadBatchDegraded(
      {txn_node}, options_.hops, options_.fanout, &rng, epoch, &stats);
  sample_s_->Record(clock_->NowSeconds() - sample_start_s);
  if (!batch.ok()) {
    if (batch.status().IsDeadlineExceeded()) {
      deadline_exceeded_->Increment();
      return batch.status();
    }
    if (options_.shed_policy == ShedPolicy::kDegrade &&
        fallback_ != nullptr && !deadline.Expired()) {
      return FallbackScore(txn_node, start_s, deadline, epoch,
                           "graph load failed");
    }
    unavailable_->Increment();
    return Status::Unavailable("scoring unavailable: " +
                               batch.status().ToString());
  }
  if (!deadline.unlimited()) {
    slack_after_sample_s_->Record(
        std::max(0.0, deadline.RemainingSeconds()));
  }

  // Forward stage: charge the remaining budget before starting (the pass
  // itself is not interruptible — deadline checks live at stage edges).
  if (deadline.Expired()) {
    deadline_exceeded_->Increment();
    return Status::DeadlineExceeded(
        "deadline exhausted before forward pass of request " +
        std::to_string(request_id));
  }
  const bool degraded = stats.degraded();
  if (degraded && !AdmitDegraded()) {
    unavailable_->Increment();
    return Status::Unavailable(
        "degraded batch over budget (max_degraded_frac=" +
        std::to_string(options_.max_degraded_frac) + ")");
  }
  const double forward_start_s = clock_->NowSeconds();
  nn::NoGradGuard no_tape;
  nn::Var logits = model_->Forward(batch.value(), core::ForwardOptions{});
  std::vector<double> probs = core::FraudProbabilities(logits);
  forward_s_->Record(clock_->NowSeconds() - forward_start_s);
  if (!degraded) RecordClean();

  ScoreResponse resp;
  resp.score = probs.at(0);
  resp.degraded = degraded;
  resp.imputed_rows = stats.imputed_feature_rows;
  return Finish(std::move(resp), start_s, deadline);
}

}  // namespace xfraud::serve
