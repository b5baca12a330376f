#include "xfraud/kv/replicated_kv.h"

#include <functional>

#include "xfraud/common/logging.h"
#include "xfraud/common/rng.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/obs/registry.h"

namespace xfraud::kv {

namespace {

// Salt folded into the key hash for primary selection, distinct from the
// sharding hash so the primary replica is uncorrelated with the shard.
constexpr uint64_t kPrimarySalt = 0x5245504CULL;  // "REPL"

}  // namespace

ReplicatedKvStore::ReplicatedKvStore(std::vector<KvStore*> replicas,
                                     Clock* clock)
    : replicas_(std::move(replicas)) {
  Init(clock);
}

ReplicatedKvStore::ReplicatedKvStore(
    std::vector<std::unique_ptr<KvStore>> replicas, Clock* clock)
    : owned_(std::move(replicas)) {
  replicas_.reserve(owned_.size());
  for (const auto& r : owned_) replicas_.push_back(r.get());
  Init(clock);
}

void ReplicatedKvStore::Init(Clock* clock) {
  XF_CHECK(!replicas_.empty());
  for (KvStore* r : replicas_) XF_CHECK(r != nullptr);
  clock_ = clock != nullptr ? clock : Clock::Real();
  breakers_.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(clock_));
  }
  auto& r = obs::Registry::Global();
  reads_ = r.counter("kv/replicated/reads");
  failovers_ = r.counter("kv/replicated/failovers");
  breaker_opens_ = r.counter("kv/replicated/breaker_opens");
  breaker_closes_ = r.counter("kv/replicated/breaker_closes");
  exhausted_ = r.counter("kv/replicated/exhausted");
  get_s_ = r.histogram("kv/replicated/get_s");
}

std::unique_ptr<ReplicatedKvStore> ReplicatedKvStore::InMemory(
    int num_replicas) {
  XF_CHECK_GT(num_replicas, 0);
  std::vector<std::unique_ptr<KvStore>> replicas;
  replicas.reserve(num_replicas);
  for (int i = 0; i < num_replicas; ++i) {
    replicas.push_back(std::make_unique<MemKvStore>());
  }
  return std::make_unique<ReplicatedKvStore>(std::move(replicas),
                                             /*clock=*/nullptr);
}

size_t ReplicatedKvStore::PrimaryOf(std::string_view key) const {
  uint64_t h = std::hash<std::string_view>{}(key);
  return Rng::StreamSeed(kPrimarySalt, h) % replicas_.size();
}

ReplicatedKvStore::BreakerState ReplicatedKvStore::breaker_state(
    size_t replica) const {
  XF_CHECK_BOUNDS(replica, breakers_.size());
  return breakers_[replica]->state();
}

void ReplicatedKvStore::Record(size_t r, bool healthy) const {
  const CircuitBreaker::Transition t = breakers_[r]->Record(healthy);
  if (t == CircuitBreaker::Transition::kOpened) breaker_opens_->Increment();
  if (t == CircuitBreaker::Transition::kClosed) breaker_closes_->Increment();
}

Status ReplicatedKvStore::Get(std::string_view key,
                              std::string* value) const {
  return GetImpl(key, kHeadEpoch, value);
}

Status ReplicatedKvStore::GetAt(std::string_view key, uint64_t epoch,
                                std::string* value) const {
  return GetImpl(key, epoch, value);
}

std::vector<std::string> ReplicatedKvStore::KeysWithPrefixAt(
    std::string_view prefix, uint64_t epoch) const {
  return replicas_[0]->KeysWithPrefixAt(prefix, epoch);
}

Status ReplicatedKvStore::GetImpl(std::string_view key, uint64_t epoch,
                                  std::string* value) const {
  reads_->Increment();
  const Deadline* deadline = DeadlineScope::Current();
  const size_t n = replicas_.size();
  const size_t primary = PrimaryOf(key);
  Status last = Status::OK();
  bool any_attempt = false;
  for (size_t i = 0; i < n; ++i) {
    const size_t r = (primary + i) % n;
    if (deadline != nullptr && deadline->Expired()) {
      return Status::DeadlineExceeded(
          "deadline expired before replica read of key '" +
          std::string(key) + "'");
    }
    if (!breakers_[r]->Admit()) continue;
    if (any_attempt) failovers_->Increment();
    any_attempt = true;
    std::string tmp;
    const double start_s = clock_->NowSeconds();
    Status s = epoch == kHeadEpoch ? replicas_[r]->Get(key, &tmp)
                                   : replicas_[r]->GetAt(key, epoch, &tmp);
    const double latency_s = clock_->NowSeconds() - start_s;
    // NotFound and FailedPrecondition are authoritative answers (replicas
    // hold identical histories): healthy for the breaker, no failover.
    const bool healthy =
        s.ok() || s.IsNotFound() || s.IsFailedPrecondition();
    Record(r, healthy);
    if (!healthy) {
      last = std::move(s);
      continue;
    }
    if (obs::IsEnabled()) get_s_->Record(latency_s);
    if (s.ok()) *value = std::move(tmp);
    return s;
  }
  exhausted_->Increment();
  if (!any_attempt) {
    return Status::Unavailable("no replica admitted read of key '" +
                               std::string(key) +
                               "' (all circuit breakers open)");
  }
  return last;
}

Status ReplicatedKvStore::Put(std::string_view key, std::string_view value) {
  Status first_error = Status::OK();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    Status s = replicas_[r]->Put(key, value);
    Record(r, s.ok());
    if (!s.ok() && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

Status ReplicatedKvStore::Delete(std::string_view key) {
  Status first_error = Status::OK();
  for (size_t r = 0; r < replicas_.size(); ++r) {
    Status s = replicas_[r]->Delete(key);
    const bool healthy = s.ok() || s.IsNotFound();
    Record(r, healthy);
    if (!healthy && first_error.ok()) first_error = std::move(s);
  }
  return first_error;
}

int64_t ReplicatedKvStore::Count() const { return replicas_[0]->Count(); }

std::vector<std::string> ReplicatedKvStore::KeysWithPrefix(
    std::string_view prefix) const {
  return replicas_[0]->KeysWithPrefix(prefix);
}

}  // namespace xfraud::kv
