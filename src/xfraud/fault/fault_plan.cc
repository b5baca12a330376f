#include "xfraud/fault/fault_plan.h"

#include <sstream>
#include <vector>

#include "xfraud/common/parse_number.h"

namespace xfraud::fault {

namespace {

std::vector<std::string_view> SplitOn(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    parts.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses all of `text` as a number into *out, naming `key` in the error.
template <typename T>
Status ParseInto(std::string_view key, std::string_view text, T* out) {
  Result<T> parsed = ParseNumber<T>(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument("fault plan: bad value for " +
                                   std::string(key) + ": " +
                                   parsed.status().message());
  }
  *out = parsed.value();
  return Status::OK();
}

Status ParseRate(std::string_view key, std::string_view text, double* out) {
  XF_RETURN_IF_ERROR(ParseInto(key, text, out));
  if (*out < 0.0 || *out > 1.0) {
    return Status::InvalidArgument("fault plan: " + std::string(key) +
                                   " must be in [0, 1]");
  }
  return Status::OK();
}

// kill_worker=<w>@<e>:<s>
Status ParseKill(std::string_view text, FaultPlan* plan) {
  size_t at = text.find('@');
  size_t colon = text.find(':', at == std::string_view::npos ? 0 : at);
  if (at == std::string_view::npos || colon == std::string_view::npos) {
    return Status::InvalidArgument(
        "fault plan: kill_worker wants <worker>@<epoch>:<step>, got '" +
        std::string(text) + "'");
  }
  int64_t worker = 0, epoch = 0, step = 0;
  XF_RETURN_IF_ERROR(ParseInto("kill_worker", text.substr(0, at), &worker));
  XF_RETURN_IF_ERROR(
      ParseInto("kill_worker", text.substr(at + 1, colon - at - 1), &epoch));
  XF_RETURN_IF_ERROR(
      ParseInto("kill_worker", text.substr(colon + 1), &step));
  if (worker < 0 || epoch < 0 || step < 0) {
    return Status::InvalidArgument(
        "fault plan: kill_worker fields must be non-negative");
  }
  plan->kill_worker = static_cast<int>(worker);
  plan->kill_epoch = static_cast<int>(epoch);
  plan->kill_step = step;
  return Status::OK();
}

// slow_replica=<r>@<seconds>
Status ParseSlowReplica(std::string_view text, FaultPlan* plan) {
  size_t at = text.find('@');
  if (at == std::string_view::npos) {
    return Status::InvalidArgument(
        "fault plan: slow_replica wants <replica>@<seconds>, got '" +
        std::string(text) + "'");
  }
  int64_t replica = 0;
  XF_RETURN_IF_ERROR(
      ParseInto("slow_replica", text.substr(0, at), &replica));
  XF_RETURN_IF_ERROR(ParseInto("slow_replica", text.substr(at + 1),
                              &plan->slow_replica_latency_s));
  if (replica < 0 || plan->slow_replica_latency_s < 0.0) {
    return Status::InvalidArgument(
        "fault plan: slow_replica fields must be non-negative");
  }
  plan->slow_replica = static_cast<int>(replica);
  return Status::OK();
}

// kill_server=<replica>[@<request>]
Status ParseKillServer(std::string_view text, FaultPlan* plan) {
  size_t at = text.find('@');
  int64_t replica = 0;
  int64_t request = 0;
  XF_RETURN_IF_ERROR(
      ParseInto("kill_server", text.substr(0, at), &replica));
  if (at != std::string_view::npos) {
    XF_RETURN_IF_ERROR(
        ParseInto("kill_server", text.substr(at + 1), &request));
  }
  if (replica < 0 || request < 0) {
    return Status::InvalidArgument(
        "fault plan: kill_server fields must be non-negative");
  }
  plan->kill_server = static_cast<int>(replica);
  plan->kill_server_request = request;
  return Status::OK();
}

Status ParseIndex(std::string_view key, std::string_view text, int* out) {
  int64_t v = 0;
  XF_RETURN_IF_ERROR(ParseInto(key, text, &v));
  if (v < 0) {
    return Status::InvalidArgument("fault plan: " + std::string(key) +
                                   " must be non-negative");
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

}  // namespace

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  spec = Trim(spec);
  if (spec.empty()) return plan;
  for (std::string_view part : SplitOn(spec, ',')) {
    part = Trim(part);
    if (part.empty()) continue;
    size_t eq = part.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("fault plan: expected key=value, got '" +
                                     std::string(part) + "'");
    }
    std::string_view key = Trim(part.substr(0, eq));
    std::string_view value = Trim(part.substr(eq + 1));
    if (key == "seed") {
      int64_t seed = 0;
      XF_RETURN_IF_ERROR(ParseInto(key, value, &seed));
      plan.seed = static_cast<uint64_t>(seed);
    } else if (key == "kv_error_rate") {
      XF_RETURN_IF_ERROR(ParseRate(key, value, &plan.kv_error_rate));
    } else if (key == "kv_corrupt_rate") {
      XF_RETURN_IF_ERROR(ParseRate(key, value, &plan.kv_corrupt_rate));
    } else if (key == "kv_latency_rate") {
      XF_RETURN_IF_ERROR(ParseRate(key, value, &plan.kv_latency_rate));
    } else if (key == "kv_latency_s") {
      XF_RETURN_IF_ERROR(ParseInto(key, value, &plan.kv_latency_s));
      if (plan.kv_latency_s < 0.0) {
        return Status::InvalidArgument("fault plan: kv_latency_s < 0");
      }
    } else if (key == "kill_worker") {
      XF_RETURN_IF_ERROR(ParseKill(value, &plan));
    } else if (key == "crash_batch") {
      XF_RETURN_IF_ERROR(ParseInto(key, value, &plan.crash_batch));
    } else if (key == "kill_replica") {
      XF_RETURN_IF_ERROR(ParseIndex(key, value, &plan.kill_replica));
    } else if (key == "kill_shard") {
      XF_RETURN_IF_ERROR(ParseIndex(key, value, &plan.kill_shard));
    } else if (key == "slow_replica") {
      XF_RETURN_IF_ERROR(ParseSlowReplica(value, &plan));
    } else if (key == "torn_write") {
      XF_RETURN_IF_ERROR(ParseRate(key, value, &plan.torn_write_rate));
    } else if (key == "stall_compaction") {
      XF_RETURN_IF_ERROR(ParseInto(key, value, &plan.stall_compaction_s));
      if (plan.stall_compaction_s < 0.0) {
        return Status::InvalidArgument("fault plan: stall_compaction < 0");
      }
    } else if (key == "kill_server") {
      XF_RETURN_IF_ERROR(ParseKillServer(value, &plan));
    } else if (key == "corrupt_frame") {
      XF_RETURN_IF_ERROR(ParseInto(key, value, &plan.corrupt_frame));
      if (plan.corrupt_frame < 0) {
        return Status::InvalidArgument("fault plan: corrupt_frame < 0");
      }
    } else {
      return Status::InvalidArgument("fault plan: unknown key '" +
                                     std::string(key) + "'");
    }
  }
  return plan;
}

Result<FaultPlan> FaultPlan::FromEnv() {
  const char* spec = std::getenv("XFRAUD_FAULT_PLAN");
  if (spec == nullptr) return FaultPlan{};
  return Parse(spec);
}

std::string FaultPlan::ToString() const {
  std::ostringstream out;
  out << "seed=" << seed;
  if (kv_error_rate > 0.0) out << ",kv_error_rate=" << kv_error_rate;
  if (kv_corrupt_rate > 0.0) out << ",kv_corrupt_rate=" << kv_corrupt_rate;
  if (kv_latency_rate > 0.0) {
    out << ",kv_latency_rate=" << kv_latency_rate
        << ",kv_latency_s=" << kv_latency_s;
  }
  if (kill_worker >= 0) {
    out << ",kill_worker=" << kill_worker << "@" << kill_epoch << ":"
        << kill_step;
  }
  if (crash_batch >= 0) out << ",crash_batch=" << crash_batch;
  if (kill_replica >= 0) out << ",kill_replica=" << kill_replica;
  if (kill_shard >= 0) out << ",kill_shard=" << kill_shard;
  if (slow_replica >= 0) {
    out << ",slow_replica=" << slow_replica << "@"
        << slow_replica_latency_s;
  }
  if (torn_write_rate > 0.0) out << ",torn_write=" << torn_write_rate;
  if (stall_compaction_s > 0.0) {
    out << ",stall_compaction=" << stall_compaction_s;
  }
  if (kill_server >= 0) {
    out << ",kill_server=" << kill_server << "@" << kill_server_request;
  }
  if (corrupt_frame >= 0) out << ",corrupt_frame=" << corrupt_frame;
  return out.str();
}

}  // namespace xfraud::fault
