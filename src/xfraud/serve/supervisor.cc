#include "xfraud/serve/supervisor.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <utility>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/frame.h"
#include "xfraud/common/logging.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/log_kv.h"
#include "xfraud/obs/registry.h"
#include "xfraud/serve/wire.h"

namespace xfraud::serve {

namespace {

// Budgets no caller tunes. Re-forks allowed per server after signal
// deaths; the health ping cadence and its timeout; and how many
// consecutive ping failures make the supervisor SIGKILL a live but
// unresponsive server (the waitpid path then respawns it like any other
// signal death).
constexpr int kMaxRestartsPerServer = 2;
constexpr double kHealthIntervalS = 0.25;
constexpr double kHealthTimeoutS = 1.0;
constexpr int kHealthFailuresToKill = 3;

std::string CellPath(const std::string& dir, int shard, int replica) {
  return dir + "/cell_" + std::to_string(shard) + "_" +
         std::to_string(replica) + ".log";
}

std::string SocketPath(const std::string& dir, int shard, int replica) {
  return dir + "/s" + std::to_string(shard) + "_r" +
         std::to_string(replica) + ".sock";
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : Clock::Real()) {}

Result<std::unique_ptr<Supervisor>> Supervisor::Start(
    const graph::HeteroGraph& g, const SupervisorOptions& options) {
  XF_CHECK(options.num_shards >= 1 && options.num_replicas >= 1);
  XF_CHECK(!options.dir.empty());
  // Private ctor keeps Start the only entry point; make_unique cannot reach
  // it, so the factory owns the one naked new.
  // xfraud-lint: allow(no-naked-new)
  std::unique_ptr<Supervisor> sup(new Supervisor(options));
  Status init = sup->Init(g);
  if (!init.ok()) {
    (void)sup->Stop();  // reap anything half-started
    return init;
  }
  return sup;
}

Status Supervisor::Init(const graph::HeteroGraph& g) {
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("cannot create serving tier dir " + options_.dir +
                           ": " + ec.message());
  }

  // Tier preparation (DESIGN.md §16.3). Every cell holds the same image:
  // the whole graph and one published epoch. So cell (0,0) alone is
  // ingested, into an empty file, and its sealed WAL is copied to the
  // others. Each Start is fresh: a WAL left at a cell path by an earlier
  // tier is replaced, never appended to.
  const std::string first = CellPath(options_.dir, 0, 0);
  std::filesystem::remove(first, ec);
  if (ec) {
    return Status::IoError("cannot remove old cell WAL " + first + ": " +
                           ec.message());
  }
  {
    Result<std::unique_ptr<kv::LogKvStore>> cell = kv::LogKvStore::Open(first);
    if (!cell.ok()) return cell.status();
    kv::FeatureStore features(cell.value().get());
    // Sanctioned bulk load: this is the tier's one-time cell preparation,
    // committed by the PublishEpoch below — after the forks, only the WAL
    // is the source of truth.
    // xfraud-analyze: allow(ingest-bypass)
    XF_RETURN_IF_ERROR(features.Ingest(g));
    Result<uint64_t> published = cell.value()->PublishEpoch();
    if (!published.ok()) return published.status();
    epoch_ = published.value();
    // The cell closes here, before any fork: children must own their WAL
    // fds exclusively, exactly as a respawn after SIGKILL would.
  }
  Result<std::string> image = ReadFileToString(first);
  if (!image.ok()) return image.status();
  for (int s = 0; s < options_.num_shards; ++s) {
    for (int r = 0; r < options_.num_replicas; ++r) {
      if (s == 0 && r == 0) continue;
      // Tmp file, fsync, rename: a crash leaves each copy whole or absent.
      XF_RETURN_IF_ERROR(
          AtomicWriteFile(CellPath(options_.dir, s, r), image.value()));
    }
  }

  injector_ = std::make_unique<fault::FaultInjector>(options_.plan);

  const int world = options_.num_shards * options_.num_replicas;
  servers_.resize(static_cast<size_t>(world));
  for (int i = 0; i < world; ++i) {
    Result<pid_t> pid = ForkServer(i, /*generation=*/1,
                                   /*suppress_kill=*/false);
    if (!pid.ok()) return pid.status();
    servers_[static_cast<size_t>(i)].pid = pid.value();
  }
  monitor_ = std::thread([this] { MonitorLoop(); });
  return Status::OK();
}

ShardServerOptions Supervisor::ServerOptions(int shard, int replica,
                                             uint64_t generation,
                                             bool suppress_kill) const {
  ShardServerOptions server;
  server.shard = shard;
  server.replica = replica;
  server.cell_path = CellPath(options_.dir, shard, replica);
  server.endpoint.kind = dist::Endpoint::Kind::kUnix;
  server.endpoint.path = SocketPath(options_.dir, shard, replica);
  server.detector = options_.detector;
  server.model_seed = options_.model_seed;
  server.service = options_.service;
  // Children run on real time regardless of the supervisor's clock.
  server.service.clock = nullptr;
  server.clock = nullptr;
  server.fault_plan = options_.plan;
  server.suppress_kill = suppress_kill;
  server.generation = generation;
  return server;
}

Result<pid_t> Supervisor::ForkServer(int index, uint64_t generation,
                                     bool suppress_kill) {
  const int shard = index / options_.num_replicas;
  const int replica = index % options_.num_replicas;
  const ShardServerOptions server =
      ServerOptions(shard, replica, generation, suppress_kill);
  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::IoError("fork failed for shard server " +
                           std::to_string(index));
  }
  if (pid != 0) {
    obs::Registry::Global().counter("serve/supervisor/forks")->Increment();
    return pid;
  }
  // Child: drop inherited supervisor-side connections, run the server to
  // drain, and leave through _exit so no parent state runs twice.
  for (Server& s : servers_) s.health_conn.Reset();
  Result<ShardServerStats> run = RunShardServer(server);
  if (!run.ok()) {
    XF_LOG(Error) << "shard server " << shard << "/" << replica
                  << " failed: " << run.status().message();
    ::_exit(3);
  }
  ::_exit(0);
}

bool Supervisor::ReapOnce() {
  int status = 0;
  pid_t pid = ::waitpid(-1, &status, WNOHANG);
  if (pid <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  int index = -1;
  for (size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i].pid == pid) index = static_cast<int>(i);
  }
  if (index < 0) return true;  // not one of ours
  Server& server = servers_[static_cast<size_t>(index)];
  server.pid = -1;
  server.health_conn.Reset();
  server.health_failures = 0;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    return true;  // orderly drain (normally during Stop)
  }
  if (WIFSIGNALED(status)) {
    obs::Registry::Global()
        .counter("serve/supervisor/signal_deaths")
        ->Increment();
    kills_observed_.push_back(index);
    if (stopping_.load()) return true;
    if (server.restarts >= kMaxRestartsPerServer) {
      XF_LOG(Error) << "shard server " << index
                    << " exhausted its restart budget";
      server.failed = true;
      return true;
    }
    ++server.restarts;
    ++restarts_total_;
    ++server.generation;
    XF_LOG(Info) << "supervisor respawning shard server " << index
                 << " after signal " << WTERMSIG(status) << " (restart "
                 << server.restarts << ", generation " << server.generation
                 << ")";
    obs::Registry::Global().counter("serve/supervisor/respawns")->Increment();
    // The respawn suppresses the planned kill: a chaos kill fires exactly
    // once, and the new process recovers from the WAL at the pinned epoch.
    Result<pid_t> again = ForkServer(index, server.generation,
                                     /*suppress_kill=*/true);
    if (!again.ok()) {
      XF_LOG(Error) << "supervisor could not respawn server " << index
                    << ": " << again.status().message();
      server.failed = true;
      return true;
    }
    server.pid = again.value();
    return true;
  }
  // A clean-but-failing exit is a server-reported error (bad WAL, bind
  // failure): restarting would loop on the same failure.
  XF_LOG(Error) << "shard server " << index << " exited with code "
                << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  server.failed = true;
  return true;
}

void Supervisor::PingServers() {
  for (size_t i = 0; i < servers_.size(); ++i) {
    pid_t pid;
    uint64_t nonce;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Server& s = servers_[i];
      if (s.pid <= 0 || s.failed) continue;
      pid = s.pid;
      nonce = ++s.next_nonce;
    }
    const int shard = static_cast<int>(i) / options_.num_replicas;
    const int replica = static_cast<int>(i) % options_.num_replicas;
    const Deadline deadline = Deadline::After(clock_, kHealthTimeoutS);
    // One ping: reuse (or dial) the health connection, send kHealth, expect
    // the nonce echoed back. Any miss counts; K consecutive misses on a
    // still-live pid earn a real SIGKILL — the waitpid sweep then treats it
    // like any other machine loss and respawns.
    bool ok = [&] {
      std::lock_guard<std::mutex> lock(mu_);
      Server& s = servers_[i];
      if (s.pid != pid) return true;  // reaped meanwhile; skip this round
      if (!s.health_conn.valid()) {
        dist::Endpoint ep;
        ep.kind = dist::Endpoint::Kind::kUnix;
        ep.path = SocketPath(options_.dir, shard, replica);
        Result<UniqueFd> conn = dist::DialEndpoint(ep, deadline, clock_);
        if (!conn.ok()) return false;
        s.health_conn = std::move(conn).value();
      }
      FrameHeader ping;
      ping.type = FrameType::kHealth;
      ping.seq = nonce;
      if (!dist::SendFrame(s.health_conn.get(), ping, nullptr, 0, deadline,
                           clock_)
               .ok()) {
        s.health_conn.Reset();
        return false;
      }
      Result<FrameHeader> pong =
          dist::RecvFrameHeader(s.health_conn.get(), deadline, clock_);
      std::vector<unsigned char> body;
      if (!pong.ok() ||
          !dist::RecvFramePayload(s.health_conn.get(), pong.value(), &body,
                                  deadline, clock_)
               .ok() ||
          pong.value().type != FrameType::kHealth ||
          pong.value().seq != nonce) {
        s.health_conn.Reset();
        return false;
      }
      return true;
    }();
    std::lock_guard<std::mutex> lock(mu_);
    Server& s = servers_[i];
    if (s.pid != pid) continue;
    if (ok) {
      s.health_failures = 0;
      continue;
    }
    ++s.health_failures;
    if (s.health_failures >= kHealthFailuresToKill) {
      XF_LOG(Info) << "supervisor SIGKILLing unresponsive shard server "
                   << i << " after " << s.health_failures
                   << " failed health pings";
      obs::Registry::Global()
          .counter("serve/supervisor/health_kills")
          ->Increment();
      ::kill(pid, SIGKILL);
      s.health_failures = 0;
    }
  }
}

void Supervisor::MonitorLoop() {
  double last_ping_s = clock_->NowSeconds();
  while (!stopping_.load()) {
    while (ReapOnce()) {
    }
    const double now_s = clock_->NowSeconds();
    if (now_s - last_ping_s >= kHealthIntervalS) {
      last_ping_s = now_s;
      PingServers();
    }
    clock_->SleepFor(0.005);
  }
}

Status Supervisor::Stop() {
  if (stopped_) return Status::OK();
  stopped_ = true;
  stopping_.store(true);
  if (monitor_.joinable()) monitor_.join();

  Status worst = Status::OK();
  for (size_t i = 0; i < servers_.size(); ++i) {
    Server& s = servers_[i];
    if (s.pid <= 0) continue;
    const int shard = static_cast<int>(i) / options_.num_replicas;
    const int replica = static_cast<int>(i) % options_.num_replicas;
    const Deadline deadline = Deadline::After(clock_, 5.0);
    // Orderly exit: drain, await the ack and the clean exit.
    dist::Endpoint ep;
    ep.kind = dist::Endpoint::Kind::kUnix;
    ep.path = SocketPath(options_.dir, shard, replica);
    bool drained = false;
    Result<UniqueFd> conn = dist::DialEndpoint(ep, deadline, clock_);
    if (conn.ok()) {
      FrameHeader drain;
      drain.type = FrameType::kDrain;
      if (dist::SendFrame(conn.value().get(), drain, nullptr, 0, deadline,
                          clock_)
              .ok()) {
        Result<FrameHeader> ack =
            dist::RecvFrameHeader(conn.value().get(), deadline, clock_);
        drained = ack.ok() && ack.value().type == FrameType::kDrain;
      }
    }
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(s.pid, &status, WNOHANG)) == 0 &&
           !deadline.Expired()) {
      clock_->SleepFor(0.005);
    }
    if (reaped != s.pid) {
      // Straggler (or the drain never landed): a real SIGKILL ends it.
      ::kill(s.pid, SIGKILL);
      (void)::waitpid(s.pid, &status, 0);
    } else if (!drained && worst.ok()) {
      worst = Status::Internal("shard server " + std::to_string(i) +
                               " exited without acking drain");
    }
    s.pid = -1;
    s.health_conn.Reset();
  }
  return worst;
}

Supervisor::~Supervisor() { (void)Stop(); }

RouterOptions Supervisor::MakeRouterOptions() const {
  RouterOptions router;
  router.num_shards = options_.num_shards;
  router.num_replicas = options_.num_replicas;
  for (int s = 0; s < options_.num_shards; ++s) {
    for (int r = 0; r < options_.num_replicas; ++r) {
      router.endpoints.push_back(endpoint(s, r));
    }
  }
  router.epoch = epoch_;
  router.deadline_s = options_.service.deadline_s;
  router.injector = injector_.get();
  router.clock = options_.clock;
  return router;
}

dist::Endpoint Supervisor::endpoint(int shard, int replica) const {
  dist::Endpoint ep;
  ep.kind = dist::Endpoint::Kind::kUnix;
  ep.path = SocketPath(options_.dir, shard, replica);
  return ep;
}

int Supervisor::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_total_;
}

std::vector<int> Supervisor::kills_observed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kills_observed_;
}

}  // namespace xfraud::serve
