#include "xfraud/dist/launcher.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include "xfraud/common/logging.h"
#include "xfraud/obs/registry.h"

namespace xfraud::dist {

namespace {

/// One forked rank. pid < 0 means "exited cleanly".
struct Child {
  pid_t pid = -1;
  int restarts = 0;
};

pid_t ForkWorker(const data::SimDataset& ds, DistWorkerOptions worker,
                 int rank, bool suppress_kill) {
  worker.rank = rank;
  worker.suppress_kill = suppress_kill;
  pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid == -1)
  // Child: run the rank to completion and leave through _exit so no parent
  // state (atexit hooks, stream buffers) runs twice.
  Result<DistributedResult> run = RunDistWorker(ds, worker);
  if (!run.ok()) {
    XF_LOG(Error) << "dist worker " << rank
                  << " failed: " << run.status().message();
    ::_exit(3);
  }
  ::_exit(0);
}

void KillSurvivors(std::vector<Child>* children) {
  for (Child& c : *children) {
    if (c.pid > 0) {
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
  }
}

}  // namespace

Result<ProcessClusterReport> RunProcessCluster(
    const data::SimDataset& ds, const ProcessClusterOptions& options) {
  const int world = options.worker.world;
  XF_CHECK(world >= 1);
  Clock* clock = options.clock != nullptr ? options.clock : Clock::Real();

  DistWorkerOptions worker = options.worker;
  XF_CHECK(!worker.checkpoint_dir.empty());
  std::error_code ec;
  std::filesystem::create_directories(worker.checkpoint_dir, ec);
  if (ec) {
    return Status::IoError("cannot create checkpoint dir " +
                           worker.checkpoint_dir + ": " + ec.message());
  }
  if (worker.rendezvous.empty()) {
    // AF_UNIX paths are capped around ~100 chars; checkpoint dirs under
    // /tmp stay well inside that.
    worker.rendezvous = "unix:" + worker.checkpoint_dir + "/rdzv.sock";
  }

  obs::Counter* forks =
      obs::Registry::Global().counter("dist/launcher/forks");
  obs::Counter* signal_deaths =
      obs::Registry::Global().counter("dist/launcher/signal_deaths");

  ProcessClusterReport report;
  std::vector<Child> children(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    pid_t pid = ForkWorker(ds, worker, r, worker.suppress_kill);
    if (pid < 0) {
      KillSurvivors(&children);
      return Status::IoError("fork failed for dist worker rank " +
                             std::to_string(r));
    }
    forks->Increment();
    children[static_cast<size_t>(r)].pid = pid;
  }

  const Deadline deadline = Deadline::After(clock, options.overall_timeout_s);
  int running = world;
  while (running > 0) {
    if (deadline.Expired()) {
      KillSurvivors(&children);
      return Status::DeadlineExceeded(
          "process cluster exceeded its overall timeout");
    }
    int status = 0;
    pid_t pid = ::waitpid(-1, &status, WNOHANG);
    if (pid == 0 || (pid < 0 && errno == EINTR)) {
      clock->SleepFor(0.01);
      continue;
    }
    if (pid < 0) {
      KillSurvivors(&children);
      return Status::IoError("waitpid failed while supervising dist workers");
    }
    int rank = -1;
    for (int r = 0; r < world; ++r) {
      if (children[static_cast<size_t>(r)].pid == pid) rank = r;
    }
    if (rank < 0) continue;  // not one of ours (shouldn't happen)
    Child& child = children[static_cast<size_t>(rank)];
    child.pid = -1;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      --running;
      continue;
    }
    if (WIFSIGNALED(status)) {
      // A real process death (the fault plan's SIGKILL lands here). Restart
      // the rank with the kill suppressed; it resumes from its checkpoint
      // and rejoins the ring under the next generation.
      signal_deaths->Increment();
      report.kills_observed.push_back(rank);
      if (child.restarts >= options.max_restarts_per_rank) {
        KillSurvivors(&children);
        return Status::Internal(
            "dist worker rank " + std::to_string(rank) +
            " exhausted its restart budget");
      }
      ++child.restarts;
      ++report.restarts;
      XF_LOG(Info) << "dist launcher restarting rank " << rank
                   << " after signal " << WTERMSIG(status) << " (restart "
                   << child.restarts << ")";
      pid_t again = ForkWorker(ds, worker, rank, /*suppress_kill=*/true);
      if (again < 0) {
        KillSurvivors(&children);
        return Status::IoError("fork failed restarting dist worker rank " +
                               std::to_string(rank));
      }
      forks->Increment();
      child.pid = again;
      continue;
    }
    // A clean-but-failing exit is a worker-reported error, not a machine
    // loss: restarting would loop on the same failure.
    KillSurvivors(&children);
    return Status::Internal("dist worker rank " + std::to_string(rank) +
                            " exited with code " +
                            std::to_string(WEXITSTATUS(status)));
  }

  Result<DistributedResult> result =
      LoadDistResult(worker.checkpoint_dir + "/result.bin");
  if (!result.ok()) return result.status();
  report.result = std::move(result).value();
  return report;
}

}  // namespace xfraud::dist
