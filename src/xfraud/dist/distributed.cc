#include "xfraud/dist/distributed.h"

#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/logging.h"
#include "xfraud/dist/worker.h"

namespace xfraud::dist {

DistributedTrainer::DistributedTrainer(std::vector<core::GnnModel*> replicas,
                                       const sample::Sampler* sampler,
                                       DistributedOptions options)
    : replicas_(std::move(replicas)),
      sampler_(sampler),
      options_(std::move(options)) {
  XF_CHECK_EQ(replicas_.size(), static_cast<size_t>(options_.num_workers));
}

DistributedResult DistributedTrainer::Train(const data::SimDataset& ds) {
  const int kappa = options_.num_workers;

  // The ranks' ring meets at a rendezvous in a fresh temp dir; one host
  // serves it for every generation.
  Result<std::string> dir = MakeTempDir("xfraud-ring-");
  XF_CHECK(dir.ok()) << dir.status().ToString();
  RankTransport transport;
  transport.rendezvous.path = dir.value() + "/rdzv.sock";
  transport.kill = [](SocketCommunicator* ring) { ring->Shutdown(); };
  std::unique_ptr<RendezvousHost> host;
  if (kappa > 1) {
    Result<std::unique_ptr<RendezvousHost>> created =
        RendezvousHost::Create(transport.rendezvous, kappa);
    XF_CHECK(created.ok()) << created.status().ToString();
    host = std::move(created).value();
  }

  std::vector<Result<DistributedResult>> results(
      static_cast<size_t>(kappa), Status::Internal("rank did not run"));
  std::vector<std::exception_ptr> thrown(static_cast<size_t>(kappa));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(kappa));
  for (int w = 0; w < kappa; ++w) {
    threads.emplace_back([&, w] {
      RankOptions rank_options;
      rank_options.rank = w;
      rank_options.world = kappa;
      rank_options.dist = options_;
      RankTransport mine = transport;
      if (w == 0) mine.host = host.get();
      Result<DistributedResult> result = Status::Internal("rank threw");
      try {
        result = TrainRank(ds, rank_options, replicas_[static_cast<size_t>(w)],
                           sampler_, mine);
      } catch (...) {
        // Rethrown on the caller's thread once every rank has stopped.
        thrown[static_cast<size_t>(w)] = std::current_exception();
      }
      // This rank is gone for good: the survivors' next rejoin must fail
      // instead of waiting out the rendezvous budget for it.
      if (!result.ok() && host != nullptr) host->Close();
      results[static_cast<size_t>(w)] = std::move(result);
    });
  }
  for (std::thread& t : threads) t.join();
  std::error_code ec;  // best effort: a leftover temp dir is harmless
  std::filesystem::remove_all(dir.value(), ec);
  for (const std::exception_ptr& e : thrown) {
    if (e) std::rethrow_exception(e);
  }
  for (int w = 0; w < kappa; ++w) {
    const Status& s = results[static_cast<size_t>(w)].status();
    XF_CHECK(s.ok()) << "dist rank " << w << ": " << s.ToString();
  }
  return std::move(results[0]).value();
}

}  // namespace xfraud::dist
