#include "xfraud/dist/distributed.h"

#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "xfraud/common/logging.h"
#include "xfraud/dist/communicator.h"
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

  // Generation g of the cluster is groups[g]. A rank regrouping after a
  // failure creates the next group, or joins the one a faster peer made.
  // Once a rank gives up, every group fails (`dead`), so no peer waits on
  // it forever.
  std::mutex mu;
  std::vector<std::unique_ptr<InProcessGroup>> groups;
  Status dead = Status::OK();
  auto group = [&](uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu);
    while (groups.size() <= generation) {
      groups.push_back(std::make_unique<InProcessGroup>(kappa));
      if (!dead.ok()) groups.back()->Poison(dead);
    }
    return groups[generation].get();
  };

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
      uint64_t current = 0;
      RankTransport transport;
      transport.join = [&](uint64_t* generation) -> Result<Communicator*> {
        current = *generation;
        return group(current)->communicator(w);
      };
      transport.kill = [&] {
        group(current)->Poison(
            Status::Unavailable("rank " + std::to_string(w) + " was killed"));
      };
      Result<DistributedResult> result = Status::Internal("rank threw");
      try {
        result = TrainRank(ds, rank_options, replicas_[static_cast<size_t>(w)],
                           sampler_, transport);
      } catch (...) {
        // Rethrown on the caller's thread once every rank has stopped.
        thrown[static_cast<size_t>(w)] = std::current_exception();
      }
      if (!result.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        dead = result.status();
        for (auto& g : groups) g->Poison(dead);
      }
      results[static_cast<size_t>(w)] = std::move(result);
    });
  }
  for (std::thread& t : threads) t.join();
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
