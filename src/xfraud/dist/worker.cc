#include "xfraud/dist/worker.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/common/logging.h"
#include "xfraud/common/timer.h"
#include "xfraud/dist/partition.h"
#include "xfraud/dist/socket_transport.h"
#include "xfraud/fault/fault_injector.h"
#include "xfraud/fault/faulty_kv.h"
#include "xfraud/graph/subgraph.h"
#include "xfraud/kv/feature_store.h"
#include "xfraud/kv/mem_kv.h"
#include "xfraud/nn/ops.h"
#include "xfraud/nn/optim.h"
#include "xfraud/nn/serialize.h"
#include "xfraud/obs/registry.h"
#include "xfraud/obs/trace.h"
#include "xfraud/sample/batch_loader.h"
#include "xfraud/train/trainer.h"

namespace xfraud::dist {

namespace {

// Comm-failure recovery rounds (rollback + regroup) before a rank gives up.
constexpr int kMaxRecoveryRounds = 3;

// ---- Worker checkpoint ("XFDC") -------------------------------------------
//
// A rank's epoch-start image on disk: written at every epoch boundary by a
// socket-backed rank, it is the resume image of a SIGKILLed rank (the
// launcher's restarted process loads it at startup). Same CRC-footer file
// format discipline as the trainer checkpoint (train/checkpoint.cc).

constexpr char kCkptMagic[4] = {'X', 'F', 'D', 'C'};
constexpr uint32_t kCkptVersion = 1;

constexpr char kResultMagic[4] = {'X', 'F', 'D', 'R'};
constexpr uint32_t kResultVersion = 2;

/// A rank's state at an epoch boundary: enough to re-run the epoch exactly
/// (in-memory rollback) or to continue the run in a new process (resume).
struct EpochImage {
  int32_t next_epoch = 0;
  double best_val_auc = 0.0;
  int32_t stale = 0;
  xfraud::Rng::State rng;
  uint64_t cursor = 0;
  std::vector<int32_t> order;  // shuffled local train seeds
  std::vector<nn::Tensor> params;
  std::vector<nn::Tensor> opt_m;
  std::vector<nn::Tensor> opt_v;
  int64_t opt_step = 0;
};

Status SaveEpochImage(const std::string& path, uint64_t seed,
                      const EpochImage& img,
                      const std::vector<nn::NamedParameter>& params) {
  ByteWriter out;
  out.Magic(kCkptMagic).U32(kCkptVersion).U64(seed).I32(img.next_epoch);
  out.F64(img.best_val_auc).I32(img.stale);
  for (uint64_t s : img.rng.s) out.U64(s);
  out.U8(img.rng.has_cached_gaussian ? 1 : 0).F64(img.rng.cached_gaussian);
  out.U64(img.cursor).I64(static_cast<int64_t>(img.order.size()));
  out.Array(img.order).I64(static_cast<int64_t>(params.size()));
  for (size_t i = 0; i < params.size(); ++i) {
    out.Str(params[i].name);
    nn::EncodeTensor(img.params[i], &out);
    nn::EncodeTensor(img.opt_m[i], &out);
    nn::EncodeTensor(img.opt_v[i], &out);
  }
  out.I64(img.opt_step);
  return AtomicWriteFileWithCrc(path, out.Release());
}

/// Loads an image written by SaveEpochImage; `params` names and shapes the
/// tensors it must hold.
Status LoadEpochImage(const std::string& path, uint64_t seed,
                      const std::vector<nn::NamedParameter>& params,
                      EpochImage* img) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) return raw.status();
  ByteReader in(raw.value());
  if (!in.Magic(kCkptMagic)) {
    return Status::Corruption("bad worker checkpoint magic: " + path);
  }
  if (in.U32() != kCkptVersion) {
    return Status::Corruption("unsupported worker checkpoint version in " +
                              path);
  }
  const uint64_t saved_seed = in.U64();
  if (!in.ok()) {
    return Status::Corruption("truncated worker checkpoint: " + path);
  }
  if (saved_seed != seed) {
    return Status::InvalidArgument(
        "worker checkpoint " + path + " was written by a run with seed " +
        std::to_string(saved_seed) + ", not " + std::to_string(seed));
  }
  img->next_epoch = in.I32();
  img->best_val_auc = in.F64();
  img->stale = in.I32();
  for (uint64_t& s : img->rng.s) s = in.U64();
  img->rng.has_cached_gaussian = in.U8() != 0;
  img->rng.cached_gaussian = in.F64();
  img->cursor = in.U64();
  if (!in.Array(in.ReadCount(sizeof(int32_t)), &img->order) ||
      img->next_epoch < 0) {
    return Status::Corruption("truncated worker checkpoint: " + path);
  }
  if (in.U64() != params.size()) {
    return Status::Corruption(
        "worker checkpoint parameter count mismatch in " + path);
  }
  img->params.assign(params.size(), nn::Tensor());
  img->opt_m.assign(params.size(), nn::Tensor());
  img->opt_v.assign(params.size(), nn::Tensor());
  for (size_t i = 0; i < params.size(); ++i) {
    const std::string name = in.Str();
    if (!nn::DecodeTensor(&in, &img->params[i]) ||
        !nn::DecodeTensor(&in, &img->opt_m[i]) ||
        !nn::DecodeTensor(&in, &img->opt_v[i])) {
      return Status::Corruption("truncated worker checkpoint: " + path);
    }
    if (name != params[i].name ||
        !img->params[i].SameShape(params[i].var.value())) {
      return Status::InvalidArgument(
          "worker checkpoint parameter " + name +
          " does not match the constructed model in " + path);
    }
  }
  img->opt_step = in.I64();
  if (!in.ok()) {
    return Status::Corruption("truncated worker checkpoint: " + path);
  }
  return Status::OK();
}

/// Per-epoch record bytes in result.bin (epoch i32, five f64 times and
/// losses, restarted u8, recovery f64).
constexpr size_t kEpochRecordBytes = 4 + 6 * 8 + 1 + 8;

}  // namespace

Status SaveDistResult(const DistributedResult& result,
                      const std::string& path) {
  ByteWriter out;
  out.Magic(kResultMagic).U32(kResultVersion).F64(result.best_val_auc);
  out.F64(result.mean_wall_epoch_seconds).F64(result.edge_cut_fraction);
  out.I64(static_cast<int64_t>(result.partition_nodes.size()))
      .Array(result.partition_nodes);
  out.I64(static_cast<int64_t>(result.history.size()));
  for (const DistributedEpoch& e : result.history) {
    out.I32(e.epoch).F64(e.train_loss).F64(e.val_auc).F64(e.wall_seconds);
    out.F64(e.max_worker_sample_seconds).F64(e.max_worker_compute_seconds);
    out.F64(e.measured_comm_seconds).U8(e.restarted ? 1 : 0);
    out.F64(e.recovery_seconds);
  }
  return AtomicWriteFileWithCrc(path, out.Release());
}

Result<DistributedResult> LoadDistResult(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) return raw.status();
  ByteReader in(raw.value());
  if (!in.Magic(kResultMagic)) {
    return Status::Corruption("bad dist result magic: " + path);
  }
  if (in.U32() != kResultVersion) {
    return Status::Corruption("unsupported dist result version in " + path);
  }
  DistributedResult result;
  result.best_val_auc = in.F64();
  result.mean_wall_epoch_seconds = in.F64();
  result.edge_cut_fraction = in.F64();
  in.Array(in.ReadCount(sizeof(int64_t)), &result.partition_nodes);
  result.history.resize(in.ReadCount(kEpochRecordBytes));
  for (DistributedEpoch& e : result.history) {
    e.epoch = in.I32();
    e.train_loss = in.F64();
    e.val_auc = in.F64();
    e.wall_seconds = in.F64();
    e.max_worker_sample_seconds = in.F64();
    e.max_worker_compute_seconds = in.F64();
    e.measured_comm_seconds = in.F64();
    e.restarted = in.U8() != 0;
    e.recovery_seconds = in.F64();
  }
  if (!in.ok()) return Status::Corruption("truncated dist result: " + path);
  return result;
}

Result<DistributedResult> TrainRank(const data::SimDataset& ds,
                                    const RankOptions& options,
                                    core::GnnModel* model,
                                    const sample::Sampler* sampler,
                                    const RankTransport& transport) {
  const int rank = options.rank;
  const int world = options.world;
  XF_CHECK(rank >= 0 && rank < world);
  XF_CHECK_EQ(options.dist.num_workers, world);
  const train::TrainOptions& topt = options.dist.train;

  std::vector<nn::NamedParameter> params = model->Parameters();
  nn::AdamW optimizer(params,
                      nn::AdamWOptions{.lr = topt.lr,
                                       .weight_decay = topt.weight_decay});

  // ---- Partition: PIC -> num_clusters clusters -> world balanced groups ---
  // Every rank recomputes the full deterministic partition (same seed, same
  // PIC/k-means draws), then materializes only its own induced subgraph.
  xfraud::Rng prng(topt.seed * 0x2545F491ULL + 0xBEEF);
  std::vector<int> worker_of =
      PartitionForWorkers(ds.graph, options.dist.num_clusters, world, &prng);
  std::vector<std::vector<int32_t>> worker_nodes(static_cast<size_t>(world));
  for (int64_t v = 0; v < ds.graph.num_nodes(); ++v) {
    worker_nodes[static_cast<size_t>(worker_of[static_cast<size_t>(v)])]
        .push_back(static_cast<int32_t>(v));
  }
  std::vector<int8_t> in_train(static_cast<size_t>(ds.graph.num_nodes()), 0);
  for (int32_t v : ds.train_nodes) in_train[static_cast<size_t>(v)] = 1;

  std::vector<int32_t> local_to_global;
  graph::HeteroGraph my_graph = graph::InducedGraph(
      ds.graph, worker_nodes[static_cast<size_t>(rank)], &local_to_global);
  std::vector<int32_t> local_train;
  for (size_t local = 0; local < local_to_global.size(); ++local) {
    if (in_train[static_cast<size_t>(local_to_global[local])]) {
      local_train.push_back(static_cast<int32_t>(local));
    }
  }

  // Steps per epoch: the busiest rank's batch count (the others wrap).
  size_t max_train = 1;
  for (int w = 0; w < world; ++w) {
    size_t n = 0;
    for (int32_t v : worker_nodes[static_cast<size_t>(w)]) {
      n += in_train[static_cast<size_t>(v)] != 0 ? 1u : 0u;
    }
    max_train = std::max(max_train, n);
  }
  const int64_t steps_per_epoch = static_cast<int64_t>(
      (max_train + static_cast<size_t>(topt.batch_size) - 1) /
      static_cast<size_t>(topt.batch_size));

  // KV serving path (kv_backed_loaders): this rank's partition ingested into
  // its own store (partitions use local node ids, so stores cannot be
  // shared), fronted by a fault decorator when the plan injects KV faults.
  fault::FaultInjector injector(options.dist.fault_plan);
  std::unique_ptr<kv::MemKvStore> kv_store;
  std::unique_ptr<fault::FaultyKvStore> faulty_kv;
  std::unique_ptr<kv::FeatureStore> features;
  if (options.dist.kv_backed_loaders) {
    kv_store = std::make_unique<kv::MemKvStore>();
    // Ingest through the raw store — faults belong to the serving path,
    // not to the one-time bulk load of a frozen partition.
    kv::FeatureStore ingest(kv_store.get());
    // xfraud-analyze: allow(ingest-bypass)
    XF_RETURN_IF_ERROR(ingest.Ingest(my_graph));
    kv::KvStore* serving = kv_store.get();
    if (options.dist.fault_plan.has_kv_faults()) {
      faulty_kv = std::make_unique<fault::FaultyKvStore>(kv_store.get(),
                                                         &injector);
      serving = faulty_kv.get();
    }
    features = std::make_unique<kv::FeatureStore>(serving);
    features->set_retry_policy(options.dist.kv_retry);
  }
  const sample::LoaderOptions loader_opts{
      .num_workers = topt.num_sample_workers,
      .prefetch_depth = topt.prefetch_depth};
  sample::LoaderOptions train_loader_opts = loader_opts;
  train_loader_opts.feature_store = features.get();

  xfraud::Rng wrng(topt.seed + 1000 + static_cast<uint64_t>(rank));
  wrng.Shuffle(&local_train);
  size_t cursor = 0;
  int start_epoch = 0;
  double best = 0.0;
  int stale = 0;

  auto capture = [&](int epoch) {
    EpochImage img;
    img.next_epoch = epoch;
    img.best_val_auc = best;
    img.stale = stale;
    img.rng = wrng.GetState();
    img.cursor = static_cast<uint64_t>(cursor);
    img.order = local_train;
    for (const auto& p : params) img.params.push_back(p.var.value());
    img.opt_m = optimizer.first_moments();
    img.opt_v = optimizer.second_moments();
    img.opt_step = optimizer.step_count();
    return img;
  };
  auto restore = [&](const EpochImage& img) -> Status {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].var.mutable_value() = img.params[i];
    }
    XF_RETURN_IF_ERROR(optimizer.SetState(img.opt_m, img.opt_v, img.opt_step));
    best = img.best_val_auc;
    stale = img.stale;
    wrng.SetState(img.rng);
    cursor = static_cast<size_t>(img.cursor);
    local_train = img.order;
    return Status::OK();
  };

  // Resume: a restarted process picks up from its last epoch-start image.
  std::string ckpt_path;
  if (!options.checkpoint_dir.empty()) {
    ckpt_path =
        options.checkpoint_dir + "/rank-" + std::to_string(rank) + ".ckpt";
    EpochImage loaded;
    Status resumed = LoadEpochImage(ckpt_path, topt.seed, params, &loaded);
    if (resumed.ok()) {
      XF_RETURN_IF_ERROR(restore(loaded));
      start_epoch = loaded.next_epoch;
      XF_LOG(Info) << "dist worker " << rank << " resumed at epoch "
                   << start_epoch << " from " << ckpt_path;
    } else if (!resumed.IsNotFound()) {
      return resumed;
    }
  }

  // (Re)connects the ring at `generation`. Dropping the failed ring first
  // closes its sockets, waking any neighbour still blocked on it with EOF.
  // The rendezvous may move the rank to the generation the cluster is at
  // (a restarted process joins mid-run).
  std::unique_ptr<SocketCommunicator> comm;
  uint64_t generation = 0;
  auto connect = [&]() -> Status {
    comm = nullptr;
    Result<std::unique_ptr<SocketCommunicator>> connected =
        SocketCommunicator::Connect(
            {.rank = rank,
             .world = world,
             .rendezvous = transport.rendezvous,
             .op_timeout_s = transport.op_timeout_s,
             .generation = generation},
            transport.host);
    if (!connected.ok()) return connected.status();
    comm = std::move(connected).value();
    generation = comm->generation();
    return Status::OK();
  };
  XF_RETURN_IF_ERROR(connect());

  auto& registry = obs::Registry::Global();
  obs::Counter* worker_kills = registry.counter("dist/worker_kills");
  obs::Counter* epoch_restarts = registry.counter("dist/epoch_restarts");

  // Rank-0 evaluation on the full graph, through its own loader on a
  // dedicated eval stream.
  sample::SageSampler eval_sampler(2, 12);
  const uint64_t eval_stream =
      xfraud::Rng::StreamSeed(topt.seed, kDistEvalTag);
  auto evaluate = [&]() {
    train::EvalResult eval;
    core::ForwardOptions fwd;
    sample::BatchLoader loader(
        &ds.graph, &eval_sampler,
        sample::BatchLoader::MakeSeedBatches(ds.val_nodes, 640), eval_stream,
        loader_opts);
    while (auto loaded = loader.Next()) {
      nn::NoGradGuard no_tape;
      nn::Var logits = model->Forward(loaded->batch, fwd);
      auto probs = core::FraudProbabilities(logits);
      eval.scores.insert(eval.scores.end(), probs.begin(), probs.end());
      eval.labels.insert(eval.labels.end(),
                         loaded->batch.target_labels.begin(),
                         loaded->batch.target_labels.end());
    }
    eval.auc = train::RocAuc(eval.scores, eval.labels);
    return eval;
  };

  DistributedResult result;
  if (rank == 0) {
    registry.gauge("dist/workers")->Set(static_cast<double>(world));
    for (int w = 0; w < world; ++w) {
      result.partition_nodes.push_back(
          static_cast<int64_t>(worker_nodes[static_cast<size_t>(w)].size()));
    }
    // Edge-cut diagnostic: fraction of directed edges crossing partitions.
    int64_t cut = 0;
    for (int64_t v = 0; v < ds.graph.num_nodes(); ++v) {
      for (int64_t e = ds.graph.InDegreeBegin(static_cast<int32_t>(v));
           e < ds.graph.InDegreeEnd(static_cast<int32_t>(v)); ++e) {
        cut += worker_of[static_cast<size_t>(ds.graph.neighbors()[e])] !=
               worker_of[static_cast<size_t>(v)];
      }
    }
    result.edge_cut_fraction =
        ds.graph.num_edges() > 0
            ? static_cast<double>(cut) / ds.graph.num_edges()
            : 0.0;
  }

  // ---- Epoch loop ---------------------------------------------------------
  int recovery_rounds = 0;
  const float inv_world = 1.0f / static_cast<float>(world);
  std::vector<float> bucket;  // the step's gradients, reduced in one call
  for (int epoch = start_epoch; epoch < topt.max_epochs; ++epoch) {
    std::optional<obs::ScopedSpan> epoch_span;
    if (rank == 0) epoch_span.emplace("dist/epoch");
    const EpochImage image = capture(epoch);
    if (!ckpt_path.empty()) {
      XF_RETURN_IF_ERROR(SaveEpochImage(ckpt_path, topt.seed, image, params));
    }

    WallTimer epoch_timer;
    bool restarted_this_epoch = false;
    double recovery_seconds = 0.0;
    double train_loss = 0.0;
    double val_auc = 0.0;
    std::vector<std::vector<float>> gathered;

    for (;;) {
      const double comm_at_start = comm->comm_seconds();
      const bool suppress = options.suppress_kill || restarted_this_epoch;
      Status attempt = [&]() -> Status {
        double sample_seconds = 0.0;
        double compute_seconds = 0.0;
        double loss_sum = 0.0;
        int64_t steps = 0;
        // Plan this rank's epoch up front (cursor walk with reshuffle on
        // wrap, dedup of seeds that wrapped within a batch) and hand the
        // plan to a BatchLoader so sampler threads can prefetch ahead of
        // the gradient steps. The plan only draws shuffles from wrng;
        // sampling itself runs on per-batch streams.
        std::unique_ptr<sample::BatchLoader> loader;
        if (!local_train.empty()) {
          std::vector<std::vector<int32_t>> plan;
          plan.reserve(static_cast<size_t>(steps_per_epoch));
          for (int64_t step = 0; step < steps_per_epoch; ++step) {
            std::vector<int32_t> seeds;
            for (int b = 0; b < topt.batch_size; ++b) {
              if (cursor >= local_train.size()) {
                cursor = 0;
                wrng.Shuffle(&local_train);
              }
              seeds.push_back(local_train[cursor++]);
            }
            std::sort(seeds.begin(), seeds.end());
            seeds.erase(std::unique(seeds.begin(), seeds.end()),
                        seeds.end());
            plan.push_back(std::move(seeds));
          }
          loader = std::make_unique<sample::BatchLoader>(
              &my_graph, sampler, std::move(plan),
              xfraud::Rng::StreamSeed(
                  xfraud::Rng::StreamSeed(topt.seed, kDistSampleTag),
                  static_cast<uint64_t>(epoch) *
                          static_cast<uint64_t>(world) +
                      static_cast<uint64_t>(rank)),
              train_loader_opts);
        }
        for (int64_t step = 0; step < steps_per_epoch; ++step) {
          if (!suppress && injector.ShouldKillWorker(rank, epoch, step)) {
            XF_LOG(Info) << "dist worker " << rank
                         << " executing planned kill at epoch " << epoch
                         << " step " << step;
            worker_kills->Increment();
            transport.kill(comm.get());
            return Status::Unavailable("dist worker " + std::to_string(rank) +
                                       " killed by the fault plan");
          }
          if (loader != nullptr) {
            auto loaded = loader->Next();
            XF_CHECK(loaded.has_value());
            sample_seconds += loaded->sample_seconds;
            WallTimer t;
            core::ForwardOptions fwd;
            fwd.training = true;
            fwd.rng = &wrng;
            nn::Var logits = model->Forward(loaded->batch, fwd);
            nn::Var loss = nn::CrossEntropy(
                logits, loaded->batch.target_labels, topt.class_weights);
            optimizer.ZeroGrad();
            loss.Backward();
            loss_sum += loss.item();
            ++steps;
            compute_seconds += t.ElapsedSeconds();
          } else {
            // A partition-less rank contributes zero gradient but still
            // participates in every collective.
            for (auto& p : params) p.var.ZeroGrad();
          }
          // One all-reduce over every gradient, packed in parameter order.
          // Each element still takes the ascending-rank fold, so the bits
          // match one all-reduce per tensor, but the ring is walked once
          // per step instead of once per tensor.
          bucket.clear();
          for (auto& p : params) {
            const nn::Tensor& g = p.var.grad();
            bucket.insert(bucket.end(), g.data(), g.data() + g.size());
          }
          XF_RETURN_IF_ERROR(comm->AllReduceSum(std::span<float>(bucket)));
          const float* reduced = bucket.data();
          for (auto& p : params) {
            nn::Tensor& g = p.var.grad();
            std::copy(reduced, reduced + g.size(), g.data());
            reduced += g.size();
            // Same scalar on every rank over the bit-identical sum — the
            // DDP gradient mean. Recovery re-runs the epoch at full
            // strength, so world is always the denominator.
            g.ScaleInPlace(inv_world);
          }
          optimizer.ClipGradNorm(topt.clip);
          optimizer.Step();
        }
        // Cluster loss: the ascending-rank fold of every rank's sum.
        double loss_buf[2] = {loss_sum, static_cast<double>(steps)};
        XF_RETURN_IF_ERROR(
            comm->AllReduceSum(std::span<double>(loss_buf, 2)));
        train_loss = loss_buf[1] > 0.0 ? loss_buf[0] / loss_buf[1] : 0.0;
        double val_buf[1] = {0.0};
        if (rank == 0) val_buf[0] = evaluate().auc;
        XF_RETURN_IF_ERROR(
            comm->Broadcast(std::span<double>(val_buf, 1), 0));
        val_auc = val_buf[0];
        const float my_stats[3] = {
            static_cast<float>(sample_seconds),
            static_cast<float>(compute_seconds),
            static_cast<float>(comm->comm_seconds() - comm_at_start)};
        gathered.clear();
        return comm->Gather(std::span<const float>(my_stats, 3), 0,
                            rank == 0 ? &gathered : nullptr);
      }();
      if (attempt.ok()) break;
      // A peer died or a collective failed. Roll back to the epoch-start
      // image and reconnect at the next generation — a killed process is
      // meanwhile restarted by the launcher and resumes from its checkpoint.
      if (++recovery_rounds > kMaxRecoveryRounds) return attempt;
      XF_LOG(Info) << "dist worker " << rank << " epoch " << epoch
                   << " comm failure (" << attempt.message()
                   << "); rolling back and rejoining as generation "
                   << generation + 1;
      WallTimer recovery_timer;
      XF_RETURN_IF_ERROR(restore(image));
      ++generation;
      XF_RETURN_IF_ERROR(connect());
      restarted_this_epoch = true;
      recovery_seconds += recovery_timer.ElapsedSeconds();
      if (rank == 0) epoch_restarts->Increment();
    }

    if (rank == 0) {
      XF_CHECK_EQ(gathered.size(), static_cast<size_t>(world));
      DistributedEpoch stats;
      stats.epoch = epoch;
      stats.train_loss = train_loss;
      stats.val_auc = val_auc;
      stats.wall_seconds = epoch_timer.ElapsedSeconds();
      for (const std::vector<float>& g : gathered) {
        XF_CHECK_EQ(g.size(), static_cast<size_t>(3));
        stats.max_worker_sample_seconds =
            std::max(stats.max_worker_sample_seconds, double{g[0]});
        stats.max_worker_compute_seconds =
            std::max(stats.max_worker_compute_seconds, double{g[1]});
        stats.measured_comm_seconds =
            std::max(stats.measured_comm_seconds, double{g[2]});
      }
      stats.restarted = restarted_this_epoch;
      stats.recovery_seconds = recovery_seconds;
      result.history.push_back(stats);
      if (topt.verbose) {
        XF_LOG(Info) << "dist(" << world << ") epoch " << epoch << " loss "
                     << stats.train_loss << " val_auc " << stats.val_auc
                     << " wall " << stats.wall_seconds << "s";
      }
    }

    // Early stopping, decided identically on every rank from the broadcast
    // val AUC.
    if (val_auc > best) {
      best = val_auc;
      stale = 0;
    } else if (++stale >= topt.patience) {
      break;
    }
  }

  result.best_val_auc = best;
  if (rank == 0 && !result.history.empty()) {
    for (const DistributedEpoch& e : result.history) {
      result.mean_wall_epoch_seconds += e.wall_seconds;
    }
    result.mean_wall_epoch_seconds /=
        static_cast<double>(result.history.size());
  }
  return result;
}

Result<DistributedResult> RunDistWorker(const data::SimDataset& ds,
                                        const DistWorkerOptions& options) {
  const int rank = options.rank;
  const int world = options.world;
  if (world > 1 && options.dist.fault_plan.kill_worker == 0) {
    return Status::InvalidArgument(
        "multi-process mode cannot kill rank 0: it hosts the rendezvous and "
        "owns the run's history (see DESIGN.md §12)");
  }

  // Model, identical on every rank (same init stream).
  xfraud::Rng model_rng(options.model_seed);
  core::XFraudDetector model(options.detector, &model_rng);
  sample::SageSampler train_sampler(options.sampler_hops,
                                    options.sampler_fanout);

  // ---- Transport ----------------------------------------------------------
  RankTransport transport;
  transport.op_timeout_s = options.op_timeout_s;
  transport.kill = [](SocketCommunicator*) { fault::KillCurrentProcess(); };
  std::unique_ptr<RendezvousHost> host;
  if (world > 1) {
    Result<Endpoint> parsed = ParseEndpoint(options.rendezvous);
    if (!parsed.ok()) return parsed.status();
    transport.rendezvous = parsed.value();
    if (rank == 0) {
      Result<std::unique_ptr<RendezvousHost>> created =
          RendezvousHost::Create(transport.rendezvous, world);
      if (!created.ok()) return created.status();
      host = std::move(created).value();
      transport.host = host.get();
    }
  }

  Result<DistributedResult> result =
      TrainRank(ds, options, &model, &train_sampler, transport);
  if (!result.ok() || rank != 0) return result;
  XF_RETURN_IF_ERROR(nn::SaveParameters(
      model.Parameters(), options.checkpoint_dir + "/final_model.ckpt"));
  XF_RETURN_IF_ERROR(SaveDistResult(
      result.value(), options.checkpoint_dir + "/result.bin"));
  return result;
}

}  // namespace xfraud::dist
