// xfraud_cli — command-line front end of the library, covering the
// operational loop a deployment needs without writing C++:
//
//   xfraud_cli generate --out log.tsv [--scale small|large|xlarge]
//       synthesize a transaction log (TSV, see data/log_io.h)
//   xfraud_cli train --log log.tsv --model detector.ckpt [--epochs N]
//       build the graph, train detector+, save a checkpoint
//   xfraud_cli score --log log.tsv --model detector.ckpt [--top N]
//       score every labeled transaction, print metrics + the riskiest N
//   xfraud_cli explain --log log.tsv --model detector.ckpt --txn <id>
//       run the hybrid explainer on one transaction's community and render
//       it (the paper's Fig. 11 workflow)
//   xfraud_cli serve-bench --log log.tsv [--transport inproc|socket] ...
//       drive the online scoring service and report tail latencies;
//       in-process it is replicated KV with failover, deadlines and
//       load shedding, with --transport socket it is real shard-server
//       processes behind a supervised frame-speaking router
//   xfraud_cli serve-worker --cell cell.log --endpoint unix:<path> ...
//       run one shard-server process (what serve-bench's supervisor forks;
//       also usable standalone against a prepared cell WAL)
//   xfraud_cli dist-bench --log log.tsv --transport inproc|socket ...
//       run distributed data-parallel training on the socket ring (inproc:
//       one thread per rank; socket: one real OS process per rank) and
//       print the per-epoch cost table
//   xfraud_cli dist-worker --log log.tsv --rank R --workers W ...
//       run one rank of a socket-backed cluster (what dist-bench's launcher
//       forks; also usable standalone for hand-launched clusters)
//
// Exit code 0 on success, 1 on usage/runtime errors, 2 on a flag the
// command does not read, or a flag value that is not a number or not one
// of the listed choices.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "xfraud/common/parse_number.h"
#include "xfraud/xfraud.h"

namespace xfraud::cli {
namespace {

/// A flag value the command can not use. Main prints it with the usage
/// text and exits 2.
class FlagError : public std::invalid_argument {
 public:
  FlagError(const std::string& key, const std::string& value)
      : std::invalid_argument("invalid --" + key + " value '" + value +
                              "'") {}
};

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& key) const { return values.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    return GetNumber(key, fallback);
  }
  double GetDouble(const std::string& key, double fallback) const {
    return GetNumber(key, fallback);
  }

 private:
  /// The whole value must parse as a T; anything else throws FlagError.
  template <typename T>
  T GetNumber(const std::string& key, T fallback) const {
    auto it = values.find(key);
    if (it == values.end()) return fallback;
    Result<T> parsed = ParseNumber<T>(it->second);
    if (!parsed.ok()) throw FlagError(key, it->second);
    return parsed.value();
  }
};

int Usage() {
  std::cerr <<
      "usage: xfraud_cli <command> [flags]\n"
      "  generate --out <log.tsv> [--scale small|large|xlarge] [--seed N]\n"
      "  train    --log <log.tsv> --model <ckpt> [--epochs N]\n"
      "           [--seed N] [--hidden N] [--layers N]\n"
      "           [--sample-workers N] [--prefetch N]\n"
      "           [--checkpoint-dir D] [--resume] [--kv-serve]\n"
      "           [--kv-retries N] [--max-degraded-frac F]\n"
      "           [--fault-plan SPEC] [--metrics-out F]\n"
      "  score    --log <log.tsv> --model <ckpt> [--top N]\n"
      "           [--seed N] [--hidden N] [--layers N]\n"
      "           [--sample-workers N] [--prefetch N] [--metrics-out F]\n"
      "  explain  --log <log.tsv> --model <ckpt> --txn <txn_id>\n"
      "           [--seed N] [--hidden N] [--layers N]\n"
      "  serve-bench --log <log.tsv> [--transport inproc|socket]\n"
      "           [--requests N] [--seed N] [--hidden N] [--layers N]\n"
      "           [--shards N] [--replicas N] [--deadline-ms F]\n"
      "           [--max-inflight N] [--fault-plan SPEC] [--metrics-out F]\n"
      "           inproc only: [--model <ckpt>]\n"
      "             [--shed-policy failfast|degrade] [--max-degraded-frac F]\n"
      "             [--threads N] [--virtual-clock]\n"
      "           socket only: [--dir D]\n"
      "  serve-worker --cell <cell.log> --endpoint unix:<path>|tcp:host:port\n"
      "           [--shard S] [--replica R] [--hidden N] [--layers N]\n"
      "           [--seed N] [--generation G] [--suppress-kill]\n"
      "           [--deadline-ms F] [--max-inflight N] [--idle-timeout SEC]\n"
      "           [--fault-plan SPEC]\n"
      "  dist-bench --log <log.tsv> [--transport inproc|socket]\n"
      "           [--seed N] [--hidden N] [--layers N]\n"
      "           [--workers N] [--epochs N] [--patience N] [--batch N]\n"
      "           [--clusters N] [--sample-workers N] [--prefetch N]\n"
      "           [--fault-plan SPEC] [--rendezvous EP] [--suppress-kill]\n"
      "           [--checkpoint-dir D] [--op-timeout SEC] [--timeout SEC]\n"
      "           [--metrics-out F]\n"
      "  dist-worker --log <log.tsv> --rank R --workers W\n"
      "           --rendezvous unix:<path>|tcp:host:port --checkpoint-dir D\n"
      "           [--seed N] [--hidden N] [--layers N]\n"
      "           [--epochs N] [--patience N] [--batch N] [--clusters N]\n"
      "           [--sample-workers N] [--prefetch N]\n"
      "           [--fault-plan SPEC] [--suppress-kill] [--op-timeout SEC]\n"
      "           [--metrics-out F]\n"
      "\n"
      "Every command also takes --trace. Any other flag is an error: the\n"
      "command prints 'unknown flag --<name>' and exits 2. serve-bench\n"
      "likewise refuses a flag only the other transport reads: it prints\n"
      "'serve-bench --transport <t> does not take --<flag>' and exits 2.\n"
      "A value that is not a number where one is read, or not one of the\n"
      "listed choices, prints 'invalid --<flag> value '<v>'' and exits 2.\n"
      "\n"
      "--sample-workers enables the pipelined batch loader: N sampler\n"
      "threads prefetch mini-batches ahead of the model (0 = inline\n"
      "sampling; results are bit-identical either way). --prefetch bounds\n"
      "how many ready batches they may buffer (default 4).\n"
      "\n"
      "observability (train/score): --metrics-out=<path>.json writes the\n"
      "obs::Registry snapshot (counters + p50/p95/p99 histograms of the\n"
      "sampler, loader, trainer, and KV paths; schema in DESIGN.md §8);\n"
      "--trace prints RAII span timings to stderr as they close.\n"
      "\n"
      "fault tolerance (train): --checkpoint-dir writes a CRC-verified\n"
      "checkpoint after every epoch; --resume continues from it\n"
      "bit-identically. --kv-serve serves batch features from a KV-backed\n"
      "store with --kv-retries retry attempts per read (default 4);\n"
      "batches whose reads exhaust retries are zero-imputed, and the run\n"
      "fails if more than --max-degraded-frac of an epoch's batches\n"
      "degrade. --fault-plan (or env XFRAUD_FAULT_PLAN) injects\n"
      "deterministic chaos, e.g.\n"
      "  seed=3,kv_error_rate=0.02,kv_latency_rate=0.01,kv_latency_s=1e-4\n"
      "(see DESIGN.md §10 for the full grammar).\n"
      "\n"
      "in-process serving (serve-bench): stands up --shards x --replicas\n"
      "LogKv cells (in a temp dir removed on exit) behind the hardened read\n"
      "path (failover, circuit breakers) and scores --requests labeled\n"
      "transactions under a --deadline-ms budget. Admission control sheds\n"
      "requests past --max-inflight concurrent scores: --shed-policy\n"
      "failfast refuses them, degrade answers from the mined-rule prefilter\n"
      "(counted against --max-degraded-frac). --fault-plan adds\n"
      "kill_replica=<r>, kill_shard=<s>, slow_replica=<r>@<sec> to the\n"
      "grammar above.\n"
      "--virtual-clock replays injected latency on simulated time\n"
      "(bit-deterministic with --threads 1); --model reuses a trained\n"
      "checkpoint, otherwise a seed-initialized detector is scored\n"
      "(latency-realistic either way). See DESIGN.md §11.\n"
      "\n"
      "serve-bench --transport socket promotes the tier to real OS\n"
      "processes (DESIGN.md §16): a supervisor forks one shard-server per\n"
      "--shards x --replicas grid slot under --dir (cell WALs + unix\n"
      "sockets), and a router scores over CRC-framed wire requests with\n"
      "failover, circuit breakers, and the remaining deadline propagated in\n"
      "each frame; every server scores a seed-initialized detector.\n"
      "--fault-plan gains kill_server=<r>[@<n>] (replica r of every shard\n"
      "SIGKILLs itself on its n-th request; the supervisor respawns it from\n"
      "the WAL) and corrupt_frame=<n> (flip a payload byte on the wire; the\n"
      "server detects it by CRC and the router resends). Scores stay\n"
      "bit-identical to the in-process tier.\n"
      "serve-worker runs one such server by hand.\n"
      "\n"
      "distributed training (dist-bench / dist-worker): every rank joins\n"
      "one length-prefixed-frame ring over unix sockets with rank-0\n"
      "rendezvous. --transport inproc runs one thread per rank in this\n"
      "process (the ring lives in a temp dir, removed on exit);\n"
      "--transport socket forks one real OS process per rank. Both run the\n"
      "same per-rank loop and give bit-identical results.\n"
      "kill_worker=<r>@<e>:<s> in --fault-plan kills rank r mid-epoch\n"
      "(inproc: it shuts its ring down; socket: a real SIGKILL, after which\n"
      "the launcher re-forks the rank and it resumes from its CRC\n"
      "checkpoint under --checkpoint-dir); every rank rolls back and\n"
      "re-runs the epoch. The epoch table reports measured times only:\n"
      "wall, the slowest rank's time inside collectives (wire time and\n"
      "waiting for peers), sampling and compute. See DESIGN.md §12.\n";
  return 1;
}

Result<Flags> ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("bad flag: " + arg);
    }
    // Accept --key=value, --key value, and bare boolean --key (stored "1").
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags.values[arg.substr(2)] = argv[++i];
    } else {
      flags.values[arg.substr(2)] = "1";
    }
  }
  return flags;
}

core::DetectorConfig ConfigFor(const graph::HeteroGraph& g,
                               const Flags& flags) {
  core::DetectorConfig dc;
  dc.feature_dim = g.feature_dim();
  dc.hidden_dim = flags.GetInt("hidden", 32);
  dc.num_heads = 4;
  dc.num_layers = flags.GetInt("layers", 2);
  return dc;
}

/// Exercises the KV feature-store path so a --metrics-out snapshot covers
/// it even though train/score serve batches from the in-memory graph:
/// ingests the graph into a sharded in-memory store and loads a few
/// batches back through pure KV reads, populating the kv/* counters and
/// per-shard latency histograms.
void ProbeKvPath(const data::SimDataset& ds) {
  obs::ScopedSpan span("cli/kv_probe");
  auto store = kv::ShardedKvStore::InMemory(4);
  kv::FeatureStore feature_store(store.get());
  Status s = feature_store.Ingest(ds.graph);
  if (!s.ok()) {
    std::cerr << "kv probe: " << s.ToString() << "\n";
    return;
  }
  Rng rng(23);
  auto seeds = ds.graph.LabeledTransactions();
  size_t limit = std::min<size_t>(seeds.size(), 512);
  for (size_t begin = 0; begin < limit; begin += 128) {
    std::vector<int32_t> batch(
        seeds.begin() + begin,
        seeds.begin() + std::min(begin + 128, limit));
    auto loaded = feature_store.LoadBatch(batch, /*hops=*/2, /*fanout=*/12,
                                          &rng, kv::kHeadEpoch);
    if (!loaded.ok()) {
      std::cerr << "kv probe: " << loaded.status().ToString() << "\n";
      return;
    }
  }
}

/// Writes the global registry snapshot when --metrics-out is set.
int WriteMetricsSnapshot(const Flags& flags) {
  std::string path = flags.Get("metrics-out");
  if (path.empty()) return 0;
  Status s = obs::Registry::Global().WriteJsonFile(path);
  if (!s.ok()) {
    std::cerr << "metrics-out: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote metrics snapshot to " << path << "\n";
  return 0;
}

/// Loads the log, builds the dataset, reports basic stats.
Result<data::SimDataset> LoadDataset(const Flags& flags) {
  std::string path = flags.Get("log");
  if (path.empty()) return Status::InvalidArgument("--log is required");
  auto records = data::ReadTransactionLog(path);
  if (!records.ok()) return records.status();
  data::SimDataset ds = data::TransactionGenerator::BuildDataset(
      records.value(), path, 0.7, 0.1, flags.GetInt("seed", 7));
  std::cout << "loaded " << records.value().size() << " transactions -> "
            << ds.graph.num_nodes() << " nodes, " << ds.graph.num_edges() / 2
            << " undirected edges, "
            << TablePrinter::Num(ds.graph.FraudRate() * 100, 2)
            << "% fraud\n";
  return ds;
}

int CmdGenerate(const Flags& flags) {
  std::string out = flags.Get("out");
  if (out.empty()) {
    std::cerr << "generate: --out is required\n";
    return 1;
  }
  std::string scale = flags.Get("scale", "small");
  if (scale != "small" && scale != "large" && scale != "xlarge") {
    throw FlagError("scale", scale);
  }
  data::GeneratorConfig config =
      scale == "xlarge" ? data::TransactionGenerator::SimXLarge()
      : scale == "large" ? data::TransactionGenerator::SimLarge()
                         : data::TransactionGenerator::SimSmall();
  if (flags.Has("seed")) config.seed = flags.GetInt("seed", 42);
  data::TransactionGenerator generator(config);
  auto records = generator.GenerateRecords();
  Status s = data::WriteTransactionLog(records, out);
  if (!s.ok()) {
    std::cerr << "generate: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << records.size() << " transactions to " << out
            << "\n";
  return 0;
}

int CmdTrain(const Flags& flags) {
  auto ds = LoadDataset(flags);
  if (!ds.ok()) {
    std::cerr << "train: " << ds.status().ToString() << "\n";
    return 1;
  }
  std::string model_path = flags.Get("model");
  if (model_path.empty()) {
    std::cerr << "train: --model is required\n";
    return 1;
  }
  Rng rng(flags.GetInt("seed", 7));
  core::XFraudDetector detector(ConfigFor(ds.value().graph, flags), &rng);
  sample::SageSampler sampler(2, 12);
  train::TrainOptions opts;
  opts.max_epochs = flags.GetInt("epochs", 12);
  opts.patience = opts.max_epochs;
  opts.class_weights = {1.0f, 4.0f};
  opts.lr = 2e-3f;
  opts.verbose = true;
  opts.num_sample_workers = flags.GetInt("sample-workers", 0);
  opts.prefetch_depth = flags.GetInt("prefetch", 4);
  opts.trace = flags.Has("trace");
  opts.checkpoint_dir = flags.Get("checkpoint-dir");
  opts.resume = flags.Has("resume");
  opts.max_degraded_frac = flags.GetDouble("max-degraded-frac", 1.0);

  // --kv-serve: serve batch features through the KV path (with retries and
  // degraded-mode imputation) instead of the in-memory graph. --fault-plan
  // (or env XFRAUD_FAULT_PLAN) injects deterministic chaos in front of it.
  std::unique_ptr<kv::ShardedKvStore> kv_store;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<fault::FaultyKvStore> faulty_store;
  std::unique_ptr<kv::FeatureStore> feature_store;
  if (flags.Has("fault-plan") || std::getenv("XFRAUD_FAULT_PLAN") != nullptr) {
    Result<fault::FaultPlan> plan =
        flags.Has("fault-plan") ? fault::FaultPlan::Parse(flags.Get("fault-plan"))
                                : fault::FaultPlan::FromEnv();
    if (!plan.ok()) {
      std::cerr << "train: " << plan.status().ToString() << "\n";
      return 1;
    }
    injector = std::make_unique<fault::FaultInjector>(plan.value());
    std::cout << "fault plan: " << plan.value().ToString() << "\n";
  }
  if (flags.Has("kv-serve")) {
    kv_store = kv::ShardedKvStore::InMemory(4);
    kv::KvStore* serving = kv_store.get();
    {
      // Bulk load through the raw store; faults belong to the serving path.
      kv::FeatureStore ingest(kv_store.get());
      Status s = ingest.Ingest(ds.value().graph);
      if (!s.ok()) {
        std::cerr << "train: kv ingest: " << s.ToString() << "\n";
        return 1;
      }
    }
    if (injector != nullptr) {
      faulty_store =
          std::make_unique<fault::FaultyKvStore>(kv_store.get(), injector.get());
      serving = faulty_store.get();
    }
    feature_store = std::make_unique<kv::FeatureStore>(serving);
    RetryPolicy retry;
    retry.max_attempts = flags.GetInt("kv-retries", 4);
    feature_store->set_retry_policy(retry);
    opts.feature_store = feature_store.get();
  }

  train::Trainer trainer(&detector, &sampler, opts);
  auto result = trainer.Train(ds.value());
  if (!result.error.ok()) {
    std::cerr << "train: " << result.error.ToString() << "\n";
    return 1;
  }
  if (result.degraded_batches > 0) {
    std::cout << "degraded batches: " << result.degraded_batches << "/"
              << result.total_batches << "\n";
  }
  auto test = trainer.Evaluate(ds.value().graph, ds.value().test_nodes);
  std::cout << "best val AUC " << TablePrinter::Num(result.best_val_auc, 4)
            << ", test AUC " << TablePrinter::Num(test.auc, 4) << ", AP "
            << TablePrinter::Num(test.ap, 4) << "\n";
  Status s = nn::SaveParameters(detector.Parameters(), model_path);
  if (!s.ok()) {
    std::cerr << "train: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "saved checkpoint to " << model_path << "\n";
  if (flags.Has("metrics-out")) ProbeKvPath(ds.value());
  return WriteMetricsSnapshot(flags);
}

Result<std::unique_ptr<core::XFraudDetector>> LoadDetector(
    const graph::HeteroGraph& g, const Flags& flags) {
  std::string model_path = flags.Get("model");
  if (model_path.empty()) return Status::InvalidArgument("--model required");
  Rng rng(flags.GetInt("seed", 7));
  auto detector =
      std::make_unique<core::XFraudDetector>(ConfigFor(g, flags), &rng);
  auto params = detector->Parameters();
  XF_RETURN_IF_ERROR(nn::LoadParameters(model_path, &params));
  return detector;
}

int CmdScore(const Flags& flags) {
  int top = flags.GetInt("top", 10);
  auto ds = LoadDataset(flags);
  if (!ds.ok()) {
    std::cerr << "score: " << ds.status().ToString() << "\n";
    return 1;
  }
  auto detector = LoadDetector(ds.value().graph, flags);
  if (!detector.ok()) {
    std::cerr << "score: " << detector.status().ToString() << "\n";
    return 1;
  }
  sample::SageSampler sampler(2, 12);
  train::TrainOptions score_opts;
  score_opts.num_sample_workers = flags.GetInt("sample-workers", 0);
  score_opts.prefetch_depth = flags.GetInt("prefetch", 4);
  score_opts.trace = flags.Has("trace");
  train::Trainer scorer(detector.value().get(), &sampler, score_opts);
  auto labeled = ds.value().graph.LabeledTransactions();
  auto eval = scorer.Evaluate(ds.value().graph, labeled);
  std::cout << "scored " << labeled.size() << " transactions: AUC "
            << TablePrinter::Num(eval.auc, 4) << ", AP "
            << TablePrinter::Num(eval.ap, 4) << " (sampling "
            << TablePrinter::Num(eval.sample_secs_per_batch_mean, 4)
            << " s/batch, inference "
            << TablePrinter::Num(eval.secs_per_batch_mean, 4)
            << " s/batch)\n";

  std::vector<size_t> order(eval.scores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return eval.scores[a] > eval.scores[b];
  });
  TablePrinter table({"node", "risk score", "label"});
  for (int i = 0; i < top && i < static_cast<int>(order.size()); ++i) {
    size_t idx = order[i];
    table.AddRow({std::to_string(labeled[idx]),
                  TablePrinter::Num(eval.scores[idx], 4),
                  eval.labels[idx] == 1 ? "fraud" : "benign"});
  }
  std::cout << "top " << top << " riskiest transactions:\n";
  table.Print(std::cout);
  if (flags.Has("metrics-out")) ProbeKvPath(ds.value());
  return WriteMetricsSnapshot(flags);
}

int CmdExplain(const Flags& flags) {
  std::string txn_id = flags.Get("txn");
  if (txn_id.empty()) {
    std::cerr << "explain: --txn is required\n";
    return 1;
  }
  std::string path = flags.Get("log");
  auto records = data::ReadTransactionLog(path);
  if (!records.ok()) {
    std::cerr << "explain: " << records.status().ToString() << "\n";
    return 1;
  }
  graph::GraphBuilder builder;
  for (const auto& r : records.value()) {
    Status s = builder.AddTransaction(r);
    if (!s.ok()) {
      std::cerr << "explain: " << s.ToString() << "\n";
      return 1;
    }
  }
  graph::HeteroGraph g = builder.Build();
  int32_t seed = builder.TxnNode(txn_id);
  if (seed < 0) {
    std::cerr << "explain: unknown transaction id " << txn_id << "\n";
    return 1;
  }
  auto detector = LoadDetector(g, flags);
  if (!detector.ok()) {
    std::cerr << "explain: " << detector.status().ToString() << "\n";
    return 1;
  }

  Rng rng(11);
  graph::Subgraph community = graph::KHopSubgraph(g, seed, 3, 10, &rng);
  sample::MiniBatch batch = sample::MakeBatch(g, community, {seed});
  double risk = 0.0;
  {
    nn::NoGradGuard no_tape;
    risk = core::FraudProbabilities(
        detector.value()->Forward(batch, core::ForwardOptions{}))[0];
  }
  std::cout << "transaction " << txn_id << ": risk score "
            << TablePrinter::Num(risk, 4) << "\n";

  explain::GnnExplainer explainer(detector.value().get(),
                                  explain::GnnExplainerOptions{});
  explain::Explanation explanation = explainer.Explain(batch);
  auto undirected = graph::UndirectedEdges(community);
  auto centrality = explain::EdgeWeightsByCentrality(
      undirected, community.num_nodes(),
      explain::CentralityMeasure::kEdgeBetweenness, &rng);

  // Even blend of the task-agnostic and task-aware weights (§3.4.2); train
  // the coefficients with bench_table4_hybrid for a fitted combination.
  std::vector<double> hybrid(undirected.size());
  auto normalize = [](std::vector<double> w) {
    double lo = *std::min_element(w.begin(), w.end());
    double hi = *std::max_element(w.begin(), w.end());
    for (auto& x : w) x = hi > lo ? (x - lo) / (hi - lo) : 0.0;
    return w;
  };
  auto wc = normalize(centrality);
  auto we = normalize(explanation.undirected_edge_weights);
  for (size_t e = 0; e < hybrid.size(); ++e) {
    hybrid[e] = 0.5 * wc[e] + 0.5 * we[e];
  }
  std::cout << explain::RenderCommunity(g, community, hybrid, 20);
  return 0;
}

/// Exact interpolated percentile over raw samples (matches
/// bench_serve_tail_latency; the obs histogram only estimates).
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name)->value();
}

int CmdServeBenchSocket(const Flags& flags, const data::SimDataset& ds);

int CmdServeBench(const Flags& flags) {
  const std::string transport = flags.Get("transport", "inproc");
  if (transport != "inproc" && transport != "socket") {
    throw FlagError("transport", transport);
  }
  // serve-bench's flag set is the union of both transports'; a flag only
  // the other transport reads is refused rather than silently ignored.
  const std::vector<std::string> other_transport_only =
      transport == "socket"
          ? std::vector<std::string>{"model", "virtual-clock", "threads",
                                     "shed-policy", "max-degraded-frac"}
          : std::vector<std::string>{"dir"};
  for (const std::string& flag : other_transport_only) {
    if (flags.Has(flag)) {
      std::cerr << "serve-bench --transport " << transport
                << " does not take --" << flag << "\n";
      Usage();
      return 2;
    }
  }
  const std::string shed = flags.Get("shed-policy", "failfast");
  if (shed != "failfast" && shed != "degrade") {
    throw FlagError("shed-policy", shed);
  }

  std::string path = flags.Get("log");
  if (path.empty()) {
    std::cerr << "serve-bench: --log is required\n";
    return 1;
  }
  auto records = data::ReadTransactionLog(path);
  if (!records.ok()) {
    std::cerr << "serve-bench: " << records.status().ToString() << "\n";
    return 1;
  }
  data::SimDataset ds = data::TransactionGenerator::BuildDataset(
      records.value(), path, 0.7, 0.1, flags.GetInt("seed", 7));
  if (transport == "socket") return CmdServeBenchSocket(flags, ds);

  VirtualClock virtual_clock;
  Clock* clock =
      flags.Has("virtual-clock") ? &virtual_clock : Clock::Real();

  stream::StreamingOptions topo;  // empty dir: cells in a removed temp dir
  topo.num_shards = flags.GetInt("shards", 4);
  topo.num_replicas = flags.GetInt("replicas", 3);
  topo.clock = clock;
  if (flags.Has("fault-plan") || std::getenv("XFRAUD_FAULT_PLAN") != nullptr) {
    Result<fault::FaultPlan> plan =
        flags.Has("fault-plan")
            ? fault::FaultPlan::Parse(flags.Get("fault-plan"))
            : fault::FaultPlan::FromEnv();
    if (!plan.ok()) {
      std::cerr << "serve-bench: " << plan.status().ToString() << "\n";
      return 1;
    }
    topo.plan = plan.value();
    std::cout << "fault plan: " << plan.value().ToString() << "\n";
  }
  auto topology = stream::StreamingTopology::Open(topo);
  Status ingest = topology.ok() ? topology.value()->BulkLoad(ds.graph)
                                : topology.status();
  if (!ingest.ok()) {
    std::cerr << "serve-bench: ingest: " << ingest.ToString() << "\n";
    return 1;
  }
  kv::FeatureStore features(topology.value()->serving());

  // Score with the trained checkpoint when given; a fresh seed-initialized
  // detector exercises the identical serving path otherwise.
  Rng rng(flags.GetInt("seed", 7));
  std::unique_ptr<core::XFraudDetector> detector;
  if (flags.Has("model")) {
    auto loaded = LoadDetector(ds.graph, flags);
    if (!loaded.ok()) {
      std::cerr << "serve-bench: " << loaded.status().ToString() << "\n";
      return 1;
    }
    detector = std::move(loaded.value());
  } else {
    detector = std::make_unique<core::XFraudDetector>(
        ConfigFor(ds.graph, flags), &rng);
  }

  serve::ServiceOptions options;
  options.deadline_s = flags.GetDouble("deadline-ms", 250.0) * 1e-3;
  options.max_inflight = flags.GetInt("max-inflight", 64);
  options.shed_policy = shed == "degrade" ? serve::ShedPolicy::kDegrade
                                          : serve::ShedPolicy::kFailFast;
  options.max_degraded_frac = flags.GetDouble("max-degraded-frac", 1.0);
  options.clock = clock;
  serve::ScoringService service(detector.get(), &features, options);
  baselines::RuleScorer fallback = baselines::RuleScorer::FromFilter(
      data::RuleFilter::Fit(records.value(), data::RuleFilter::Options{}));
  service.set_fallback(&fallback);

  auto seeds = ds.graph.LabeledTransactions();
  if (seeds.empty()) {
    std::cerr << "serve-bench: log has no labeled transactions\n";
    return 1;
  }
  const int num_requests =
      std::max(1, flags.GetInt("requests", 200));
  const int num_threads = std::max(1, flags.GetInt("threads", 1));

  const int64_t failovers_before = CounterValue("kv/replicated/failovers");
  const int64_t opens_before = CounterValue("kv/replicated/breaker_opens");

  std::vector<double> latencies(static_cast<size_t>(num_requests), -1.0);
  std::atomic<int> ok_count{0};
  std::atomic<int> shed_count{0};
  std::atomic<int> deadline_count{0};
  std::atomic<int> degraded_count{0};
  std::atomic<int> prefilter_count{0};
  auto worker = [&](int first, int last) {
    for (int r = first; r < last; ++r) {
      const int32_t node = seeds[static_cast<size_t>(r) % seeds.size()];
      auto resp = service.Score(/*request_id=*/r, node);
      if (resp.ok()) {
        ok_count.fetch_add(1);
        latencies[static_cast<size_t>(r)] = resp.value().latency_s;
        if (resp.value().degraded) degraded_count.fetch_add(1);
        if (resp.value().from_prefilter) prefilter_count.fetch_add(1);
      } else if (resp.status().IsDeadlineExceeded()) {
        deadline_count.fetch_add(1);
      } else {
        shed_count.fetch_add(1);
      }
    }
  };
  WallTimer timer;
  if (num_threads == 1) {
    worker(0, num_requests);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    const int per = (num_requests + num_threads - 1) / num_threads;
    for (int t = 0; t < num_threads; ++t) {
      const int first = t * per;
      threads.emplace_back(worker, std::min(first, num_requests),
                           std::min(first + per, num_requests));
    }
    for (auto& t : threads) t.join();
  }
  const double wall_s = timer.ElapsedSeconds();

  std::vector<double> ok_latencies;
  for (double l : latencies) {
    if (l >= 0.0) ok_latencies.push_back(l);
  }
  std::cout << "scored " << num_requests << " requests on " << num_threads
            << " thread(s) in " << TablePrinter::Num(wall_s, 2) << "s ("
            << topo.num_shards << " shards x " << topo.num_replicas
            << " replicas";
  if (flags.Has("virtual-clock")) {
    std::cout << ", virtual clock at "
              << TablePrinter::Num(virtual_clock.NowSeconds(), 3) << "s";
  }
  std::cout << ")\n";
  TablePrinter table({"metric", "value"});
  table.AddRow({"ok", std::to_string(ok_count.load())});
  table.AddRow({"shed / unavailable", std::to_string(shed_count.load())});
  table.AddRow({"deadline exceeded", std::to_string(deadline_count.load())});
  table.AddRow({"degraded", std::to_string(degraded_count.load())});
  table.AddRow({"prefilter fallback", std::to_string(prefilter_count.load())});
  table.AddRow(
      {"p50 (ms)", TablePrinter::Num(Percentile(ok_latencies, 0.50) * 1e3, 2)});
  table.AddRow(
      {"p95 (ms)", TablePrinter::Num(Percentile(ok_latencies, 0.95) * 1e3, 2)});
  table.AddRow(
      {"p99 (ms)", TablePrinter::Num(Percentile(ok_latencies, 0.99) * 1e3, 2)});
  table.AddRow({"failovers",
                std::to_string(CounterValue("kv/replicated/failovers") -
                               failovers_before)});
  table.AddRow({"breaker opens",
                std::to_string(CounterValue("kv/replicated/breaker_opens") -
                               opens_before)});
  table.Print(std::cout);
  return WriteMetricsSnapshot(flags);
}

/// Parses --fault-plan / XFRAUD_FAULT_PLAN; an empty plan when neither is
/// set.
Result<fault::FaultPlan> PlanFromFlags(const Flags& flags) {
  if (flags.Has("fault-plan")) {
    return fault::FaultPlan::Parse(flags.Get("fault-plan"));
  }
  if (std::getenv("XFRAUD_FAULT_PLAN") != nullptr) {
    return fault::FaultPlan::FromEnv();
  }
  return fault::FaultPlan{};
}

/// serve-bench --transport=socket: the real multi-process tier. The
/// Supervisor forks one shard-server process per grid slot; the bench
/// drives a frame-speaking Router at them and reports *end-to-end wire*
/// latencies (the in-process table reports server-side scoring time), plus
/// the router/supervisor chaos counters. Requests run on one thread — the
/// Router is deliberately single-threaded (one per thread in real use).
int CmdServeBenchSocket(const Flags& flags, const data::SimDataset& ds) {
  auto plan = PlanFromFlags(flags);
  if (!plan.ok()) {
    std::cerr << "serve-bench: " << plan.status().ToString() << "\n";
    return 1;
  }
  if (plan.value().any()) {
    std::cout << "fault plan: " << plan.value().ToString() << "\n";
  }

  serve::SupervisorOptions sup_options;
  sup_options.dir = flags.Get("dir", "/tmp/xfraud-serve-bench");
  sup_options.num_shards = flags.GetInt("shards", 2);
  sup_options.num_replicas = flags.GetInt("replicas", 2);
  sup_options.detector = ConfigFor(ds.graph, flags);
  sup_options.model_seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  sup_options.service.deadline_s =
      flags.GetDouble("deadline-ms", 250.0) * 1e-3;
  sup_options.service.max_inflight = flags.GetInt("max-inflight", 64);
  sup_options.plan = plan.value();
  std::cout << "forking " << sup_options.num_shards << " x "
            << sup_options.num_replicas << " shard-server process(es) under "
            << sup_options.dir << "\n";
  auto sup = serve::Supervisor::Start(ds.graph, sup_options);
  if (!sup.ok()) {
    std::cerr << "serve-bench: " << sup.status().ToString() << "\n";
    return 1;
  }

  serve::Router router(sup.value()->MakeRouterOptions());

  auto seeds = ds.graph.LabeledTransactions();
  if (seeds.empty()) {
    std::cerr << "serve-bench: log has no labeled transactions\n";
    return 1;
  }
  const int num_requests = std::max(1, flags.GetInt("requests", 200));
  const int64_t failovers_before = CounterValue("serve/router/failovers");
  const int64_t opens_before = CounterValue("serve/router/breaker_opens");
  const int64_t corrupt_before = CounterValue("serve/router/corrupt_retries");
  const int64_t redials_before = CounterValue("serve/router/redials");

  std::vector<double> ok_latencies;
  int ok_count = 0, shed_count = 0, deadline_count = 0;
  WallTimer timer;
  for (int r = 0; r < num_requests; ++r) {
    const int32_t node = seeds[static_cast<size_t>(r) % seeds.size()];
    WallTimer request_timer;
    auto resp = router.Score(/*request_id=*/r, node);
    if (resp.ok()) {
      ++ok_count;
      ok_latencies.push_back(request_timer.ElapsedSeconds());
    } else if (resp.status().IsDeadlineExceeded()) {
      ++deadline_count;
    } else {
      ++shed_count;
    }
  }
  const double wall_s = timer.ElapsedSeconds();

  std::cout << "scored " << num_requests << " requests over the wire in "
            << TablePrinter::Num(wall_s, 2) << "s ("
            << sup_options.num_shards << " shards x "
            << sup_options.num_replicas << " replica processes)\n";
  TablePrinter table({"metric", "value"});
  table.AddRow({"ok", std::to_string(ok_count)});
  table.AddRow({"shed / unavailable", std::to_string(shed_count)});
  table.AddRow({"deadline exceeded", std::to_string(deadline_count)});
  table.AddRow(
      {"p50 (ms)", TablePrinter::Num(Percentile(ok_latencies, 0.50) * 1e3, 2)});
  table.AddRow(
      {"p95 (ms)", TablePrinter::Num(Percentile(ok_latencies, 0.95) * 1e3, 2)});
  table.AddRow(
      {"p99 (ms)", TablePrinter::Num(Percentile(ok_latencies, 0.99) * 1e3, 2)});
  table.AddRow({"failovers",
                std::to_string(CounterValue("serve/router/failovers") -
                               failovers_before)});
  table.AddRow({"breaker opens",
                std::to_string(CounterValue("serve/router/breaker_opens") -
                               opens_before)});
  table.AddRow({"corrupt-frame retries",
                std::to_string(CounterValue("serve/router/corrupt_retries") -
                               corrupt_before)});
  table.AddRow({"redials",
                std::to_string(CounterValue("serve/router/redials") -
                               redials_before)});
  table.AddRow({"server respawns", std::to_string(sup.value()->restarts())});
  table.Print(std::cout);
  const std::vector<int> kills = sup.value()->kills_observed();
  if (!kills.empty()) {
    std::cout << "kills observed (shard*R+replica):";
    for (int k : kills) std::cout << " " << k;
    std::cout << " — " << sup.value()->restarts() << " respawn(s)\n";
  }
  Status stop = sup.value()->Stop();
  if (!stop.ok()) {
    std::cerr << "serve-bench: stop: " << stop.ToString() << "\n";
    return 1;
  }
  return WriteMetricsSnapshot(flags);
}

/// One shard-server process, hand-launched (what serve::Supervisor forks —
/// also usable standalone against a prepared cell WAL). Blocks until
/// drained, idle-timeout, or error.
int CmdServeWorker(const Flags& flags) {
  serve::ShardServerOptions options;
  options.cell_path = flags.Get("cell");
  if (options.cell_path.empty()) {
    std::cerr << "serve-worker: --cell is required\n";
    return 1;
  }
  auto endpoint = dist::ParseEndpoint(flags.Get("endpoint"));
  if (!endpoint.ok()) {
    std::cerr << "serve-worker: --endpoint: " << endpoint.status().ToString()
              << "\n";
    return 1;
  }
  options.endpoint = endpoint.value();
  options.shard = flags.GetInt("shard", 0);
  options.replica = flags.GetInt("replica", 0);
  // feature_dim comes from the cell WAL at the pinned epoch; only the
  // shape knobs are flag-settable, and they must match the tier's router
  // side (same defaults as ConfigFor) or replica scores diverge.
  options.detector.hidden_dim = flags.GetInt("hidden", 32);
  options.detector.num_layers = flags.GetInt("layers", 2);
  options.model_seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  options.service.deadline_s = flags.GetDouble("deadline-ms", 250.0) * 1e-3;
  options.service.max_inflight = flags.GetInt("max-inflight", 64);
  options.generation = static_cast<uint64_t>(flags.GetInt("generation", 1));
  options.suppress_kill = flags.Has("suppress-kill");
  options.idle_timeout_s = flags.GetDouble("idle-timeout", 600.0);
  auto plan = PlanFromFlags(flags);
  if (!plan.ok()) {
    std::cerr << "serve-worker: " << plan.status().ToString() << "\n";
    return 1;
  }
  options.fault_plan = plan.value();
  auto stats = serve::RunShardServer(options);
  if (!stats.ok()) {
    std::cerr << "serve-worker: " << stats.status().ToString() << "\n";
    return 1;
  }
  std::cout << "serve-worker s" << options.shard << "r" << options.replica
            << ": served " << stats.value().requests_served
            << " request(s), " << stats.value().corrupt_frames_rejected
            << " corrupt frame(s) rejected, "
            << stats.value().deadline_rejects << " deadline reject(s)"
            << (stats.value().drained ? ", drained" : "") << "\n";
  return 0;
}

/// DistWorkerOptions shared by dist-worker and dist-bench --transport
/// socket: both sides of a cluster must derive identical options from
/// identical flags or the replicas diverge at step zero.
dist::DistWorkerOptions WorkerOptionsFromFlags(const data::SimDataset& ds,
                                               const Flags& flags) {
  dist::DistWorkerOptions w;
  w.rank = flags.GetInt("rank", 0);
  w.world = std::max(1, flags.GetInt("workers", 4));
  w.rendezvous = flags.Get("rendezvous");
  w.detector = ConfigFor(ds.graph, flags);
  w.model_seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  w.dist.num_workers = w.world;
  w.dist.num_clusters = flags.GetInt("clusters", 32);
  w.dist.train.max_epochs = flags.GetInt("epochs", 6);
  w.dist.train.patience =
      flags.GetInt("patience", w.dist.train.max_epochs);
  w.dist.train.batch_size = flags.GetInt("batch", 128);
  w.dist.train.lr = 2e-3f;
  w.dist.train.class_weights = {1.0f, 4.0f};
  w.dist.train.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  w.dist.train.num_sample_workers = flags.GetInt("sample-workers", 0);
  w.dist.train.prefetch_depth = flags.GetInt("prefetch", 4);
  w.checkpoint_dir = flags.Get("checkpoint-dir");
  w.suppress_kill = flags.Has("suppress-kill");
  w.op_timeout_s = flags.GetDouble("op-timeout", 60.0);
  return w;
}

/// Per-epoch cost table of a distributed run: measured times only (the
/// per-rank columns are the slowest rank's).
void PrintDistResult(const dist::DistributedResult& result) {
  TablePrinter table({"epoch", "loss", "val auc", "wall (s)", "comm (s)",
                      "sample (s)", "compute (s)", "restart (s)"});
  for (const auto& e : result.history) {
    table.AddRow(
        {std::to_string(e.epoch), TablePrinter::Num(e.train_loss, 4),
         TablePrinter::Num(e.val_auc, 4),
         TablePrinter::Num(e.wall_seconds, 3),
         TablePrinter::Num(e.measured_comm_seconds, 4),
         TablePrinter::Num(e.max_worker_sample_seconds, 3),
         TablePrinter::Num(e.max_worker_compute_seconds, 3),
         e.restarted ? TablePrinter::Num(e.recovery_seconds, 3) : "-"});
  }
  table.Print(std::cout);
  std::cout << "best val AUC " << TablePrinter::Num(result.best_val_auc, 4)
            << ", mean wall epoch "
            << TablePrinter::Num(result.mean_wall_epoch_seconds, 3)
            << "s, edge cut "
            << TablePrinter::Num(result.edge_cut_fraction * 100, 1)
            << "%\npartition nodes:";
  for (int64_t n : result.partition_nodes) std::cout << " " << n;
  std::cout << "\n";
}

int CmdDistWorker(const Flags& flags) {
  auto ds = LoadDataset(flags);
  if (!ds.ok()) {
    std::cerr << "dist-worker: " << ds.status().ToString() << "\n";
    return 1;
  }
  if (!flags.Has("rank")) {
    std::cerr << "dist-worker: --rank is required\n";
    return 1;
  }
  dist::DistWorkerOptions worker = WorkerOptionsFromFlags(ds.value(), flags);
  if (worker.rendezvous.empty()) {
    std::cerr << "dist-worker: --rendezvous is required\n";
    return 1;
  }
  if (worker.checkpoint_dir.empty()) {
    std::cerr << "dist-worker: --checkpoint-dir is required\n";
    return 1;
  }
  auto plan = PlanFromFlags(flags);
  if (!plan.ok()) {
    std::cerr << "dist-worker: " << plan.status().ToString() << "\n";
    return 1;
  }
  worker.dist.fault_plan = plan.value();
  auto result = dist::RunDistWorker(ds.value(), worker);
  if (!result.ok()) {
    std::cerr << "dist-worker: " << result.status().ToString() << "\n";
    return 1;
  }
  if (worker.rank == 0) PrintDistResult(result.value());
  return WriteMetricsSnapshot(flags);
}

int CmdDistBench(const Flags& flags) {
  const std::string transport = flags.Get("transport", "inproc");
  if (transport != "inproc" && transport != "socket") {
    throw FlagError("transport", transport);
  }
  auto ds = LoadDataset(flags);
  if (!ds.ok()) {
    std::cerr << "dist-bench: " << ds.status().ToString() << "\n";
    return 1;
  }
  auto plan = PlanFromFlags(flags);
  if (!plan.ok()) {
    std::cerr << "dist-bench: " << plan.status().ToString() << "\n";
    return 1;
  }
  if (plan.value().any()) {
    std::cout << "fault plan: " << plan.value().ToString() << "\n";
  }

  if (transport == "socket") {
    dist::ProcessClusterOptions cluster;
    cluster.worker = WorkerOptionsFromFlags(ds.value(), flags);
    cluster.worker.dist.fault_plan = plan.value();
    if (cluster.worker.checkpoint_dir.empty()) {
      cluster.worker.checkpoint_dir = "/tmp/xfraud-dist-bench";
    }
    cluster.overall_timeout_s = flags.GetDouble("timeout", 600.0);
    std::cout << "forking " << cluster.worker.world
              << " worker process(es), rendezvous + checkpoints under "
              << cluster.worker.checkpoint_dir << "\n";
    auto report = dist::RunProcessCluster(ds.value(), cluster);
    if (!report.ok()) {
      std::cerr << "dist-bench: " << report.status().ToString() << "\n";
      return 1;
    }
    if (!report.value().kills_observed.empty()) {
      std::cout << "kills observed (rank):";
      for (int r : report.value().kills_observed) std::cout << " " << r;
      std::cout << " — " << report.value().restarts << " restart(s)\n";
    }
    PrintDistResult(report.value().result);
    return WriteMetricsSnapshot(flags);
  }

  // In-process: kappa identically-seeded replicas, one thread each, on a
  // socket ring in a temp dir.
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int kappa = std::max(1, flags.GetInt("workers", 4));
  std::vector<std::unique_ptr<core::XFraudDetector>> replicas;
  std::vector<core::GnnModel*> ptrs;
  for (int w = 0; w < kappa; ++w) {
    Rng rng(seed);
    replicas.push_back(std::make_unique<core::XFraudDetector>(
        ConfigFor(ds.value().graph, flags), &rng));
    ptrs.push_back(replicas.back().get());
  }
  sample::SageSampler sampler(2, 8);
  dist::DistributedOptions options =
      WorkerOptionsFromFlags(ds.value(), flags).dist;
  options.fault_plan = plan.value();
  dist::DistributedTrainer trainer(ptrs, &sampler, options);
  dist::DistributedResult result = trainer.Train(ds.value());
  PrintDistResult(result);
  return WriteMetricsSnapshot(flags);
}

/// A subcommand and every flag it reads, through its helpers included.
/// Main rejects any other flag before the command runs. --trace is read by
/// Main itself, for every command.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::set<std::string> flags;
};

const Command* FindCommand(const std::string& name) {
  static const std::vector<Command> kCommands = {
      {"generate", CmdGenerate, {"out", "scale", "seed"}},
      {"train",
       CmdTrain,
       {"log", "seed", "model", "hidden", "layers", "epochs",
        "sample-workers", "prefetch", "checkpoint-dir", "resume",
        "max-degraded-frac", "fault-plan", "kv-serve", "kv-retries",
        "metrics-out"}},
      {"score",
       CmdScore,
       {"log", "seed", "model", "hidden", "layers", "top", "sample-workers",
        "prefetch", "metrics-out"}},
      {"explain", CmdExplain, {"log", "seed", "model", "hidden", "layers",
                               "txn"}},
      {"serve-bench",
       CmdServeBench,
       {"log", "seed", "model", "hidden", "layers", "transport",
        "virtual-clock", "shards", "replicas", "fault-plan", "shed-policy",
        "deadline-ms", "max-inflight", "max-degraded-frac", "requests",
        "threads", "dir", "metrics-out"}},
      {"serve-worker",
       CmdServeWorker,
       {"cell", "endpoint", "shard", "replica", "hidden", "layers", "seed",
        "deadline-ms", "max-inflight", "generation", "suppress-kill",
        "idle-timeout", "fault-plan"}},
      {"dist-bench",
       CmdDistBench,
       {"log", "seed", "hidden", "layers", "transport", "workers",
        "rendezvous", "clusters", "epochs", "patience", "batch",
        "sample-workers", "prefetch", "checkpoint-dir", "suppress-kill",
        "op-timeout", "timeout", "fault-plan", "metrics-out"}},
      {"dist-worker",
       CmdDistWorker,
       {"log", "seed", "hidden", "layers", "rank", "workers", "rendezvous",
        "clusters", "epochs", "patience", "batch", "sample-workers",
        "prefetch", "checkpoint-dir", "suppress-kill", "op-timeout",
        "fault-plan", "metrics-out"}},
  };
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

int Main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  const Command* command = FindCommand(argv[1]);
  if (command == nullptr) return Usage();
  auto flags = ParseFlags(argc, argv, 2);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return Usage();
  }
  for (const auto& [key, value] : flags.value().values) {
    if (key != "trace" && command->flags.count(key) == 0) {
      std::cerr << "unknown flag --" << key << "\n";
      Usage();
      return 2;
    }
  }
  if (flags.value().Has("trace")) obs::SetTraceLogging(true);
  try {
    return command->run(flags.value());
  } catch (const FlagError& e) {
    std::cerr << e.what() << "\n";
    Usage();
    return 2;
  }
}

}  // namespace
}  // namespace xfraud::cli

int main(int argc, char** argv) { return xfraud::cli::Main(argc, argv); }
