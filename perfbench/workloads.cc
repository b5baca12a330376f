#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "stats.h"
#include "xfraud/xfraud.h"

namespace perfbench {

namespace xf = xfraud;

void Report::Ops(const std::string& kind, int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  Line("ops " + kind + ": attempted " + std::to_string(attempted) +
       ", succeeded " + std::to_string(attempted - failed) + ", failed " +
       std::to_string(failed));
}

void Report::Check(bool ok, const std::string& what) {
  Line(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) failures_.push_back(what);
}

void Report::AddSetup(const std::string& component, double seconds) {
  setup_s_ += seconds;
  std::ostringstream line;
  line << "setup " << component << ": " << seconds << " s";
  Line(line.str());
}

void Report::Line(const std::string& text) { std::cout << text << "\n"; }

namespace {

// Stream tags that split the run seed into independent roots.
constexpr uint64_t kDataTag = 0x44415441;    // "DATA"
constexpr uint64_t kModelTag = 0x4d4f444c;   // "MODL"
constexpr uint64_t kPickTag = 0x5049434b;    // "PICK"
constexpr uint64_t kIngestTag = 0x494e4753;  // "INGS"
constexpr uint64_t kTraceTag = 0x54524345;   // "TRCE"
constexpr uint64_t kTimeTag = 0x54494d45;    // "TIME"

// Every set-up component is measured this many times; the median counts.
constexpr int kSetupRepeats = 3;

// Test AUC floor after the fixed epoch count: a detector that learned
// nothing sits near 0.5.
constexpr double kAucFloor = 0.75;

// Serving: the latency limit of serve_max_rps, the ladder, and the
// tolerance of the backlog rule.
constexpr double kLimitMs = 2.0;
constexpr double kBacklogToleranceMs = 1.0;
constexpr double kLadder[] = {500, 1000, 1500, 2000, 2500, 3000, 4000, 5000};

// Ingest: transactions per published epoch, and the compaction cadence.
constexpr int kTxnsPerEpoch = 100;
constexpr double kCompactEverySeconds = 0.05;

// Rounds of the untraced run, and the shares of --seconds the sections
// size their work to (serving runs a fixed set of windows per round).
constexpr int kRounds = 3;
constexpr double kTrainShare = 0.25;
constexpr double kTrainDistShare = 0.1;
constexpr double kIngestShare = 0.35;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spins until `t`: a sleeping generator lets its CPU halt, and on a
/// virtual machine the wake-up costs tens to hundreds of microseconds
/// depending on host load (see PinToOneCpu).
void SpinUntil(double t) {
  while (Now() < t) {
  }
}

/// Pins the calling thread — and so every process and thread it starts —
/// to one CPU it may run on, the `index`-th from the highest (wrapping),
/// and restores the old mask when destroyed. The serving tier and its
/// single synchronous client never need two CPUs at once, and on one CPU a
/// request hands over between processes without waking a halted virtual
/// CPU, whose cost depends on the host rather than on the program (on a
/// shared 4-vCPU VM, unpinned, the p50 at 1000 req/s moved between 0.29
/// and 0.50 ms from run to run).
class PinToOneCpu {
 public:
  explicit PinToOneCpu(int index) {
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> allowed;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
    }
    if (allowed.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[static_cast<size_t>(index) % allowed.size()], &one);
    pinned_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) (void)::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

std::string Num(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

std::string Nums(const std::vector<double>& values) {
  std::ostringstream out;
  for (double v : values) out << " " << v;
  return out.str();
}

/// The host-speed probe: fixed work the benchmark owns, so no change to
/// the program can move it — a 64x64 single-precision matrix product,
/// repeated, and random 64-float row reads from an 8 MiB table (past the
/// per-core L2, like the program's feature and activation reads). On the
/// shared VM this was built on, other tenants slow the program's
/// arithmetic and memory reads by up to 1.8x from moment to moment, and
/// this probe with them (log-correlation 0.8 with a train step's time); a
/// timing divided by the probes run next to it keeps the program's cost
/// and drops most of the host's.
double ProbeSeconds() {
  constexpr int kN = 64;
  constexpr int kRepeats = 30;
  constexpr size_t kRows = (size_t{8} << 20) / (kN * sizeof(float));
  constexpr int kReads = 10000;
  static float a[kN * kN], b[kN * kN], c[kN * kN];
  static std::vector<float> table;
  if (table.empty()) {
    std::fill(std::begin(a), std::end(a), 1.0f);
    std::fill(std::begin(b), std::end(b), 0.5f);
    table.assign(kRows * kN, 1.0f);
  }
  std::fill(std::begin(c), std::end(c), 0.0f);
  const double t0 = Now();
  for (int r = 0; r < kRepeats; ++r) {
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float v = a[i * kN + k];
        for (int j = 0; j < kN; ++j) c[i * kN + j] += v * b[k * kN + j];
      }
    }
  }
  uint32_t x = 12345;
  for (int r = 0; r < kReads; ++r) {
    x = x * 1664525u + 1013904223u;
    const float* row = &table[((x >> 8) % kRows) * kN];
    for (int j = 0; j < kN; ++j) c[j] += row[j];
  }
  const double seconds = Now() - t0;
  volatile float sink = c[kN + 1] + c[1];
  (void)sink;
  return seconds;
}

// A probed timing is reported as seconds at the speed where the probe
// takes kProbeReferenceS — about what it takes on an uncontended core of
// the 4-vCPU VM this was built on, so the figures read close to a quiet
// host's.
constexpr double kProbeReferenceS = 1.3e-3;

/// `seconds` measured next to probes that took `probe_s`, at the
/// reference speed.
double AtReference(double seconds, double probe_s) {
  return seconds * kProbeReferenceS / probe_s;
}

/// One timed call with a probe before and after it, on one pinned CPU.
struct Probed {
  double seconds = 0.0;
  double probe_s = 0.0;  // mean of the two probes
  double at_reference_s() const { return AtReference(seconds, probe_s); }
};

template <typename Fn>
Probed TimeProbed(Fn&& fn) {
  Probed p;
  const double before = ProbeSeconds();
  const double t0 = Now();
  fn();
  p.seconds = Now() - t0;
  p.probe_s = 0.5 * (before + ProbeSeconds());
  return p;
}

/// The least of repeated figures: the one the host disturbed least.
double Least(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

uint64_t ModelSeed(uint64_t seed) { return xf::Rng::StreamSeed(seed, kModelTag); }

xf::core::DetectorConfig ModelConfig(int64_t feature_dim) {
  xf::core::DetectorConfig c;
  c.feature_dim = feature_dim;
  c.hidden_dim = 32;
  c.num_heads = 4;
  c.num_layers = 2;
  c.dropout = 0.2f;
  return c;
}

xf::train::TrainOptions TrainProtocol(uint64_t seed, int epochs) {
  xf::train::TrainOptions opts;
  opts.max_epochs = epochs;
  opts.patience = epochs;  // fixed epoch count
  opts.batch_size = 256;
  opts.lr = 2e-3f;
  opts.clip = 0.25f;
  opts.class_weights = {1.0f, 4.0f};
  opts.seed = seed;
  opts.num_sample_workers = 0;
  return opts;
}

/// Median self time of a traced layer, in milliseconds (0 if absent).
double SelfMs(const std::map<std::string, Tracer::Layer>& layers,
              const std::string& name) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : Median(it->second.self_s) * 1e3;
}

double SumSelfMs(const std::map<std::string, Tracer::Layer>& layers,
                 const std::string& name) {
  auto it = layers.find(name);
  if (it == layers.end()) return 0.0;
  double sum = 0.0;
  for (double s : it->second.self_s) sum += s;
  return sum * 1e3;
}

/// Computed (not counted) floating-point operations of one detector
/// forward: the GEMM terms plus the per-edge attention, from the batch
/// shapes. A multiply-add counts as two.
double ForwardFlops(const xf::sample::MiniBatch& b,
                    const xf::core::DetectorConfig& c) {
  const double n = static_cast<double>(b.num_nodes());
  const double e = static_cast<double>(b.num_edges());
  const double t = static_cast<double>(b.target_locals.size());
  const double f = static_cast<double>(c.feature_dim);
  const double d = static_cast<double>(c.hidden_dim);
  double flops = 2.0 * n * f * d;  // input projection
  // Per layer: typed Q over nodes, typed K and V over edges, two dot
  // products per edge and head for the score, weighting + scatter-add.
  flops += c.num_layers * (2.0 * n * d * d + 4.0 * e * d * d + 6.0 * e * d);
  // Head: (hidden + features) -> hidden -> hidden -> 2.
  flops += 2.0 * t * ((d + f) * d + d * d + 2.0 * d);
  return flops;
}

double HistogramMeanMs(const char* name) {
  return xf::obs::Registry::Global().histogram(name)->Snapshot().mean * 1e3;
}

int64_t CounterValue(const char* name) {
  return xf::obs::Registry::Global().counter(name)->value();
}

}  // namespace

// ---------------------------------------------------------------------------
// Inputs

Inputs MakeInputs(const RunOptions& options, Report* report) {
  Inputs in;
  in.config = xf::data::TransactionGenerator::SimSmall();
  in.config.seed = xf::Rng::StreamSeed(options.seed, kDataTag);
  in.config.feature_dim = options.feature_dim;
  const PinToOneCpu pin(0);
  std::vector<double> setup;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Probed t = TimeProbed([&] {
      in.ds = xf::data::TransactionGenerator::Make(in.config, "perfbench");
    });
    setup.push_back(t.at_reference_s());
  }
  report->AddSetup("data generation + graph build", Median(setup));
  report->Line("data: " + std::to_string(in.ds.graph.num_nodes()) +
               " nodes, " + std::to_string(in.ds.train_nodes.size()) + "/" +
               std::to_string(in.ds.val_nodes.size()) + "/" +
               std::to_string(in.ds.test_nodes.size()) +
               " train/val/test transactions");
  return in;
}

// ---------------------------------------------------------------------------
// train: Trainer::Train + Trainer::Evaluate in this process.

namespace {

// Cost of one epoch on a loaded 4-vCPU VM, used only to turn the time
// share into a fixed number of timed passes per dataset and round.
constexpr double kTrainEpochEstimateS = 1.3;
// Trainer::Train epochs per round; test_auc is taken after kRounds of them.
constexpr int kTrainEpochsPerRound = 1;
// Evaluate calls timed after each timed pass. A call is two forward
// batches, so its figure rests on far fewer timed steps than an epoch's.
constexpr int kEvalsPerPass = 3;
// Epochs per side of the traced run's traced/untraced comparison.
constexpr int kTracedEpochs = 2;

void TraceTrain(const RunOptions& options, const Inputs& in, Tracer* tracer,
                Report* report) {
  const xf::graph::HeteroGraph& g = in.ds.graph;
  const xf::core::DetectorConfig config = ModelConfig(g.feature_dim());
  const xf::train::TrainOptions protocol = TrainProtocol(options.seed, 1);
  xf::sample::SageSampler sampler(2, 12);
  xf::obs::Registry::Global().Reset();

  std::vector<int32_t> order = in.ds.train_nodes;
  xf::Rng shuffle(xf::Rng::StreamSeed(options.seed, kTraceTag));
  shuffle.Shuffle(&order);
  const std::vector<std::vector<int32_t>> seeds =
      xf::sample::BatchLoader::MakeSeedBatches(order, protocol.batch_size);

  // One epoch of sample + Trainer::TrainStep, untraced and then traced on
  // an identical model and identical batches, so the difference is the
  // tracing overhead.
  std::vector<double> batch_nodes, batch_edges;
  auto epoch = [&](Tracer* t) {
    xf::Rng init(ModelSeed(options.seed));
    xf::core::XFraudDetector model(config, &init);
    xf::train::Trainer trainer(&model, &sampler, protocol);
    xf::Rng rng(xf::Rng::StreamSeed(options.seed, kTraceTag + 1));
    const double t0 = Now();
    Tracer::Scope span(t, "train.epoch", 0);
    for (size_t i = 0; i < seeds.size(); ++i) {
      xf::sample::MiniBatch batch;
      {
        Tracer::Scope s(t, "sample", static_cast<int64_t>(i));
        batch = sampler.SampleBatch(g, seeds[i], &rng);
      }
      if (t != nullptr) {
        batch_nodes.push_back(static_cast<double>(batch.num_nodes()));
        batch_edges.push_back(static_cast<double>(batch.num_edges()));
      }
      Tracer::Scope s(t, "train.step", static_cast<int64_t>(i));
      trainer.TrainStep(batch);
    }
    span.End();
    return Now() - t0;
  };
  // Alternating, so neither side gets the cold first epoch to itself.
  std::vector<double> untraced_epochs, traced_epochs;
  for (int r = 0; r < kTracedEpochs; ++r) {
    untraced_epochs.push_back(epoch(nullptr));
    traced_epochs.push_back(epoch(tracer));
  }
  const double untraced_s = Median(untraced_epochs);
  const double traced_s = Median(traced_epochs);

  // The same step split from outside into forward, backward and the
  // optimizer, on a replica of Trainer::TrainStep (same ops, own RNG).
  std::vector<double> flops;
  {
    xf::Rng init(ModelSeed(options.seed));
    xf::core::XFraudDetector model(config, &init);
    xf::nn::AdamW optimizer(model.Parameters(),
                            xf::nn::AdamWOptions{.lr = protocol.lr,
                                                 .weight_decay =
                                                     protocol.weight_decay});
    xf::Rng rng(xf::Rng::StreamSeed(options.seed, kTraceTag + 1));
    xf::Rng dropout(xf::Rng::StreamSeed(options.seed, kTraceTag + 2));
    for (size_t i = 0; i < seeds.size(); ++i) {
      const xf::sample::MiniBatch batch =
          sampler.SampleBatch(g, seeds[i], &rng);
      flops.push_back(ForwardFlops(batch, config));
      Tracer::Scope step(tracer, "bench.step", static_cast<int64_t>(i));
      xf::core::ForwardOptions fwd;
      fwd.training = true;
      fwd.rng = &dropout;
      Tracer::Scope forward(tracer, "core.forward", static_cast<int64_t>(i));
      xf::nn::Var logits = model.Forward(batch, fwd);
      xf::nn::Var loss = xf::nn::CrossEntropy(logits, batch.target_labels,
                                              protocol.class_weights);
      forward.End();
      {
        Tracer::Scope backward(tracer, "nn.backward",
                               static_cast<int64_t>(i));
        optimizer.ZeroGrad();
        loss.Backward();
      }
      Tracer::Scope optim(tracer, "nn.optim", static_cast<int64_t>(i));
      optimizer.ClipGradNorm(protocol.clip);
      optimizer.Step();
    }

    // Inference forward over the test split in Evaluate's 640-node batches.
    const std::vector<std::vector<int32_t>> eval_seeds =
        xf::sample::BatchLoader::MakeSeedBatches(in.ds.test_nodes, 640);
    for (size_t i = 0; i < eval_seeds.size(); ++i) {
      const xf::sample::MiniBatch batch =
          sampler.SampleBatch(g, eval_seeds[i], &rng);
      Tracer::Scope s(tracer, "core.eval_forward", static_cast<int64_t>(i));
      (void)model.Forward(batch, xf::core::ForwardOptions{});
    }
  }

  const auto layers = tracer->Layers();
  report->Set("sample.sample_ms", SelfMs(layers, "sample"), "ms");
  report->Set("sample.batch_nodes", Mean(batch_nodes), "count");
  report->Set("sample.batch_edges", Mean(batch_edges), "count");
  report->Set("train.step_ms", SelfMs(layers, "train.step"), "ms");
  report->Set("core.forward_ms", SelfMs(layers, "core.forward"), "ms");
  report->Set("core.forward_flops", Mean(flops), "flop");
  report->Set("nn.backward_ms", SelfMs(layers, "nn.backward"), "ms");
  report->Set("nn.optim_ms", SelfMs(layers, "nn.optim"), "ms");
  report->Set("core.eval_forward_ms", SelfMs(layers, "core.eval_forward"),
              "ms");
  // Trainer::TrainStep's own phase histograms (means; recorded by the
  // traced and untraced epochs above).
  report->Set("obs.trainer_forward_ms", HistogramMeanMs("trainer/forward_s"),
              "ms");
  report->Set("obs.trainer_backward_ms",
              HistogramMeanMs("trainer/backward_s"), "ms");
  report->Set("obs.trainer_optim_ms", HistogramMeanMs("trainer/optim_s"),
              "ms");
  // Blocking steps of an epoch: sampling and the train step, one after
  // the other. Their self times plus the epoch span's own self time make
  // the traced epoch; the untraced epoch differs by the tracing overhead.
  const double blocking_ms =
      (SumSelfMs(layers, "sample") + SumSelfMs(layers, "train.step")) /
      kTracedEpochs;
  report->Set("train.untraced_epoch_ms", untraced_s * 1e3, "ms");
  report->Set("trace.train_blocking_ms", blocking_ms, "ms");
  report->Set("trace.train_overhead_ms", (traced_s - untraced_s) * 1e3,
              "ms");
  report->Line("trace train: untraced epoch " + Num(untraced_s * 1e3) +
               " ms, traced " + Num(traced_s * 1e3) +
               " ms, blocking self times " + Num(blocking_ms) + " ms");
  report->Ops("train.steps",
              static_cast<int64_t>((2 * kTracedEpochs + 1) * seeds.size()), 0);
}

/// Single-process training in rounds. Each round trains one model on
/// with Trainer::Train (the same epochs each round, so test_auc is a
/// function of the seed), then times passes over one fixed epoch of
/// batches of each timed dataset — sampling plus Trainer::TrainStep per
/// batch, on a second model from the same seed — and Trainer::Evaluate on
/// its test split, each call between two probes on one pinned CPU. Per
/// dataset, the epoch sums each batch's median over its passes and the
/// eval figure is the median of its calls; train_epoch_s and eval_batch_s
/// are their means over the datasets, at the probe's reference speed.
/// Finish retrains the first round from the same seed and requires the
/// same losses bit for bit.
class TrainRounds {
 public:
  TrainRounds(const RunOptions& options, const Inputs& in)
      : options_(options),
        in_(in),
        config_(ModelConfig(in.ds.graph.feature_dim())),
        sampler_(2, 12),
        init_(ModelSeed(options.seed)),
        model_(config_, &init_),
        trainer_(&model_, &sampler_,
                 TrainProtocol(options.seed, kTrainEpochsPerRound)),
        timed_init_(ModelSeed(options.seed)),
        timed_model_(config_, &timed_init_),
        timed_trainer_(&timed_model_, &sampler_,
                       TrainProtocol(options.seed, 1)),
        passes_per_round_(std::max(
            1, static_cast<int>(std::lround(
                   options.seconds * kTrainShare / kTrainEpochEstimateS /
                   kRounds / kTimedDatasets)))) {
    extra_.reserve(kTimedDatasets - 1);
    for (int k = 0; k < kTimedDatasets; ++k) {
      xf::data::GeneratorConfig config = in.config;
      if (k > 0) {
        config.seed = xf::Rng::StreamSeed(options.seed, kDataTag + k);
        extra_.push_back(
            xf::data::TransactionGenerator::Make(config, "perfbench"));
      }
      Timed t;
      t.ds = k == 0 ? &in.ds : &extra_.back();
      std::vector<int32_t> order = t.ds->train_nodes;
      xf::Rng shuffle(xf::Rng::StreamSeed(options.seed, kTimeTag + k));
      shuffle.Shuffle(&order);
      t.batches = xf::sample::BatchLoader::MakeSeedBatches(
          order, TrainProtocol(options.seed, 1).batch_size);
      t.step_s.resize(t.batches.size());
      timed_.push_back(std::move(t));
    }
  }

  void Round(int round, Report* report) {
    const xf::train::TrainResult result = trainer_.Train(in_.ds);
    if (!result.error.ok()) {
      report->Check(false, "train: Trainer::Train " + result.error.ToString());
    }
    for (const auto& e : result.history) {
      epoch_s_.push_back(e.seconds);
      if (first_losses_.size() < static_cast<size_t>(kTrainEpochsPerRound)) {
        first_losses_.push_back(e.train_loss);
      }
    }
    steps_ += result.total_batches;
    degraded_ += result.degraded_batches;

    const PinToOneCpu pin(round);
    for (int p = 0; p < passes_per_round_; ++p) {
      for (size_t k = 0; k < timed_.size(); ++k) Pass(k);
    }
    last_eval_ = trainer_.Evaluate(in_.ds.graph, in_.ds.test_nodes, 640);
  }

  void Finish(Report* report) {
    // The repeat: a fresh model from the same seed retrains round one.
    xf::Rng init(ModelSeed(options_.seed));
    xf::core::XFraudDetector again(config_, &init);
    xf::train::Trainer trainer(&again, &sampler_,
                               TrainProtocol(options_.seed,
                                             kTrainEpochsPerRound));
    const xf::train::TrainResult repeat = trainer.Train(in_.ds);
    std::vector<double> losses;
    for (const auto& e : repeat.history) losses.push_back(e.train_loss);
    report->Check(repeat.error.ok() && losses == first_losses_,
                  "train: a retrained first round reproduces its " +
                      std::to_string(first_losses_.size()) +
                      " epoch losses bit for bit");
    steps_ += repeat.total_batches;
    degraded_ += repeat.degraded_batches;

    const double auc = last_eval_.auc;
    report->Check(auc >= kAucFloor, "train: test AUC " + Num(auc) +
                                        " >= " + Num(kAucFloor));
    std::vector<double> epoch_s, eval_s;
    for (const Timed& t : timed_) {
      double sum = 0.0;
      for (const std::vector<double>& s : t.step_s) sum += Median(s);
      epoch_s.push_back(sum);
      eval_s.push_back(Median(t.eval_s));
    }
    report->Line("train: Trainer::Train epochs" + Nums(epoch_s_) +
                 " s; timed passes" + Nums(pass_s_) + " s; probe median " +
                 Num(Median(probe_s_) * 1e3) + " ms, least " +
                 Num(Least(probe_s_) * 1e3) +
                 " ms; per dataset at the reference speed: epoch" +
                 Nums(epoch_s) + " s, eval per batch" + Nums(eval_s) + " s");
    report->Set("train_epoch_s", Mean(epoch_s), "s");
    report->Set("eval_batch_s", Mean(eval_s), "s");
    report->Set("test_auc", auc, "auc");
    report->Ops("train.steps", steps_, degraded_);
    report->Ops("train.eval_batches", eval_batches_, 0);
  }

 private:
  // Epoch cost follows the generated graph: between seeds, the sampled
  // neighbourhoods of one epoch differ by up to 18% in computed work. The
  // timed passes therefore run over the run's own dataset and four more
  // generated from its seed, and report the mean.
  static constexpr int kTimedDatasets = 5;

  struct Timed {
    const xf::data::SimDataset* ds = nullptr;
    std::vector<std::vector<int32_t>> batches;  // one epoch's seed batches
    std::vector<std::vector<double>> step_s;   // per batch, per pass
    std::vector<double> eval_s;                 // per Evaluate call
  };

  /// One timed pass over dataset k, then kEvalsPerPass timed evaluations.
  void Pass(size_t k) {
    Timed& t = timed_[k];
    const xf::graph::HeteroGraph& g = t.ds->graph;
    double pass_s = 0.0;
    for (size_t b = 0; b < t.batches.size(); ++b) {
      xf::Rng rng(xf::Rng::StreamSeed(
          xf::Rng::StreamSeed(options_.seed, kTimeTag + k), b));
      const Probed step = TimeProbed([&] {
        (void)timed_trainer_.TrainStep(
            sampler_.SampleBatch(g, t.batches[b], &rng));
      });
      t.step_s[b].push_back(step.at_reference_s());
      pass_s += step.seconds;
      probe_s_.push_back(step.probe_s);
    }
    pass_s_.push_back(pass_s);
    steps_ += static_cast<int64_t>(t.batches.size());
    for (int e = 0; e < kEvalsPerPass; ++e) {
      xf::train::EvalResult eval;
      const Probed call = TimeProbed(
          [&] { eval = trainer_.Evaluate(g, t.ds->test_nodes, 640); });
      t.eval_s.push_back(AtReference(eval.secs_per_batch_mean, call.probe_s));
      eval_batches_ +=
          static_cast<int64_t>((t.ds->test_nodes.size() + 639) / 640);
    }
  }

  const RunOptions& options_;
  const Inputs& in_;
  const xf::core::DetectorConfig config_;
  xf::sample::SageSampler sampler_;
  xf::Rng init_;
  xf::core::XFraudDetector model_;
  xf::train::Trainer trainer_;  // Trainer::Train; test_auc
  xf::Rng timed_init_;
  xf::core::XFraudDetector timed_model_;
  xf::train::Trainer timed_trainer_;  // the timed passes
  const int passes_per_round_;
  std::vector<xf::data::SimDataset> extra_;  // timed datasets after in.ds
  std::vector<Timed> timed_;
  std::vector<double> epoch_s_, pass_s_, probe_s_, first_losses_;
  xf::train::EvalResult last_eval_;
  int64_t steps_ = 0, degraded_ = 0, eval_batches_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// train_dist: dist::RunProcessCluster over SocketCommunicator, κ = 4.

namespace {

constexpr int kWorld = 4;
// Epochs of every relaunch after the first.
constexpr int kDistRepeatEpochs = 3;
// Wall time of one epoch plus its share of the launch on a 4-vCPU VM, used
// only to turn the time share into a fixed epoch count.
constexpr double kDistEpochEstimateS = 0.4;

struct ClusterRun {
  xf::dist::ProcessClusterReport report;
  double launch_s = 0.0;  // wall time outside the epochs
  bool ok = false;
  std::string error;
};

ClusterRun LaunchCluster(const RunOptions& options, const Inputs& in,
                         int epochs, const std::string& tag) {
  xf::dist::ProcessClusterOptions cluster;
  xf::dist::DistWorkerOptions& w = cluster.worker;
  w.world = kWorld;
  w.detector = ModelConfig(in.ds.graph.feature_dim());
  w.model_seed = ModelSeed(options.seed);
  w.dist.num_workers = kWorld;
  w.dist.train = TrainProtocol(options.seed, epochs);
  w.sampler_hops = 2;
  w.sampler_fanout = 12;
  w.checkpoint_dir = options.work_dir + "/dist-" + tag;
  cluster.max_restarts_per_rank = 0;
  cluster.overall_timeout_s = 120.0;
  std::filesystem::remove_all(w.checkpoint_dir);

  ClusterRun run;
  const double t0 = Now();
  auto report = xf::dist::RunProcessCluster(in.ds, cluster);
  const double wall = Now() - t0;
  std::filesystem::remove_all(w.checkpoint_dir);
  if (!report.ok()) {
    run.error = report.status().ToString();
    return run;
  }
  run.report = std::move(report).value();
  run.ok = true;
  double epochs_s = 0.0;
  for (const auto& e : run.report.result.history) epochs_s += e.wall_seconds;
  run.launch_s = wall - epochs_s;
  return run;
}

/// Epochs of a first launch: enough for a settled validation AUC.
int FirstDistEpochs(const RunOptions& options) {
  return std::max(kDistRepeatEpochs,
                  static_cast<int>(std::lround(
                      options.seconds * kTrainDistShare / kDistEpochEstimateS)));
}

/// Multi-process training in rounds: every round launches a fresh κ=4
/// cluster from the same seed. Round one trains long enough for a settled
/// validation AUC; the later rounds train kDistRepeatEpochs epochs, which
/// must reproduce round one's cluster losses exactly.
class DistRounds {
 public:
  DistRounds(const RunOptions& options, const Inputs& in)
      : options_(options),
        in_(in),
        first_epochs_(FirstDistEpochs(options)) {}

  void Round(Report* report) {
    const bool first = launch_s_.empty();
    const int epochs = first ? first_epochs_ : kDistRepeatEpochs;
    ClusterRun run = LaunchCluster(options_, in_, epochs,
                                   std::to_string(launch_s_.size()));
    report->Check(run.ok, "train_dist: cluster of " + std::to_string(kWorld) +
                              " ranks finished " + run.error);
    attempted_ += epochs;
    if (!run.ok) {
      failed_ += epochs;
      return;
    }
    const xf::dist::DistributedResult& r = run.report.result;
    failed_ += epochs - static_cast<int64_t>(r.history.size());
    restarts_ += run.report.restarts;
    launch_s_.push_back(run.launch_s);
    std::vector<double> epoch_s;
    for (const auto& e : r.history) epoch_s.push_back(e.wall_seconds);
    round_epoch_s_.push_back(Median(epoch_s));
    epoch_s_.insert(epoch_s_.end(), epoch_s.begin(), epoch_s.end());
    if (first) {
      first_ = r;
      return;
    }
    bool same = r.history.size() <= first_.history.size();
    for (size_t i = 0; same && i < r.history.size(); ++i) {
      same = r.history[i].train_loss == first_.history[i].train_loss;
    }
    report->Check(same, "train_dist: a relaunched cluster reproduces the "
                        "first " +
                            std::to_string(r.history.size()) +
                            " epoch losses exactly");
  }

  void Finish(Report* report) {
    if (round_epoch_s_.empty()) return;
    std::vector<double> comm_s;
    for (const auto& e : first_.history) {
      comm_s.push_back(e.measured_comm_seconds);
    }
    report->Line("train_dist: " + std::to_string(first_epochs_) + "+" +
                 std::to_string(kDistRepeatEpochs) + "x" +
                 std::to_string(round_epoch_s_.size() - 1) +
                 " epochs at kappa=" + std::to_string(kWorld) +
                 ", median epoch per round " + Nums(round_epoch_s_) +
                 " s, epochs" + Nums(epoch_s_) + " s (median " +
                 Num(Median(epoch_s_)) + "), comm " + Num(Median(comm_s)) +
                 " s per epoch; launch" + Nums(launch_s_) + " s");
    report->Set("dist_val_auc", first_.best_val_auc, "auc");
    report->Ops("train_dist.epochs", attempted_, failed_);
    report->Ops("train_dist.rank_restarts",
                static_cast<int64_t>(kWorld * launch_s_.size()), restarts_);
  }

 private:
  const RunOptions& options_;
  const Inputs& in_;
  const int first_epochs_;
  xf::dist::DistributedResult first_;
  std::vector<double> round_epoch_s_, epoch_s_, launch_s_;
  int64_t attempted_ = 0, failed_ = 0, restarts_ = 0;
};

void TraceDist(const RunOptions& options, const Inputs& in, Tracer* tracer,
               Report* report) {
  const int epochs = FirstDistEpochs(options);
  Tracer::Scope span(tracer, "dist.cluster", 0);
  ClusterRun run = LaunchCluster(options, in, epochs, "traced");
  span.End();
  report->Check(run.ok, "train_dist: cluster finished " + run.error);
  if (!run.ok) return;
  const xf::dist::DistributedResult& r = run.report.result;
  std::vector<double> epoch_s, comm_s, compute_s, sample_s;
  for (const auto& e : r.history) {
    epoch_s.push_back(e.wall_seconds);
    comm_s.push_back(e.measured_comm_seconds);
    compute_s.push_back(e.max_worker_compute_seconds);
    sample_s.push_back(e.max_worker_sample_seconds);
  }
  double mean_nodes = 0.0, max_nodes = 0.0;
  for (int64_t n : r.partition_nodes) {
    mean_nodes += static_cast<double>(n);
    max_nodes = std::max(max_nodes, static_cast<double>(n));
  }
  mean_nodes /= static_cast<double>(std::max<size_t>(1, r.partition_nodes.size()));
  report->Set("dist.epoch_s", Median(epoch_s), "s");
  report->Set("dist.comm_s", Median(comm_s), "s");
  report->Set("dist.compute_s", Median(compute_s), "s");
  report->Set("dist.sample_s", Median(sample_s), "s");
  report->Set("dist.edge_cut_frac", r.edge_cut_fraction, "ratio");
  report->Set("dist.partition_imbalance",
              mean_nodes > 0.0 ? max_nodes / mean_nodes : 0.0, "ratio");
  report->Set("dist.launch_s", run.launch_s, "s");
  report->Ops("train_dist.epochs", epochs,
              epochs - static_cast<int64_t>(r.history.size()));
}

}  // namespace

// ---------------------------------------------------------------------------
// serve: serve::Supervisor (2 shards x 1 replica) behind one Router, driven
// by an open loop.

namespace {

// Requests per open-loop window: enough that the window's p99 has ten
// samples beyond it.
constexpr int64_t kWindowRequests = 1000;
// Windows per round at each reported rate, and per ladder rate.
constexpr int kWindowsPerRound = 2;
constexpr int kLadderWindows = 3;
// The high load point as a share of closed-loop capacity.
constexpr double kHighLoad = 0.75;

struct Tier {
  std::unique_ptr<xf::serve::Supervisor> supervisor;
  double start_s = 0.0;  // at the probe's reference speed
};

xf::serve::ServiceOptions ServeOptions() {
  xf::serve::ServiceOptions service;
  service.deadline_s = 1.0;
  return service;
}

Tier StartTier(const RunOptions& options, const Inputs& in,
               const std::string& dir, Report* report) {
  xf::serve::SupervisorOptions sup;
  sup.dir = dir;
  sup.num_shards = 2;
  sup.num_replicas = 1;
  sup.detector = ModelConfig(in.ds.graph.feature_dim());
  sup.model_seed = ModelSeed(options.seed);
  sup.service = ServeOptions();
  std::filesystem::remove_all(dir);
  Tier tier;
  // One probe, before: the forked servers replay their WAL on this CPU
  // right after Start returns, and would slow a probe after it.
  const double probe_s = ProbeSeconds();
  const double t0 = Now();
  auto started = xf::serve::Supervisor::Start(in.ds.graph, sup);
  tier.start_s = AtReference(Now() - t0, probe_s);
  if (started.ok()) {
    tier.supervisor = std::move(started).value();
  } else {
    report->Check(false, "serve: supervisor start " +
                             started.status().ToString());
  }
  return tier;
}

void StopTier(Tier* tier, const std::string& dir, Report* report) {
  if (tier->supervisor == nullptr) return;
  xf::Status s = tier->supervisor->Stop();
  if (!s.ok() || tier->supervisor->restarts() != 0) {
    report->Check(false, "serve: supervisor drained with no restarts " +
                             s.ToString());
  }
  tier->supervisor.reset();
  std::filesystem::remove_all(dir);
}

/// The open-loop generator over one Router. Request i of a window is due
/// at t0 + i / rate and carries request id i and node picks[i]; latency
/// runs from the due time. Every successful score is kept per request id
/// in `scores` and must be equal whenever the id repeats, across windows,
/// rates and restarted tiers.
class OpenLoop {
 public:
  OpenLoop(xf::serve::Router* router, const std::vector<int32_t>* picks,
           std::vector<double>* scores)
      : router_(router), picks_(picks), scores_(scores) {}

  OpenLoopStats Window(double rate, int64_t n, Tracer* tracer) {
    std::vector<OpenLoopRequest> requests(static_cast<size_t>(n));
    const double t0 = Now() + 1e-3;
    for (int64_t i = 0; i < n; ++i) {
      OpenLoopRequest& r = requests[static_cast<size_t>(i)];
      r.due_s = t0 + static_cast<double>(i) / rate;
      SpinUntil(r.due_s);
      r.send_s = Now();
      Tracer::Scope span(tracer, "serve.router_score", i);
      auto resp = router_->Score(i, (*picks_)[static_cast<size_t>(i)]);
      span.End();
      r.done_s = Now();
      r.ok = resp.ok();
      if (!r.ok) continue;
      double& seen = (*scores_)[static_cast<size_t>(i)];
      if (std::isnan(seen)) {
        seen = resp.value().score;
      } else if (seen != resp.value().score) {
        ++mismatches_;
      }
    }
    OpenLoopStats stats = AccountOpenLoop(requests);
    attempted_ += stats.attempted;
    failed_ += stats.failed;
    return stats;
  }

  /// Closed-loop capacity: requests sent back to back, per second.
  double Capacity() {
    const double t0 = Now();
    (void)Window(1e12, kWindowRequests, nullptr);
    return static_cast<double>(kWindowRequests) / (Now() - t0);
  }

  int64_t mismatches() const { return mismatches_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  xf::serve::Router* router_;
  const std::vector<int32_t>* picks_;
  std::vector<double>* scores_;  // NaN = not seen yet
  int64_t mismatches_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// The high load point: kHighLoad of the tier's closed-loop capacity,
/// measured in this run, to 10 req/s. A fixed rate would sit below the
/// knee when the host is quiet and past it when the host is busy, where a
/// p99 flips between 1 ms and 50 ms.
double HighRate(OpenLoop* loop) {
  return std::round(kHighLoad * loop->Capacity() / 10.0) * 10.0;
}

std::vector<double> WindowP99s(const std::vector<OpenLoopStats>& windows) {
  std::vector<double> p99s;
  for (const OpenLoopStats& w : windows) {
    p99s.push_back(TailAt(w.limit_ms).value);
  }
  std::sort(p99s.begin(), p99s.end());
  return p99s;
}

/// Host pre-emption on a shared VM stalls a vCPU for 10-50 ms every few
/// seconds and ruins the p99 of whichever window it lands in, so a tail
/// figure is the second-best window: one clean window is not enough to
/// look good, one stalled window is not enough to look bad.
double SecondBest(const std::vector<double>& sorted) {
  return sorted.size() > 1 ? sorted[1] : sorted.empty() ? 0.0 : sorted[0];
}

std::vector<double> AllLatencyMs(const std::vector<OpenLoopStats>& windows) {
  std::vector<double> all;
  for (const OpenLoopStats& w : windows) {
    all.insert(all.end(), w.latency_ms.begin(), w.latency_ms.end());
  }
  return all;
}

/// serve_max_rps's ladder, from the top down: the first rate where at
/// least two of kLadderWindows windows meet the limit.
double MaxRate(OpenLoop* loop, Report* report) {
  for (auto it = std::rbegin(kLadder); it != std::rend(kLadder); ++it) {
    int passing = 0, failing = 0;
    std::vector<double> p99s;
    while (passing < 2 && kLadderWindows - failing >= 2) {
      const OpenLoopStats w = loop->Window(*it, kWindowRequests, nullptr);
      if (StepMeetsLimit(w, kLimitMs, kBacklogToleranceMs)) {
        ++passing;
      } else {
        ++failing;
      }
      p99s.push_back(TailAt(w.limit_ms).value);
    }
    report->Line("serve ladder " + Num(*it) + " req/s: window p99s" + Nums(p99s) +
                 " ms" + (passing >= 2 ? ", meets" : ", misses") + " the " +
                 Num(kLimitMs) + " ms limit");
    if (passing >= 2) return *it;
  }
  return 0.0;
}

/// The in-process reference of the tier: the same graph in its own WAL
/// cell, the same model seed and service options, at the same epoch.
struct Reference {
  std::unique_ptr<xf::kv::LogKvStore> store;
  std::unique_ptr<xf::kv::FeatureStore> features;
  std::unique_ptr<xf::core::XFraudDetector> model;
  std::unique_ptr<xf::serve::ScoringService> service;
  uint64_t epoch = 0;
};

/// Opens the in-process reference in `dir`; null, with a failed check, if
/// it cannot be opened.
std::unique_ptr<Reference> OpenReference(const RunOptions& options,
                                         const Inputs& in,
                                         const std::string& dir,
                                         Report* report) {
  std::filesystem::create_directories(dir);
  auto ref = std::make_unique<Reference>();
  auto store = xf::kv::LogKvStore::Open(dir + "/ref.log");
  bool ok = store.ok();
  if (ok) {
    ref->store = std::move(store).value();
    ref->features = std::make_unique<xf::kv::FeatureStore>(ref->store.get());
    ok = ref->features->Ingest(in.ds.graph).ok();
  }
  if (ok) {
    auto epoch = ref->store->PublishEpoch();
    ok = epoch.ok();
    if (ok) ref->epoch = epoch.value();
  }
  if (!ok) {
    report->Check(false, "serve: open the in-process reference");
    return nullptr;
  }
  xf::Rng init(ModelSeed(options.seed));
  ref->model = std::make_unique<xf::core::XFraudDetector>(
      ModelConfig(in.ds.graph.feature_dim()), &init);
  ref->service = std::make_unique<xf::serve::ScoringService>(
      ref->model.get(), ref->features.get(), ServeOptions());
  return ref;
}

/// Checks every socket score against in-process ScoreAt at the same
/// request id, node and epoch; times the in-process path (whole, and split
/// into the KV load and the forward) when traced.
void VerifyAgainstReference(const Reference& ref,
                            const std::vector<int32_t>& picks,
                            const std::vector<double>& scores,
                            int64_t mismatches, uint64_t epoch,
                            Tracer* tracer, Report* report,
                            std::vector<double>* batch_nodes) {
  report->Check(ref.epoch == epoch,
                "serve: in-process reference at the serving epoch");
  int64_t compared = 0;
  const xf::serve::ServiceOptions service = ServeOptions();
  for (size_t i = 0; i < scores.size(); ++i) {
    if (std::isnan(scores[i])) continue;
    const int64_t id = static_cast<int64_t>(i);
    {
      Tracer::Scope s(tracer, "serve.score_at", id);
      auto resp = ref.service->ScoreAt(id, picks[i], 0.0, ref.epoch);
      if (!resp.ok() || resp.value().score != scores[i]) ++mismatches;
    }
    ++compared;
    if (tracer == nullptr) continue;
    xf::Rng rng(xf::Rng::StreamSeed(service.seed, static_cast<uint64_t>(id)));
    Tracer::Scope s(tracer, "kv.load_batch", id);
    auto batch = ref.features->LoadBatch({picks[i]}, service.hops,
                                         service.fanout, &rng, ref.epoch);
    s.End();
    if (!batch.ok()) continue;
    batch_nodes->push_back(static_cast<double>(batch.value().num_nodes()));
    Tracer::Scope f(tracer, "core.serve_forward", id);
    (void)ref.model->Forward(batch.value(), xf::core::ForwardOptions{});
  }
  report->Check(mismatches == 0 && compared > 0,
                "serve: " + std::to_string(compared) +
                    " distinct socket scores bit-equal to in-process "
                    "ScoreAt (" +
                    std::to_string(mismatches) + " mismatches)");
}

std::vector<int32_t> DrawPicks(const RunOptions& options, const Inputs& in) {
  xf::Rng rng(xf::Rng::StreamSeed(options.seed, kPickTag));
  std::vector<int32_t> picks(static_cast<size_t>(kWindowRequests));
  for (int32_t& p : picks) {
    p = in.ds.test_nodes[rng.NextBounded(in.ds.test_nodes.size())];
  }
  return picks;
}

/// The serving tier in rounds: each round starts a tier (a set-up sample),
/// measures its closed-loop capacity, and runs kWindowsPerRound windows at
/// 1000 req/s and at the high point. Once the tier has stopped, the round
/// times the same requests through in-process ScoreAt on the reference, in
/// groups between probes (score_at_ms). The last round also checks every
/// socket score against the reference.
class ServeRounds {
 public:
  ServeRounds(const RunOptions& options, const Inputs& in)
      : options_(options),
        in_(in),
        dir_(options.work_dir + "/serve"),
        ref_dir_(options.work_dir + "/serve-ref"),
        picks_(DrawPicks(options, in)),
        scores_(picks_.size(), std::numeric_limits<double>::quiet_NaN()) {}

  void Round(bool last, Report* report) {
    // Each round on another CPU: the host contends for some vCPUs more
    // than others.
    const PinToOneCpu pin(static_cast<int>(round_p50_.size()));
    Tier tier = StartTier(options_, in_, dir_, report);
    if (tier.supervisor == nullptr) return;
    start_s_.push_back(tier.start_s);
    {
      xf::serve::Router router(tier.supervisor->MakeRouterOptions());
      OpenLoop loop(&router, &picks_, &scores_);
      (void)loop.Window(1000, 300, nullptr);  // warm-up: connections, caches
      const double high_rps = HighRate(&loop);
      std::vector<OpenLoopStats> at1000;
      for (int w = 0; w < kWindowsPerRound; ++w) {
        at1000.push_back(loop.Window(1000, kWindowRequests, nullptr));
        high_.push_back(loop.Window(high_rps, kWindowRequests, nullptr));
      }
      round_p50_.push_back(Median(AllLatencyMs(at1000)));
      report->Line("serve round: p50 at 1000 req/s " + Num(round_p50_.back()) +
                   " ms; high point " + Num(high_rps) + " req/s");
      at1000_.insert(at1000_.end(), at1000.begin(), at1000.end());
      mismatches_ += loop.mismatches();
      attempted_ += loop.attempted();
      failed_ += loop.failed();
    }
    if (ref_ == nullptr) ref_ = OpenReference(options_, in_, ref_dir_, report);
    if (ref_ == nullptr) {
      StopTier(&tier, dir_, report);
      return;
    }
    if (last) {
      VerifyAgainstReference(*ref_, picks_, scores_, mismatches_,
                             tier.supervisor->epoch(), nullptr, report,
                             nullptr);
    }
    StopTier(&tier, dir_, report);
    TimeScoreAt();
  }

  void Finish(Report* report) {
    if (round_p50_.empty()) return;
    const std::vector<double> p99s = WindowP99s(at1000_);
    const std::vector<double> high_p99s = WindowP99s(high_);
    // Reported, not bounded: the serving figures follow the host's load
    // (VM exits on every timed poll) more than the program; see README.md.
    report->AddSetup("serve supervisor start", Median(start_s_));
    report->Line("serve: p50 at 1000 req/s " + Num(Least(round_p50_)) +
                 " ms (rounds" + Nums(round_p50_) + "); p99 " +
                 Num(SecondBest(p99s)) + " ms (windows" + Nums(p99s) +
                 "); p99 at the high point " + Num(SecondBest(high_p99s)) +
                 " ms (windows" + Nums(high_p99s) + "); in-process ScoreAt " +
                 Num(Median(score_raw_ms_)) + " ms, at the reference speed " +
                 Num(Median(score_ms_)) + " ms over " +
                 std::to_string(score_ms_.size()) + " groups of " +
                 std::to_string(kScoreGroup));
    report->Check(score_mismatches_ == 0,
                  "serve: timed in-process scores equal the socket scores (" +
                      std::to_string(score_mismatches_) + " mismatches)");
    if (!score_ms_.empty()) {
      report->Set("score_at_ms", Median(score_ms_), "ms");
    }
    report->Ops("serve.requests", attempted_, failed_);
    report->Ops("serve.in_process_scores", score_attempted_, score_failed_);
    ref_.reset();
    std::filesystem::remove_all(ref_dir_);
  }

 private:
  // Requests per probed group of in-process scores: a single ScoreAt is a
  // fraction of a probe's length.
  static constexpr size_t kScoreGroup = 100;

  /// Every pick through in-process ScoreAt, kScoreGroup at a time between
  /// probes; each score must equal the socket score of its request id.
  void TimeScoreAt() {
    for (size_t g = 0; g + kScoreGroup <= picks_.size(); g += kScoreGroup) {
      const Probed t = TimeProbed([&] {
        for (size_t i = g; i < g + kScoreGroup; ++i) {
          auto resp = ref_->service->ScoreAt(static_cast<int64_t>(i),
                                             picks_[i], 0.0, ref_->epoch);
          ++score_attempted_;
          if (!resp.ok()) {
            ++score_failed_;
          } else if (!std::isnan(scores_[i]) &&
                     resp.value().score != scores_[i]) {
            ++score_mismatches_;
          }
        }
      });
      score_ms_.push_back(t.at_reference_s() * 1e3 / kScoreGroup);
      score_raw_ms_.push_back(t.seconds * 1e3 / kScoreGroup);
    }
  }

  const RunOptions& options_;
  const Inputs& in_;
  const std::string dir_, ref_dir_;
  const std::vector<int32_t> picks_;
  std::vector<double> scores_;
  std::unique_ptr<Reference> ref_;
  std::vector<OpenLoopStats> at1000_, high_;
  std::vector<double> round_p50_, start_s_, score_ms_, score_raw_ms_;
  int64_t mismatches_ = 0, attempted_ = 0, failed_ = 0;
  int64_t score_attempted_ = 0, score_failed_ = 0, score_mismatches_ = 0;
};

void TraceServe(const RunOptions& options, const Inputs& in, Tracer* tracer,
                Report* report) {
  const PinToOneCpu pin(0);
  const std::string dir = options.work_dir + "/serve";
  Tier tier = StartTier(options, in, dir, report);
  if (tier.supervisor == nullptr) return;
  const std::vector<int32_t> picks = DrawPicks(options, in);
  std::vector<double> scores(picks.size(),
                             std::numeric_limits<double>::quiet_NaN());
  xf::serve::Router router(tier.supervisor->MakeRouterOptions());
  OpenLoop loop(&router, &picks, &scores);
  const int64_t requests0 = CounterValue("serve/router/requests");
  const int64_t ok0 = CounterValue("serve/router/ok");
  const int64_t failovers0 = CounterValue("serve/router/failovers");
  const int64_t redials0 = CounterValue("serve/router/redials");
  (void)loop.Window(1000, 300, nullptr);  // warm-up
  // Untraced and traced windows alternate at 1000 req/s, so the tracing
  // overhead is measured under the same conditions.
  std::vector<double> plain_ms, traced_ms, traced_lateness_ms;
  std::vector<OpenLoopStats> plain_windows;
  for (int w = 0; w < 2; ++w) {
    OpenLoopStats plain = loop.Window(1000, kWindowRequests, nullptr);
    OpenLoopStats traced = loop.Window(1000, kWindowRequests, tracer);
    plain_ms.insert(plain_ms.end(), plain.latency_ms.begin(),
                    plain.latency_ms.end());
    plain_windows.push_back(std::move(plain));
    traced_ms.insert(traced_ms.end(), traced.latency_ms.begin(),
                     traced.latency_ms.end());
    traced_lateness_ms.insert(traced_lateness_ms.end(),
                              traced.lateness_ms.begin(),
                              traced.lateness_ms.end());
  }
  const double high_rps = HighRate(&loop);
  const OpenLoopStats high = loop.Window(high_rps, kWindowRequests, nullptr);
  const double max_rps = MaxRate(&loop, report);

  xf::obs::Registry::Global().histogram("serve/sample_s")->Reset();
  xf::obs::Registry::Global().histogram("serve/forward_s")->Reset();
  std::vector<double> batch_nodes;
  const std::string ref_dir = options.work_dir + "/serve-ref";
  if (auto ref = OpenReference(options, in, ref_dir, report)) {
    VerifyAgainstReference(*ref, picks, scores, loop.mismatches(),
                           tier.supervisor->epoch(), tracer, report,
                           &batch_nodes);
  }
  std::filesystem::remove_all(ref_dir);
  StopTier(&tier, dir, report);

  const auto layers = tracer->Layers();
  const double router_ms = SelfMs(layers, "serve.router_score");
  const double score_at_ms = SelfMs(layers, "serve.score_at");
  report->Set("kv.load_batch_ms", SelfMs(layers, "kv.load_batch"), "ms");
  report->Set("kv.batch_nodes", Mean(batch_nodes), "count");
  report->Set("core.serve_forward_ms", SelfMs(layers, "core.serve_forward"),
              "ms");
  report->Set("serve.score_at_ms", score_at_ms, "ms");
  report->Set("serve.router_score_ms", router_ms, "ms");
  report->Set("serve.wire_overhead_ms", router_ms - score_at_ms, "ms");
  report->Set("serve.p99_ms", WindowP99s(plain_windows).front(), "ms");
  report->Set("serve.p99_ms_high", TailAt(high.limit_ms).value, "ms");
  report->Set("serve.high_rate_rps", high_rps, "req/s");
  report->Set("serve.queue_wait_ms", Median(high.lateness_ms), "ms");
  report->Set("serve.max_rps", max_rps, "req/s");
  // ScoringService's own phase histograms, from the in-process requests.
  report->Set("obs.serve_sample_ms", HistogramMeanMs("serve/sample_s"), "ms");
  report->Set("obs.serve_forward_ms", HistogramMeanMs("serve/forward_s"),
              "ms");
  const int64_t requests = CounterValue("serve/router/requests") - requests0;
  const int64_t failed = requests - (CounterValue("serve/router/ok") - ok0);
  report->Set("serve.requests", static_cast<double>(requests), "count");
  report->Set("serve.failed", static_cast<double>(failed), "count");
  report->Set("serve.failovers",
              static_cast<double>(CounterValue("serve/router/failovers") -
                                  failovers0),
              "count");
  report->Set("serve.redials",
              static_cast<double>(CounterValue("serve/router/redials") -
                                  redials0),
              "count");
  // Blocking steps of a request: generator lateness, then the router call.
  // Their medians add up to the traced p50; the untraced p50 differs by
  // the tracing overhead.
  const double untraced_p50 = Median(plain_ms);
  report->Set("serve.untraced_p50_ms", untraced_p50, "ms");
  report->Set("trace.serve_blocking_ms",
              Median(traced_lateness_ms) + router_ms, "ms");
  report->Set("trace.serve_overhead_ms", Median(traced_ms) - untraced_p50,
              "ms");
  report->Ops("serve.requests", requests, failed);
}

}  // namespace

// ---------------------------------------------------------------------------
// ingest: stream::StreamingTopology (2 shards x 2 replicas) with one writer,
// one pinned-epoch reader and a compactor.

namespace {

// Published epochs per second of share on a 4-vCPU VM; the epoch count is
// fixed by it so every commit ingests the same records. The rounds together
// publish at least kIngestMinEpochs times, which gives the pooled publish
// tail a p90 with ten samples beyond it.
constexpr double kIngestEpochsPerSecond = 7.0;
constexpr int kIngestMinEpochs = 100;
// The pinned-epoch audit: one score in kAuditEvery is re-scored once the
// writer is kAuditLagEpochs epochs past it.
constexpr int64_t kAuditEvery = 16;
constexpr uint64_t kAuditLagEpochs = 10;

/// Streaming ingest in rounds. Every round ingests the same records into a
/// fresh topology — the store grows and compaction rewrites it whole, so
/// one long pass would cost the square of its length. The publish tail
/// pools all rounds' publishes.
class IngestRounds {
 public:
  IngestRounds(const RunOptions& options, const Inputs& in, int rounds)
      : options_(options),
        dir_(options.work_dir + "/ingest"),
        epochs_(std::max<int64_t>(
            (kIngestMinEpochs + rounds - 1) / rounds,
            std::lround(options.seconds * kIngestShare *
                        kIngestEpochsPerSecond / rounds))) {
    xf::data::GeneratorConfig config = in.config;
    config.seed = xf::Rng::StreamSeed(options.seed, kIngestTag);
    gen_s_ = TimeProbed([&] {
               records_ =
                   xf::data::TransactionGenerator(config).GenerateRecords();
             }).at_reference_s();
  }

  void Round(Tracer* tracer, Report* report) {
    if (static_cast<int64_t>(records_.size()) < epochs_ * kTxnsPerEpoch) {
      report->Check(false, "ingest: the record stream is shorter than " +
                               std::to_string(epochs_) + " epochs");
      return;
    }
    std::filesystem::remove_all(dir_);
    xf::stream::StreamingOptions so;
    so.dir = dir_;
    so.num_shards = 2;
    so.num_replicas = 2;
    const double t0 = Now();
    auto opened = xf::stream::StreamingTopology::Open(std::move(so));
    open_s_.push_back(Now() - t0);
    if (!opened.ok()) {
      report->Check(false, "ingest: topology open " +
                               opened.status().ToString());
      return;
    }
    Pass(opened.value().get(), tracer, report);
    opened.value().reset();
    std::filesystem::remove_all(dir_);
  }

  void Finish(Report* report) {
    if (round_txn_per_s_.empty()) return;
    const Tail publish = TailAt(publish_ms_);
    std::string score_line;
    for (const Tail& t : round_score_tail_) {
      score_line += " p" + Num(t.percentile) + " " + Num(t.value) + " ms over " +
                    std::to_string(t.count) + ";";
    }
    report->AddSetup("ingest record generation", gen_s_);
    report->AddSetup("ingest topology open", Median(open_s_));
    report->Line("ingest: " + std::to_string(epochs_) + " epochs of " +
                 std::to_string(kTxnsPerEpoch) + " txns per round, txn/s" +
                 Nums(round_txn_per_s_) + "; publish p" +
                 Num(publish.percentile) + " " + Num(publish.value) +
                 " ms over " + std::to_string(publish.count) +
                 "; scores per round" + score_line);
    Accounting(report);
  }

  void FinishTraced(Tracer* tracer, Report* report) {
    const auto layers = tracer->Layers();
    report->Set("stream.append_ms", SelfMs(layers, "stream.append"), "ms");
    report->Set("stream.publish_ms", SelfMs(layers, "stream.publish"), "ms");
    report->Set("stream.epochs", static_cast<double>(epochs_published_),
                "count");
    report->Set("stream.publish_retries", static_cast<double>(retries_),
                "count");
    report->Set("stream.open_view_ms", SelfMs(layers, "stream.open_view"),
                "ms");
    report->Set("serve.ingest_score_at_ms",
                SelfMs(layers, "serve.ingest_score_at"), "ms");
    report->Set("kv.compact_ms", SelfMs(layers, "kv.compact"), "ms");
    report->Set("kv.compact_reclaimed_bytes", static_cast<double>(reclaimed_),
                "bytes");
    report->Set("kv.adj_cache_entries", Mean(cache_entries_), "count");
    if (!round_txn_per_s_.empty()) {
      report->Set("ingest.txn_per_s", Median(round_txn_per_s_), "txn/s");
      std::vector<double> score_p99s;
      for (const Tail& t : round_score_tail_) score_p99s.push_back(t.value);
      report->Set("ingest.score_p99_ms", Median(score_p99s), "ms");
      report->Set("ingest.publish_p99_ms", TailAt(publish_ms_).value, "ms");
    }
    Accounting(report);
  }

 private:
  void Accounting(Report* report) {
    report->Ops("ingest.appends", appends_, append_failed_);
    report->Ops("ingest.publishes", epochs_published_ + retries_, retries_);
    report->Ops("ingest.scores", scores_, scores_failed_);
    report->Ops("ingest.compactions", compactions_, compact_failed_);
  }

  void Pass(xf::stream::StreamingTopology* t, Tracer* tracer,
            Report* report) {
    xf::stream::GraphIngestor* ingestor = t->ingestor();
    xf::Rng init(ModelSeed(options_.seed));
    xf::core::XFraudDetector model(
        ModelConfig(static_cast<int64_t>(records_[0].features.size())),
        &init);
    xf::serve::ServiceOptions service_options;
    service_options.deadline_s = 0.0;  // pinned reads; the audit needs all
    xf::serve::ScoringService service(&model, t->features(), service_options);

    // Published epoch -> node of its newest transaction.
    std::mutex mu;
    std::map<uint64_t, int32_t> newest;
    std::atomic<bool> done{false};

    // Reader: pin the newest epoch, score its newest transaction there.
    // Every kAuditEvery-th score keeps its view pinned; once the writer is
    // kAuditLagEpochs past it, the pair is scored again and released, so
    // the audit spans publishes and compactions without holding the GC
    // floor at the first epoch for the whole pass.
    struct Audit {
      int64_t request_id;
      int32_t node;
      double score;
      xf::stream::GraphView view;
    };
    std::deque<Audit> audit;
    int64_t audited = 0, audit_mismatches = 0, scores_failed = 0;
    auto check_audit = [&](Audit& a) {
      auto again =
          service.ScoreAt(a.request_id, a.node, 0.0, a.view.epoch());
      if (!again.ok() || again.value().score != a.score) ++audit_mismatches;
      ++audited;
      a.view.Release();
    };
    std::vector<double> score_ms, cache_entries;
    std::thread reader([&] {
      int64_t request_id = 0;
      while (!done.load(std::memory_order_relaxed)) {
        Tracer::Scope open_span(tracer, "stream.open_view", request_id);
        auto view = t->OpenView();
        open_span.End();
        int32_t node = -1;
        if (view.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          auto it = newest.find(view.value().epoch());
          if (it != newest.end()) node = it->second;
        }
        if (node < 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        ++request_id;
        const double s0 = Now();
        Tracer::Scope span(tracer, "serve.ingest_score_at", request_id);
        auto resp =
            service.ScoreAt(request_id, node, 0.0, view.value().epoch());
        span.End();
        score_ms.push_back((Now() - s0) * 1e3);
        cache_entries.push_back(
            static_cast<double>(t->adjacency_cache()->entries()));
        if (!resp.ok()) {
          ++scores_failed;
          continue;
        }
        const uint64_t head = view.value().epoch();
        if (request_id % kAuditEvery == 0) {
          audit.push_back({request_id, node, resp.value().score,
                           std::move(view).value()});
        }
        while (!audit.empty() &&
               audit.front().view.epoch() + kAuditLagEpochs <= head) {
          check_audit(audit.front());
          audit.pop_front();
        }
      }
    });

    // Compactor: the bench's own thread, every 50 ms.
    int64_t compactions = 0, compact_failed = 0, reclaimed = 0;
    std::mutex stop_mu;
    std::condition_variable stop_cv;
    std::thread compactor([&] {
      std::unique_lock<std::mutex> lock(stop_mu);
      while (!stop_cv.wait_for(
          lock, std::chrono::duration<double>(kCompactEverySeconds),
          [&] { return done.load(); })) {
        Tracer::Scope span(tracer, "kv.compact", compactions++);
        auto bytes = t->epochs()->Compact();
        span.End();
        if (bytes.ok()) {
          reclaimed += bytes.value();
        } else {
          ++compact_failed;
        }
      }
    });

    // Writer: append and publish every 100 transactions, closed loop.
    int64_t epochs = 0;
    size_t next = 0;
    const double w0 = Now();
    while (epochs < epochs_) {
      for (int k = 0; k < kTxnsPerEpoch; ++k) {
        Tracer::Scope span(tracer, "stream.append",
                           static_cast<int64_t>(next));
        if (!ingestor->Append(records_[next]).ok()) ++append_failed_;
        ++next;
      }
      const double p0 = Now();
      Tracer::Scope span(tracer, "stream.publish", epochs);
      auto epoch = ingestor->PublishEpoch();
      for (int attempt = 0; !epoch.ok() && attempt < 8; ++attempt) {
        ++retries_;
        epoch = ingestor->PublishEpoch();
      }
      span.End();
      publish_ms_.push_back((Now() - p0) * 1e3);
      if (!epoch.ok()) {
        report->Check(false, "ingest: publish " + epoch.status().ToString());
        break;
      }
      ++epochs;
      std::lock_guard<std::mutex> lock(mu);
      newest[epoch.value()] = ingestor->TxnNode(records_[next - 1].txn_id);
    }
    const double writer_s = Now() - w0;
    {
      // Under the waiters' mutex, so the compactor cannot miss the wake-up.
      std::lock_guard<std::mutex> lock(stop_mu);
      done.store(true);
    }
    stop_cv.notify_all();
    reader.join();
    compactor.join();

    // The rest of the audit: the pairs still pinned score the same again
    // after the writer and the compactor stopped.
    for (Audit& a : audit) check_audit(a);
    audit.clear();
    report->Check(audited > 0 && audit_mismatches == 0,
                  "ingest: " + std::to_string(audited) +
                      " pinned (request, epoch) scores reproduce exactly");

    // The streamed graph must have the node count the offline builder
    // gives on the same records.
    xf::graph::GraphBuilder builder;
    for (size_t i = 0; i < next; ++i) {
      if (!builder.AddTransaction(records_[i]).ok()) break;
    }
    const int64_t offline_nodes = builder.Build().num_nodes();
    report->Check(epochs == epochs_ && offline_nodes == ingestor->num_nodes(),
                  "ingest: " + std::to_string(epochs) + " epochs, " +
                      std::to_string(ingestor->num_nodes()) +
                      " streamed nodes == " + std::to_string(offline_nodes) +
                      " offline GraphBuilder nodes");

    round_txn_per_s_.push_back(static_cast<double>(next) / writer_s);
    round_score_tail_.push_back(TailAt(score_ms));
    scores_ += static_cast<int64_t>(score_ms.size());
    cache_entries_.insert(cache_entries_.end(), cache_entries.begin(),
                          cache_entries.end());
    appends_ += static_cast<int64_t>(next);
    epochs_published_ += epochs;
    scores_failed_ += scores_failed;
    compactions_ += compactions;
    compact_failed_ += compact_failed;
    reclaimed_ += reclaimed;
  }

  const RunOptions& options_;
  const std::string dir_;
  const int64_t epochs_;  // per round
  std::vector<xf::graph::TransactionRecord> records_;
  double gen_s_ = 0.0;
  std::vector<double> open_s_, round_txn_per_s_, publish_ms_, cache_entries_;
  std::vector<Tail> round_score_tail_;
  int64_t scores_ = 0, appends_ = 0, append_failed_ = 0, epochs_published_ = 0,
          retries_ = 0, scores_failed_ = 0, compactions_ = 0,
          compact_failed_ = 0, reclaimed_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Entry points

void RunEndToEnd(const RunOptions& options, const Inputs& in,
                 Report* report) {
  // The sections alternate in rounds, so that a slow episode of the host
  // (10-20 s on a shared VM) falls on a slice of each section rather than
  // on one section whole. Ingest, whose figures are reported and not
  // bounded, runs one pass for its checks; the traced run makes three.
  TrainRounds train(options, in);
  DistRounds dist(options, in);
  ServeRounds serve(options, in);
  IngestRounds ingest(options, in, kRounds);
  for (int r = 0; r < kRounds; ++r) {
    train.Round(r, report);
    dist.Round(report);
    serve.Round(r == kRounds - 1, report);
    if (r == kRounds - 1) ingest.Round(nullptr, report);
  }
  train.Finish(report);
  dist.Finish(report);
  serve.Finish(report);
  ingest.Finish(report);
}

void RunLayers(const RunOptions& options, const Inputs& in, Tracer* tracer,
               Report* report) {
  TraceTrain(options, in, tracer, report);
  TraceDist(options, in, tracer, report);
  TraceServe(options, in, tracer, report);
  IngestRounds ingest(options, in, kRounds);
  for (int r = 0; r < kRounds; ++r) ingest.Round(tracer, report);
  ingest.FinishTraced(tracer, report);
}

}  // namespace perfbench
