// Microbenchmarks of the autograd substrate (google-benchmark): the ops on
// the detector's critical path, forward and forward+backward, plus the
// before/after pairs that gate each nn::kernels fusion (blocked vs naive
// GEMM and backward products, fused vs composed linear, typed linear,
// attention scores and attention aggregate), HeteroConv's source-row
// K/V path at sim-small shares, and the whole detector forward over
// sim-small batches. Useful for tracking regressions in the engine that
// every experiment sits on.
//
// The JSON context records which ISA clone of the kernels the host resolved
// ("kernel_isa").

#include <cmath>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "xfraud/nn/kernels.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/ops.h"

namespace xfraud::nn {
namespace {

void BM_MatMulForward(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  Var a(Tensor::Uniform(n, 64, 1.0f, &rng), false);
  Var b(Tensor::Uniform(64, 64, 1.0f, &rng), false);
  for (auto _ : state) {
    Var c = MatMul(a, b);
    benchmark::DoNotOptimize(c.value().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_MatMulForward)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GemmReference(benchmark::State& state) {
  // The naive ikj GEMM the blocked kernel replaced — the "before" side of
  // the BM_MatMulForward gate, kept runnable in the same binary.
  int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Uniform(n, 64, 1.0f, &rng);
  Tensor b = Tensor::Uniform(64, 64, 1.0f, &rng);
  Tensor c(n, 64);
  for (auto _ : state) {
    kernels::reference::Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_GemmReference)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MatMulTrain(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(2);
  Var a(Tensor::Uniform(n, 64, 1.0f, &rng), true);
  Var b(Tensor::Uniform(64, 64, 1.0f, &rng), true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Var loss = Sum(MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
  // Forward GEMM plus the two backward products, all n x 64 x 64 shaped.
  state.SetItemsProcessed(state.iterations() * 3 * n * 64 * 64);
}
BENCHMARK(BM_MatMulTrain)->Arg(256)->Arg(1024);

// The two backward products on the detector's shapes — [6611,32]·[32,32]
// (one HeteroConv typed linear over a sim-small batch's edges) and
// [1024,64]·[64,64] — each against its kernels::reference twin.

void BM_GemmTransBAdd(benchmark::State& state) {
  // dA += G·Bᵀ on the packed micro-kernel...
  int64_t n = state.range(0);
  int64_t d = state.range(1);
  Rng rng(9);
  Tensor g = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor b = Tensor::Uniform(d, d, 1.0f, &rng);
  Tensor da(n, d);
  for (auto _ : state) {
    kernels::GemmTransBAdd(g, b, &da);
    benchmark::DoNotOptimize(da.data());
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}
BENCHMARK(BM_GemmTransBAdd)->Args({6611, 32})->Args({1024, 64});

void BM_GemmTransBAddReference(benchmark::State& state) {
  // ...vs the row-dot reference.
  int64_t n = state.range(0);
  int64_t d = state.range(1);
  Rng rng(9);
  Tensor g = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor b = Tensor::Uniform(d, d, 1.0f, &rng);
  Tensor da(n, d);
  for (auto _ : state) {
    kernels::reference::GemmTransBAdd(g, b, &da);
    benchmark::DoNotOptimize(da.data());
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}
BENCHMARK(BM_GemmTransBAddReference)->Args({6611, 32})->Args({1024, 64});

void BM_GemmTransAAdd(benchmark::State& state) {
  // dB += Aᵀ·G with register-held dB tiles...
  int64_t n = state.range(0);
  int64_t d = state.range(1);
  Rng rng(10);
  Tensor a = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor g = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor db(d, d);
  for (auto _ : state) {
    kernels::GemmTransAAdd(a, g, &db);
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}
BENCHMARK(BM_GemmTransAAdd)->Args({6611, 32})->Args({1024, 64});

void BM_GemmTransAAddReference(benchmark::State& state) {
  // ...vs the reference streaming dB rows per input row.
  int64_t n = state.range(0);
  int64_t d = state.range(1);
  Rng rng(10);
  Tensor a = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor g = Tensor::Uniform(n, d, 1.0f, &rng);
  Tensor db(d, d);
  for (auto _ : state) {
    kernels::reference::GemmTransAAdd(a, g, &db);
    benchmark::DoNotOptimize(db.data());
  }
  state.SetItemsProcessed(state.iterations() * n * d * d);
}
BENCHMARK(BM_GemmTransAAddReference)->Args({6611, 32})->Args({1024, 64});

void BM_LinearFused(benchmark::State& state) {
  // Fused x·W + b + ReLU forward/backward...
  int64_t n = state.range(0);
  Rng rng(7);
  Linear lin(64, 64, &rng);
  Var x(Tensor::Uniform(n, 64, 1.0f, &rng), true);
  for (auto _ : state) {
    x.ZeroGrad();
    lin.ZeroGrad();
    Var loss = Sum(lin.Forward(x, kernels::Activation::kRelu));
    loss.Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_LinearFused)->Arg(256)->Arg(1024);

void BM_LinearComposed(benchmark::State& state) {
  // ...vs the composed MatMul + AddRowBroadcast + Relu chain it replaced.
  int64_t n = state.range(0);
  Rng rng(7);
  Linear lin(64, 64, &rng);
  Var x(Tensor::Uniform(n, 64, 1.0f, &rng), true);
  Var bias(Tensor(1, 64, 0.01f), true);
  for (auto _ : state) {
    x.ZeroGrad();
    lin.ZeroGrad();
    bias.ZeroGrad();
    Var loss =
        Sum(Relu(AddRowBroadcast(MatMul(x, lin.weight()), bias)));
    loss.Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * n * 64 * 64);
}
BENCHMARK(BM_LinearComposed)->Arg(256)->Arg(1024);

/// One HeteroConv typed linear on a sim-small batch: E = 6611 edge rows of
/// D = 32 over 5 node types, forward + backward into x, every W_t and b_t.
/// `subset` is an ascending ~0.6 share of x's rows, as the last layer's Q
/// reads its output rows from the layer input, and `subset_types` their
/// types.
struct TypedLinearInputs {
  static constexpr int64_t kRows = 6611;
  static constexpr int64_t kDim = 32;
  static constexpr int kTypes = 5;
  TypedLinearInputs()
      : rng(11), x(Tensor::Uniform(kRows, kDim, 1.0f, &rng), true) {
    for (int t = 0; t < kTypes; ++t) {
      linears.emplace_back(kDim, kDim, &rng);
      weights.push_back(linears.back().weight());
      biases.push_back(linears.back().bias());
    }
    types.resize(kRows);
    for (auto& t : types) t = static_cast<int32_t>(rng.NextBounded(kTypes));
    for (int32_t r = 0; r < kRows; ++r) {
      if (rng.NextBounded(5) >= 3) continue;
      subset.push_back(r);
      subset_types.push_back(types[r]);
    }
  }
  void ZeroGrad() {
    x.ZeroGrad();
    for (Linear& l : linears) l.ZeroGrad();
  }
  Rng rng;
  Var x;
  std::vector<Linear> linears;
  std::vector<Var> weights;
  std::vector<Var> biases;
  std::vector<int32_t> types;
  std::vector<int32_t> subset;
  std::vector<int32_t> subset_types;
};

void BM_TypedLinearFused(benchmark::State& state) {
  // One TypedLinear tape node — forward + backward when taped (taped:1),
  // the forward alone under a NoGradGuard (taped:0) — over all E rows
  // (rows:0) or over the ascending subset read in place through its row
  // list (rows:1)...
  TypedLinearInputs in;
  const bool taped = state.range(0) != 0;
  const bool row_list = state.range(1) != 0;
  const std::vector<int32_t>& types = row_list ? in.subset_types : in.types;
  const std::vector<int32_t>* rows = row_list ? &in.subset : nullptr;
  for (auto _ : state) {
    if (taped) {
      in.ZeroGrad();
      Var loss = Sum(TypedLinear(in.x, types, in.weights, in.biases, rows));
      loss.Backward();
      benchmark::DoNotOptimize(in.x.grad().data());
    } else {
      NoGradGuard guard;
      Var out = TypedLinear(in.x, types, in.weights, in.biases, rows);
      benchmark::DoNotOptimize(out.value().data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(types.size()));
}
BENCHMARK(BM_TypedLinearFused)
    ->ArgNames({"taped", "rows"})
    ->ArgsProduct({{1, 0}, {0, 1}});

void BM_TypedLinearComposed(benchmark::State& state) {
  // ...vs the per-type IndexRows → LinearBiasAct → ScatterAddRows → Add
  // chain it replaced in core::ApplyTypedLinear.
  TypedLinearInputs in;
  std::vector<std::vector<int32_t>> rows_by_type(TypedLinearInputs::kTypes);
  for (size_t r = 0; r < in.types.size(); ++r) {
    rows_by_type[in.types[r]].push_back(static_cast<int32_t>(r));
  }
  for (auto _ : state) {
    in.ZeroGrad();
    Var out;
    for (int t = 0; t < TypedLinearInputs::kTypes; ++t) {
      Var mapped = in.linears[t].Forward(IndexRows(in.x, rows_by_type[t]));
      Var scattered =
          ScatterAddRows(mapped, rows_by_type[t], TypedLinearInputs::kRows);
      out = out.defined() ? Add(out, scattered) : scattered;
    }
    Var loss = Sum(out);
    loss.Backward();
    benchmark::DoNotOptimize(in.x.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * TypedLinearInputs::kRows);
}
BENCHMARK(BM_TypedLinearComposed);

/// The eq. 8 attention-score operands of one sim-small HeteroConv layer:
/// E = 6611 edges, D = 32 in H = 4 heads of 8, 5 node types; forward +
/// backward into all four operands.
struct AttentionScoresInputs {
  static constexpr int64_t kEdges = 6611;
  static constexpr int64_t kNodes = 2048;
  static constexpr int64_t kDim = 32;
  static constexpr int kHeads = 4;
  static constexpr int kTypes = 5;
  AttentionScoresInputs()
      : rng(12),
        k(Tensor::Uniform(kEdges, kDim, 1.0f, &rng), true),
        q(Tensor::Uniform(kNodes, kDim, 1.0f, &rng), true),
        w_src(Tensor::Uniform(kTypes, kDim, 1.0f, &rng), true),
        w_dst(Tensor::Uniform(kTypes, kDim, 1.0f, &rng), true),
        per_edge(kEdges),
        dst(kEdges),
        src_types(kEdges),
        dst_types(kEdges) {
    for (int64_t e = 0; e < kEdges; ++e) {
      per_edge[e] = static_cast<int32_t>(e);
      dst[e] = static_cast<int32_t>(rng.NextBounded(kNodes));
      src_types[e] = static_cast<int32_t>(rng.NextBounded(kTypes));
      dst_types[e] = static_cast<int32_t>(rng.NextBounded(kTypes));
    }
  }
  void ZeroGrad() {
    for (Var* v : {&k, &q, &w_src, &w_dst}) v->ZeroGrad();
  }
  Rng rng;
  Var k, q, w_src, w_dst;
  std::vector<int32_t> per_edge, dst, src_types, dst_types;
  float scale = 1.0f / std::sqrt(static_cast<float>(kDim / kHeads));
};

void BM_AttentionScoresFused(benchmark::State& state) {
  // One AttentionScores tape node...
  AttentionScoresInputs in;
  for (auto _ : state) {
    in.ZeroGrad();
    Var loss = Sum(AttentionScores(in.k, in.per_edge, in.q, in.dst, in.w_src,
                                   in.src_types, in.w_dst, in.dst_types,
                                   AttentionScoresInputs::kHeads, in.scale));
    loss.Backward();
    benchmark::DoNotOptimize(in.q.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * AttentionScoresInputs::kEdges);
}
BENCHMARK(BM_AttentionScoresFused);

void BM_AttentionScoresComposed(benchmark::State& state) {
  // ...vs the three gathers and per-head SliceCols → Mul → RowSum → Add →
  // Scale chain, joined by ConcatCols, it replaced in HeteroConvLayer.
  AttentionScoresInputs in;
  const int64_t head_dim =
      AttentionScoresInputs::kDim / AttentionScoresInputs::kHeads;
  for (auto _ : state) {
    in.ZeroGrad();
    Var q_edges = IndexRows(in.q, in.dst);
    Var w_src_edges = IndexRows(in.w_src, in.src_types);
    Var w_dst_edges = IndexRows(in.w_dst, in.dst_types);
    Var scores;
    for (int h = 0; h < AttentionScoresInputs::kHeads; ++h) {
      int64_t off = h * head_dim;
      Var score_h = Scale(
          Add(RowSum(Mul(SliceCols(in.k, off, head_dim),
                         SliceCols(w_src_edges, off, head_dim))),
              RowSum(Mul(SliceCols(q_edges, off, head_dim),
                         SliceCols(w_dst_edges, off, head_dim)))),
          in.scale);
      scores = scores.defined() ? ConcatCols(scores, score_h) : score_h;
    }
    Var loss = Sum(scores);
    loss.Backward();
    benchmark::DoNotOptimize(in.q.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * AttentionScoresInputs::kEdges);
}
BENCHMARK(BM_AttentionScoresComposed);

void BM_KvSourceRows(benchmark::State& state) {
  // HeteroConv's K/V path over the AttentionScores operands: both typed
  // projections over U = share% · E source rows (28% is a sim-small later
  // layer's distinct sources, 63% the first layer's (source, edge type)
  // pairs, 100% one row per edge), then AttentionScores and
  // AttentionAggregate reading K and V through the per-edge row index.
  // Taped (arg 1): forward + backward into the source rows, every K/V
  // weight and bias, the queries and the attention rows; untaped (arg 0):
  // the forward alone under a NoGradGuard.
  using In = AttentionScoresInputs;
  In in;
  const auto num_rows =
      static_cast<int32_t>(In::kEdges * state.range(0) / 100);
  const bool taped = state.range(1) != 0;
  Var rows(Tensor::Uniform(num_rows, In::kDim, 1.0f, &in.rng), true);
  std::vector<int32_t> row_types(static_cast<size_t>(num_rows));
  for (auto& t : row_types) {
    t = static_cast<int32_t>(in.rng.NextBounded(In::kTypes));
  }
  std::vector<int32_t> kv_row(In::kEdges);
  for (size_t e = 0; e < kv_row.size(); ++e) {
    kv_row[e] = static_cast<int32_t>(e) % num_rows;
  }
  in.rng.Shuffle(&kv_row);
  for (size_t e = 0; e < kv_row.size(); ++e) {
    in.src_types[e] = row_types[static_cast<size_t>(kv_row[e])];
  }
  std::vector<Linear> k_linears, v_linears;
  std::vector<Var> k_weights, k_biases, v_weights, v_biases;
  for (int t = 0; t < In::kTypes; ++t) {
    k_linears.emplace_back(In::kDim, In::kDim, &in.rng);
    v_linears.emplace_back(In::kDim, In::kDim, &in.rng);
    k_weights.push_back(k_linears.back().weight());
    k_biases.push_back(k_linears.back().bias());
    v_weights.push_back(v_linears.back().weight());
    v_biases.push_back(v_linears.back().bias());
  }
  auto forward = [&] {
    Var k = TypedLinear(rows, row_types, k_weights, k_biases);
    Var v = TypedLinear(rows, row_types, v_weights, v_biases);
    Var scores =
        AttentionScores(k, kv_row, in.q, in.dst, in.w_src, in.src_types,
                        in.w_dst, in.dst_types, In::kHeads, in.scale);
    return AttentionAggregate(scores, v, kv_row, in.dst, In::kNodes,
                              In::kDim / In::kHeads, /*dropout_p=*/0.0f,
                              /*training=*/false, nullptr);
  };
  for (auto _ : state) {
    if (taped) {
      in.ZeroGrad();
      rows.ZeroGrad();
      for (Linear& l : k_linears) l.ZeroGrad();
      for (Linear& l : v_linears) l.ZeroGrad();
      Var loss = Sum(forward());
      loss.Backward();
      benchmark::DoNotOptimize(rows.grad().data());
    } else {
      NoGradGuard guard;
      Var out = forward();
      benchmark::DoNotOptimize(out.value().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * In::kEdges);
}
BENCHMARK(BM_KvSourceRows)
    ->ArgNames({"share", "taped"})
    ->Args({28, 1})
    ->Args({28, 0})
    ->Args({63, 1})
    ->Args({63, 0})
    ->Args({100, 1})
    ->Args({100, 0});

void BM_AttentionAggregateFused(benchmark::State& state) {
  // Fused segment-softmax -> per-head weighting -> scatter-add, with and
  // without a per-edge weight (the explainer's edge mask, which takes a
  // gradient)...
  int64_t edges = state.range(0);
  bool weighted = state.range(1) != 0;
  int64_t nodes = edges / 2 + 1;
  const int64_t kHeads = 4;
  const int64_t kHeadDim = 16;
  Rng rng(8);
  Var scores(Tensor::Uniform(edges, kHeads, 1.0f, &rng), true);
  Var values(Tensor::Uniform(edges, kHeads * kHeadDim, 1.0f, &rng), true);
  std::vector<int32_t> dst(edges);
  for (auto& d : dst) d = static_cast<int32_t>(rng.NextBounded(nodes));
  Var mask(Tensor::Uniform(edges, 1, 1.0f, &rng), true);
  std::vector<int32_t> per_edge(edges);
  for (int64_t e = 0; e < edges; ++e) per_edge[e] = static_cast<int32_t>(e);
  for (auto _ : state) {
    scores.ZeroGrad();
    values.ZeroGrad();
    mask.ZeroGrad();
    Var loss = Sum(AttentionAggregate(scores, values, per_edge, dst, nodes,
                                      kHeadDim, /*dropout_p=*/0.0f,
                                      /*training=*/false, nullptr, nullptr, 0,
                                      weighted ? mask : Var()));
    loss.Backward();
    benchmark::DoNotOptimize(scores.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_AttentionAggregateFused)
    ->ArgNames({"edges", "weighted"})
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}});

void BM_AttentionAggregateComposed(benchmark::State& state) {
  // ...vs the composed SegmentSoftmax + per-head SliceCols/MulColBroadcast/
  // ConcatCols (+ MulColBroadcast by the weight) + ScatterAddRows chain it
  // replaced in HeteroConv and GAT.
  int64_t edges = state.range(0);
  bool weighted = state.range(1) != 0;
  int64_t nodes = edges / 2 + 1;
  const int64_t kHeads = 4;
  const int64_t kHeadDim = 16;
  Rng rng(8);
  Var scores(Tensor::Uniform(edges, kHeads, 1.0f, &rng), true);
  Var values(Tensor::Uniform(edges, kHeads * kHeadDim, 1.0f, &rng), true);
  std::vector<int32_t> dst(edges);
  for (auto& d : dst) d = static_cast<int32_t>(rng.NextBounded(nodes));
  Var mask(Tensor::Uniform(edges, 1, 1.0f, &rng), true);
  for (auto _ : state) {
    scores.ZeroGrad();
    values.ZeroGrad();
    mask.ZeroGrad();
    Var att = SegmentSoftmax(scores, dst, nodes);
    Var messages;
    for (int64_t h = 0; h < kHeads; ++h) {
      Var v_h = SliceCols(values, h * kHeadDim, kHeadDim);
      Var att_h = SliceCols(att, h, 1);
      Var msg_h = MulColBroadcast(v_h, att_h);
      messages = messages.defined() ? ConcatCols(messages, msg_h) : msg_h;
    }
    if (weighted) messages = MulColBroadcast(messages, mask);
    Var loss = Sum(ScatterAddRows(messages, dst, nodes));
    loss.Backward();
    benchmark::DoNotOptimize(scores.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_AttentionAggregateComposed)
    ->ArgNames({"edges", "weighted"})
    ->ArgsProduct({{1000, 10000, 100000}, {0, 1}});

void BM_SegmentSoftmax(benchmark::State& state) {
  int64_t edges = state.range(0);
  Rng rng(3);
  Var scores(Tensor::Uniform(edges, 4, 1.0f, &rng), false);
  std::vector<int32_t> segments(edges);
  int64_t num_segments = edges / 3 + 1;
  for (int64_t e = 0; e < edges; ++e) {
    segments[e] = static_cast<int32_t>(rng.NextBounded(num_segments));
  }
  for (auto _ : state) {
    Var att = SegmentSoftmax(scores, segments, num_segments);
    benchmark::DoNotOptimize(att.value().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_SegmentSoftmax)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ScatterGather(benchmark::State& state) {
  int64_t edges = state.range(0);
  int64_t nodes = edges / 2 + 1;
  Rng rng(4);
  Var h(Tensor::Uniform(nodes, 32, 1.0f, &rng), false);
  std::vector<int32_t> src(edges), dst(edges);
  for (int64_t e = 0; e < edges; ++e) {
    src[e] = static_cast<int32_t>(rng.NextBounded(nodes));
    dst[e] = static_cast<int32_t>(rng.NextBounded(nodes));
  }
  for (auto _ : state) {
    Var agg = ScatterAddRows(IndexRows(h, src), dst, nodes);
    benchmark::DoNotOptimize(agg.value().data());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_ScatterGather)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MlpTrainStep(benchmark::State& state) {
  int64_t batch = state.range(0);
  Rng rng(5);
  Mlp mlp(96, 32, 2, 0.2f, &rng);
  Var x(Tensor::Uniform(batch, 96, 1.0f, &rng), false);
  std::vector<int> labels(batch);
  for (auto& l : labels) l = rng.NextBernoulli(0.05);
  for (auto _ : state) {
    mlp.ZeroGrad();
    Var loss = CrossEntropy(mlp.Forward(x, true, &rng), labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_MlpTrainStep)->Arg(256)->Arg(1024);

void BM_LayerNormForward(benchmark::State& state) {
  int64_t rows = state.range(0);
  Rng rng(6);
  LayerNormModule norm(64);
  Var x(Tensor::Uniform(rows, 64, 1.0f, &rng), false);
  for (auto _ : state) {
    Var y = norm.Forward(x);
    benchmark::DoNotOptimize(y.value().data());
  }
  state.SetItemsProcessed(state.iterations() * rows * 64);
}
BENCHMARK(BM_LayerNormForward)->Arg(1024)->Arg(8192);

/// sim-small (the Table 3 setting, 64-d features), generated once.
const data::SimDataset& SimSmall() {
  static const data::SimDataset ds = data::TransactionGenerator::Make(
      data::TransactionGenerator::SimSmall(), "bench_nn_ops");
  return ds;
}

void BM_DetectorForward(benchmark::State& state) {
  // The detector as perfbench and Table 3 run it (hidden 32, 4 heads, 2
  // layers, dropout 0.2) over a detector+ batch (SageSampler(2, 12)).
  // Taped (arg 1): a 256-seed training batch, forward with dropout, then
  // the cross-entropy backward — Trainer::TrainStep less the optimizer.
  // Untaped (arg 0): a 640-seed evaluation batch, the forward alone under
  // a NoGradGuard, as Trainer::Evaluate runs it.
  const bool taped = state.range(0) != 0;
  const data::SimDataset& ds = SimSmall();
  const std::vector<int32_t>& pool = taped ? ds.train_nodes : ds.test_nodes;
  std::vector<int32_t> seeds(pool.begin(), pool.begin() + (taped ? 256 : 640));
  Rng rng(1);
  sample::MiniBatch batch =
      sample::SageSampler(2, 12).SampleBatch(ds.graph, seeds, &rng);
  core::XFraudDetector model(bench::DetectorConfigFor(ds.graph), &rng);
  for (auto _ : state) {
    if (taped) {
      model.ZeroGrad();
      Rng dropout_rng(2);
      core::ForwardOptions options;
      options.training = true;
      options.rng = &dropout_rng;
      Var loss = CrossEntropy(model.Forward(batch, options),
                              batch.target_labels);
      loss.Backward();
      benchmark::DoNotOptimize(loss.value().data());
    } else {
      NoGradGuard guard;
      Var logits = model.Forward(batch, core::ForwardOptions{});
      benchmark::DoNotOptimize(logits.value().data());
    }
  }
  state.counters["nodes"] = static_cast<double>(batch.num_nodes());
  state.counters["edges"] = static_cast<double>(batch.num_edges());
}
// A fixed warm-up, minimum time and repetition count, whatever
// --benchmark_min_time says: under the flag's short default, whole-layer
// rows such as BM_KvSourceRows moved by up to 1.7x between runs on the
// shared 4-core host, too much to compare two trees.
BENCHMARK(BM_DetectorForward)
    ->ArgName("taped")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MinWarmUpTime(0.25)
    ->MinTime(1.0)
    ->Repetitions(5);

}  // namespace
}  // namespace xfraud::nn

int main(int argc, char** argv) {
  // Which clone of the ISA-cloned kernels the loader picked on this host.
#if defined(__x86_64__)
  benchmark::AddCustomContext(
      "kernel_isa", __builtin_cpu_supports("avx2") ? "avx2" : "default");
#else
  benchmark::AddCustomContext("kernel_isa", "default");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
