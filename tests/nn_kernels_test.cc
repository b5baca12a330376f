// Conformance and regression tests for the nn::kernels layer (DESIGN.md
// §13): blocked kernels must match the naive reference bit for bit, the
// fused ops must match their composed equivalents bit for bit (including
// dropout RNG consumption), and the zero-skip NaN-swallowing bug must stay
// fixed.

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xfraud/common/check.h"
#include "xfraud/common/rng.h"
#include "xfraud/nn/kernels.h"
#include "xfraud/nn/modules.h"
#include "xfraud/nn/ops.h"
#include "normwise_error.h"

namespace xfraud::nn {
namespace {

Tensor RandomTensor(int64_t r, int64_t c, Rng* rng, float scale = 1.0f) {
  return Tensor::Uniform(r, c, scale, rng);
}

// ---------------------------------------------------------------------------
// Tensor::BitwiseEqual / SameShape semantics (the comparison the rest of
// this file is built on).

TEST(TensorEquality, SameShapeIgnoresContents) {
  Tensor a(2, 3, 1.0f);
  Tensor b(2, 3, -7.5f);
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.BitwiseEqual(b));
}

TEST(TensorEquality, BitwiseEqualRequiresShape) {
  Tensor a(2, 3, 1.0f);
  Tensor b(3, 2, 1.0f);
  EXPECT_FALSE(a.BitwiseEqual(b));
}

TEST(TensorEquality, EqualPayloadNaNsCompareEqual) {
  float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor a(1, 2, {nan, 1.0f});
  Tensor b(1, 2, {nan, 1.0f});
  EXPECT_TRUE(a.BitwiseEqual(b));  // == on floats would say false here
}

TEST(TensorEquality, SignedZerosCompareDifferent) {
  Tensor a(1, 1, 0.0f);
  Tensor b(1, 1, -0.0f);
  EXPECT_EQ(a.At(0, 0), b.At(0, 0));  // numeric equality
  EXPECT_FALSE(a.BitwiseEqual(b));    // bitwise difference detected
}

// ---------------------------------------------------------------------------
// Blocked GEMM vs naive reference, bit for bit. Shapes chosen to hit the
// micro-kernel edges: row remainders (n % 4 != 0), partial right-edge
// panels (m % 16 != 0), k and m off the 4/16 tile grid on both operands of
// the backward products, row counts that cross the 128-row chunk, and
// empty dimensions.

struct GemmShape {
  int64_t n, k, m;
};

const GemmShape kGemmShapes[] = {
    {1, 1, 1},     {3, 5, 2},    {4, 16, 16}, {5, 7, 3},   {17, 33, 19},
    {64, 64, 64},  {2, 64, 31},  {300, 33, 40}, {6611, 32, 32}, {5, 1, 17},
    {130, 17, 5},  {0, 8, 8},    {3, 0, 5},   {3, 5, 0}};

/// The NaN the hardware produces for an invalid operation (∞ − ∞), computed
/// at run time so constant folding cannot pick a different encoding.
float HardwareDefaultNaN() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

/// Random values with every IEEE special mixed in: ±0, NaN and ±Inf. The
/// blocked kernels must reproduce the reference's NaN/Inf propagation and
/// signed-zero results exactly. When two NaNs with different payloads meet
/// in an add, which one survives depends on the operand order the compiler
/// picks for a commutative op — in the reference loops as much as in the
/// kernels — so the NaN inputs use the encoding the hardware itself
/// generates for 0·∞ and ∞ − ∞: every NaN in the computation then has the
/// same bits, and BitwiseEqual still checks where NaNs land.
Tensor SpecialTensor(int64_t r, int64_t c, Rng* rng) {
  const float kSpecials[] = {0.0f, -0.0f, HardwareDefaultNaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  Tensor t = RandomTensor(r, c, rng);
  for (int64_t i = 0; i < t.size(); ++i) {
    uint64_t draw = rng->NextBounded(128);
    if (draw < 5) t.data()[i] = kSpecials[draw];
  }
  return t;
}

TEST(KernelConformance, GemmMatchesReferenceBitwise) {
  Rng rng(101);
  for (const GemmShape& s : kGemmShapes) {
    Tensor a = RandomTensor(s.n, s.k, &rng);
    Tensor b = RandomTensor(s.k, s.m, &rng);
    Tensor blocked(s.n, s.m);
    Tensor naive(s.n, s.m);
    kernels::Gemm(a, b, &blocked);
    kernels::reference::Gemm(a, b, &naive);
    EXPECT_TRUE(blocked.BitwiseEqual(naive))
        << "shape " << s.n << "x" << s.k << "x" << s.m;
  }
}

TEST(KernelConformance, GemmTransBAddMatchesReferenceBitwise) {
  Rng rng(102);
  for (const GemmShape& s : kGemmShapes) {
    Tensor g = SpecialTensor(s.n, s.m, &rng);
    Tensor b = SpecialTensor(s.k, s.m, &rng);
    // Non-zero initial accumulator: += semantics must match too.
    Tensor da0 = SpecialTensor(s.n, s.k, &rng);
    Tensor da_fast = da0;
    Tensor da_ref = da0;
    kernels::GemmTransBAdd(g, b, &da_fast);
    kernels::reference::GemmTransBAdd(g, b, &da_ref);
    EXPECT_TRUE(da_fast.BitwiseEqual(da_ref))
        << "shape " << s.n << "x" << s.k << "x" << s.m;
  }
}

TEST(KernelConformance, GemmTransAAddMatchesReferenceBitwise) {
  Rng rng(103);
  for (const GemmShape& s : kGemmShapes) {
    Tensor a = SpecialTensor(s.n, s.k, &rng);
    Tensor g = SpecialTensor(s.n, s.m, &rng);
    Tensor db0 = SpecialTensor(s.k, s.m, &rng);
    Tensor db_fast = db0;
    Tensor db_ref = db0;
    kernels::GemmTransAAdd(a, g, &db_fast);
    kernels::reference::GemmTransAAdd(a, g, &db_ref);
    EXPECT_TRUE(db_fast.BitwiseEqual(db_ref))
        << "shape " << s.n << "x" << s.k << "x" << s.m;
  }
}

TEST(KernelConformance, GemmBiasActZeroInnerDimIsBiasPlusAct) {
  Tensor a(2, 0);
  Tensor b(0, 3);
  std::vector<float> bias = {-1.0f, 0.5f, 2.0f};
  Tensor c(2, 3, -99.0f);
  kernels::GemmBiasAct(a, b, bias.data(), kernels::Activation::kRelu, &c);
  for (int64_t r = 0; r < 2; ++r) {
    EXPECT_EQ(c.At(r, 0), 0.0f);
    EXPECT_EQ(c.At(r, 1), 0.5f);
    EXPECT_EQ(c.At(r, 2), 2.0f);
  }
}

// The GEMM family's indexed row operands (kernels.h, "Row operands") vs
// gather → kernels::reference → scatter, bit for bit. The read indices are
// out of order and repeat rows; C's rows are out of order, distinct (the
// forward overwrites them) and interleaved with rows the product never
// touches; dA's repeat rows. Index lengths hit the 4-row remainder and the
// 128-row chunk, widths a partial 16-column panel, and k = 0 is covered.
// Every operand and starting accumulator carries ±0, NaN and ±Inf.

/// `len` row ids below `rows`, in random order, repeats allowed.
std::vector<int32_t> RandomRows(int64_t len, int64_t rows, Rng* rng) {
  std::vector<int32_t> idx(static_cast<size_t>(len));
  for (auto& i : idx) i = static_cast<int32_t>(rng->NextBounded(rows));
  return idx;
}

/// `len` distinct row ids below `rows` (>= len), in random order.
std::vector<int32_t> DistinctRows(int64_t len, int64_t rows, Rng* rng) {
  std::vector<int32_t> all(static_cast<size_t>(rows));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int32_t>(i);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng->NextBounded(i)]);
  }
  all.resize(static_cast<size_t>(len));
  return all;
}

Tensor Gathered(const Tensor& t, const std::vector<int32_t>* rows) {
  if (rows == nullptr) return t;
  Tensor out(static_cast<int64_t>(rows->size()), t.cols());
  kernels::GatherRows(t, *rows, &out);
  return out;
}

TEST(KernelConformance, IndexedGemmFamilyMatchesGatherReferenceScatter) {
  const GemmShape kShapes[] = {{1, 3, 5},  {3, 5, 2},   {4, 16, 16},
                               {7, 33, 19}, {130, 17, 40}, {5, 0, 17},
                               {6, 8, 0},  {0, 8, 8}};
  Rng rng(105);
  for (const GemmShape& s : kShapes) {
    const int64_t src_rows = s.n / 2 + 3;  // fewer rows than reads: repeats
    const int64_t dst_rows = s.n + 5;      // rows the product never touches
    const std::vector<int32_t> reads = RandomRows(s.n, src_rows, &rng);
    const std::vector<int32_t> reads2 = RandomRows(s.n, src_rows, &rng);
    const std::vector<int32_t> writes = DistinctRows(s.n, dst_rows, &rng);
    const std::vector<int32_t> adds = RandomRows(s.n, src_rows, &rng);
    for (bool index_read : {false, true}) {
      for (bool index_write : {false, true}) {
        SCOPED_TRACE("shape " + std::to_string(s.n) + "x" +
                     std::to_string(s.k) + "x" + std::to_string(s.m) +
                     (index_read ? ", indexed reads" : "") +
                     (index_write ? ", indexed writes" : ""));
        const std::vector<int32_t>* r1 = index_read ? &reads : nullptr;
        const std::vector<int32_t>* r2 = index_read ? &reads2 : nullptr;
        const std::vector<int32_t>* w = index_write ? &writes : nullptr;
        const std::vector<int32_t>* add = index_write ? &adds : nullptr;
        const int64_t a_rows = index_read ? src_rows : s.n;

        // C = act(A·B + bias), written through w: gather A, reference GEMM,
        // bias and act per element, then each row onto zeros.
        Tensor a = SpecialTensor(a_rows, s.k, &rng);
        Tensor b = SpecialTensor(s.k, s.m, &rng);
        Tensor bias = SpecialTensor(1, s.m, &rng);
        if (s.m > 0) bias.At(0, 0) = -0.0f;  // k = 0 must store +0 there
        Tensor c0 = SpecialTensor(index_write ? dst_rows : s.n, s.m, &rng);
        for (kernels::Activation act :
             {kernels::Activation::kNone, kernels::Activation::kRelu}) {
          for (const float* bias_ptr : {static_cast<const float*>(nullptr),
                                        static_cast<const float*>(bias.data())}) {
            Tensor c = c0;
            kernels::GemmBiasAct(a, b, bias_ptr, act, &c, r1, w);
            Tensor prod(s.n, s.m);
            kernels::reference::Gemm(Gathered(a, r1), b, &prod);
            Tensor want = c0;
            for (int64_t i = 0; i < s.n; ++i) {
              float* wrow =
                  want.Row(w != nullptr ? (*w)[static_cast<size_t>(i)] : i);
              for (int64_t j = 0; j < s.m; ++j) {
                float v = prod.At(i, j) +
                          (bias_ptr != nullptr ? bias_ptr[j] : 0.0f);
                if (act == kernels::Activation::kRelu) v = v > 0.0f ? v : 0.0f;
                wrow[j] = 0.0f + v;
              }
            }
            EXPECT_TRUE(c.BitwiseEqual(want))
                << "GemmBiasAct act=" << static_cast<int>(act)
                << " bias=" << (bias_ptr != nullptr);
          }
        }

        // dA += G·Bᵀ through G's read rows and dA's repeated rows.
        Tensor g = SpecialTensor(a_rows, s.m, &rng);
        Tensor bt = SpecialTensor(s.k, s.m, &rng);
        Tensor da0 = SpecialTensor(index_write ? src_rows : s.n, s.k, &rng);
        Tensor da = da0;
        kernels::GemmTransBAdd(g, bt, &da, r1, add);
        Tensor dots(s.n, s.k);
        kernels::reference::GemmTransBAdd(Gathered(g, r1), bt, &dots);
        Tensor da_want = da0;
        if (add != nullptr) {
          kernels::ScatterAddRowsKernel(dots, *add, &da_want);
        } else {
          da_want.AddInPlace(dots);
        }
        EXPECT_TRUE(da.BitwiseEqual(da_want)) << "GemmTransBAdd";

        // dB += Aᵀ·G and gb += colsum(G), reading both row operands through
        // their own (different) indices.
        Tensor g2 = SpecialTensor(a_rows, s.m, &rng);
        Tensor db0 = SpecialTensor(s.k, s.m, &rng);
        Tensor db = db0;
        kernels::GemmTransAAdd(a, g2, &db, r1, r2);
        Tensor db_want = db0;
        kernels::reference::GemmTransAAdd(Gathered(a, r1), Gathered(g2, r2),
                                          &db_want);
        EXPECT_TRUE(db.BitwiseEqual(db_want)) << "GemmTransAAdd";

        Tensor gb0 = SpecialTensor(1, s.m, &rng);
        Tensor gb = gb0;
        kernels::ColSumAdd(g2, &gb, r2);
        Tensor gb_want = gb0;
        Tensor g2_rows = Gathered(g2, r2);
        for (int64_t i = 0; i < s.n; ++i) {
          for (int64_t j = 0; j < s.m; ++j) gb_want.Row(0)[j] += g2_rows.At(i, j);
        }
        EXPECT_TRUE(gb.BitwiseEqual(gb_want)) << "ColSumAdd";
      }
    }
  }
}

TEST(KernelConformance, IndexedGemmFamilyRowOutOfRangeThrows) {
  // A row id outside [0, rows) of its operand, or an index whose length
  // disagrees with the other row operand, is a checked error (XF_CHECK:
  // every build type) in every kernel and for every operand.
  Rng rng(106);
  Tensor a = RandomTensor(4, 3, &rng);   // [n, k] rows read
  Tensor b = RandomTensor(3, 5, &rng);   // [k, m]
  Tensor g = RandomTensor(4, 5, &rng);   // [n, m] rows read
  Tensor c(4, 5);
  Tensor da(4, 3);
  Tensor db(3, 5);
  Tensor gb(1, 5);
  const std::vector<int32_t> ok = {3, 0, 0};
  for (int32_t bad : {-1, 4}) {
    SCOPED_TRACE("bad row " + std::to_string(bad));
    const std::vector<int32_t> idx = {0, bad, 1};
    EXPECT_THROW(kernels::GemmBiasAct(a, b, nullptr, kernels::Activation::kNone,
                                      &c, &idx, &ok),
                 CheckError);
    EXPECT_THROW(kernels::GemmBiasAct(a, b, nullptr, kernels::Activation::kNone,
                                      &c, &ok, &idx),
                 CheckError);
    EXPECT_THROW(kernels::GemmTransBAdd(g, b, &da, &idx, &ok), CheckError);
    EXPECT_THROW(kernels::GemmTransBAdd(g, b, &da, &ok, &idx), CheckError);
    EXPECT_THROW(kernels::GemmTransAAdd(a, g, &db, &idx, &ok), CheckError);
    EXPECT_THROW(kernels::GemmTransAAdd(a, g, &db, &ok, &idx), CheckError);
    EXPECT_THROW(kernels::ColSumAdd(g, &gb, &idx), CheckError);
  }
  // Three indexed rows against an operand read in order (four rows).
  EXPECT_THROW(kernels::GemmBiasAct(a, b, nullptr, kernels::Activation::kNone,
                                    &c, &ok, nullptr),
               CheckError);
  EXPECT_THROW(kernels::GemmTransBAdd(g, b, &da, nullptr, &ok), CheckError);
  EXPECT_THROW(kernels::GemmTransAAdd(a, g, &db, &ok, nullptr), CheckError);
}

// The gather/scatter kernels against hand-written loops: out[i] = a[idx[i]]
// (GatherRows), out[idx[r]] += a[r] ascending in r (ScatterAddRowsKernel)
// and out[i] += g[idx[i]] (GatherAddRows). Widths straddle the vector
// width; every index list repeats rows, and one is empty.
TEST(KernelConformance, GatherScatterMatchNaiveLoopsBitwise) {
  struct Case {
    int64_t src_rows, idx_len, cols;
  };
  const Case kCases[] = {{1, 1, 1},   {5, 12, 3},  {40, 257, 10},
                         {7, 0, 17},  {17, 300, 40}, {3, 9, 8}};
  Rng rng(104);
  for (const Case& cs : kCases) {
    SCOPED_TRACE("src_rows=" + std::to_string(cs.src_rows) +
                 " idx_len=" + std::to_string(cs.idx_len) +
                 " cols=" + std::to_string(cs.cols));
    std::vector<int32_t> idx(static_cast<size_t>(cs.idx_len));
    for (auto& i : idx) i = static_cast<int32_t>(rng.NextBounded(cs.src_rows));
    // ±0, NaN and ±Inf in the inputs and in the starting accumulators.
    Tensor src = SpecialTensor(cs.src_rows, cs.cols, &rng);
    Tensor per_idx = SpecialTensor(cs.idx_len, cs.cols, &rng);
    Tensor src_acc = SpecialTensor(cs.src_rows, cs.cols, &rng);
    Tensor idx_acc = SpecialTensor(cs.idx_len, cs.cols, &rng);

    Tensor gathered(cs.idx_len, cs.cols, -1.0f);
    kernels::GatherRows(src, idx, &gathered);
    Tensor gathered_want(cs.idx_len, cs.cols);
    for (int64_t i = 0; i < cs.idx_len; ++i) {
      for (int64_t c = 0; c < cs.cols; ++c) {
        gathered_want.Row(i)[c] = src.Row(idx[static_cast<size_t>(i)])[c];
      }
    }
    EXPECT_TRUE(gathered.BitwiseEqual(gathered_want)) << "GatherRows";

    Tensor scattered = src_acc;
    kernels::ScatterAddRowsKernel(per_idx, idx, &scattered);
    Tensor scattered_want = src_acc;
    for (int64_t r = 0; r < cs.idx_len; ++r) {
      float* orow = scattered_want.Row(idx[static_cast<size_t>(r)]);
      for (int64_t c = 0; c < cs.cols; ++c) orow[c] += per_idx.Row(r)[c];
    }
    EXPECT_TRUE(scattered.BitwiseEqual(scattered_want))
        << "ScatterAddRowsKernel";

    Tensor gather_added = idx_acc;
    kernels::GatherAddRows(src, idx, &gather_added);
    Tensor gather_added_want = idx_acc;
    for (int64_t i = 0; i < cs.idx_len; ++i) {
      const float* grow = src.Row(idx[static_cast<size_t>(i)]);
      for (int64_t c = 0; c < cs.cols; ++c) {
        gather_added_want.Row(i)[c] += grow[c];
      }
    }
    EXPECT_TRUE(gather_added.BitwiseEqual(gather_added_want))
        << "GatherAddRows";
  }

  // An index outside [0, rows) is a checked error in all three.
  Tensor src = RandomTensor(4, 3, &rng);
  for (int32_t bad : {-1, 4}) {
    std::vector<int32_t> idx = {0, bad, 1};
    Tensor out(3, 3);
    EXPECT_THROW(kernels::GatherRows(src, idx, &out), CheckError);
    EXPECT_THROW(kernels::GatherAddRows(src, idx, &out), CheckError);
    Tensor per_idx = RandomTensor(3, 3, &rng);
    Tensor acc(4, 3);
    EXPECT_THROW(kernels::ScatterAddRowsKernel(per_idx, idx, &acc),
                 CheckError);
  }
}

// ---------------------------------------------------------------------------
// Fused ops vs their composed equivalents, forward and backward, bit for
// bit. The fused kernels must be drop-in: same floats, same gradients, same
// RNG consumption.

TEST(FusedConformance, LinearBiasActMatchesComposedBitwise) {
  Rng rng(301);
  Tensor xt = RandomTensor(7, 5, &rng);
  Tensor wt = RandomTensor(5, 9, &rng);
  Tensor bt = RandomTensor(1, 9, &rng);

  Var x1(xt, true), w1(wt, true), b1(bt, true);
  Var fused = LinearBiasAct(x1, w1, b1, kernels::Activation::kRelu);
  Sum(fused).Backward();

  Var x2(xt, true), w2(wt, true), b2(bt, true);
  Var composed = Relu(AddRowBroadcast(MatMul(x2, w2), b2));
  Sum(composed).Backward();

  EXPECT_TRUE(fused.value().BitwiseEqual(composed.value()));
  EXPECT_TRUE(x1.grad().BitwiseEqual(x2.grad()));
  EXPECT_TRUE(w1.grad().BitwiseEqual(w2.grad()));
  EXPECT_TRUE(b1.grad().BitwiseEqual(b2.grad()));
}

TEST(FusedConformance, LinearModuleForwardIsFusedPath) {
  Rng rng(302);
  Linear lin(6, 4, &rng);
  Var x(RandomTensor(3, 6, &rng), false);
  Var via_module = lin.Forward(x, kernels::Activation::kRelu);
  Var composed = Relu(lin.Forward(x));
  EXPECT_TRUE(via_module.value().BitwiseEqual(composed.value()));
}

/// The composed (pre-fusion) attention aggregate: segment softmax, dropout,
/// per-head weighting via slice/broadcast/concat, the per-edge weight (when
/// defined) via one more broadcast, scatter-add.
Var ComposedAttentionAggregate(
    const Var& scores, const Var& values, const std::vector<int32_t>& dst,
    int64_t num_nodes, int64_t head_dim, float dropout_p, bool training,
    Rng* rng, const std::vector<int32_t>* mask_rows = nullptr,
    int64_t mask_block_rows = 0, const Var& edge_weight = Var()) {
  int64_t heads = scores.cols();
  Var att = SegmentSoftmax(scores, dst, num_nodes);
  att = Dropout(att, dropout_p, training, rng, mask_rows, mask_block_rows);
  Var messages;
  for (int64_t h = 0; h < heads; ++h) {
    Var v_h = SliceCols(values, h * head_dim, head_dim);
    Var att_h = SliceCols(att, h, 1);
    Var msg_h = MulColBroadcast(v_h, att_h);
    messages = messages.defined() ? ConcatCols(messages, msg_h) : msg_h;
  }
  if (edge_weight.defined()) messages = MulColBroadcast(messages, edge_weight);
  return ScatterAddRows(messages, dst, num_nodes);
}

/// A per-edge K/V row index into `rows` source rows: duplicates throughout,
/// and the last row is never read.
std::vector<int32_t> KvRows(size_t edges, int64_t rows, Rng* rng) {
  std::vector<int32_t> kv_row(edges);
  for (auto& r : kv_row) {
    r = static_cast<int32_t>(rng->NextBounded(std::max<int64_t>(rows - 1, 1)));
  }
  return kv_row;
}

/// A per-edge weight [edges, 1]: random values, except +0, −0, NaN, +Inf
/// and −Inf at the rows `special_rows` names, in that order.
Tensor EdgeWeights(int64_t edges, const std::array<int64_t, 5>& special_rows,
                   Rng* rng) {
  const float kSpecials[] = {0.0f, -0.0f, HardwareDefaultNaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  Tensor t = RandomTensor(edges, 1, rng);
  for (size_t i = 0; i < special_rows.size(); ++i) {
    t.At(special_rows[i], 0) = kSpecials[i];
  }
  return t;
}

TEST(FusedConformance, AttentionAggregateMatchesComposedBitwiseEval) {
  // The values live at 5 source rows; the composed oracle gathers them per
  // edge first. With the edge weight, targets 0 and 3 stay finite and
  // targets 1 and 2 read ±0, NaN and ±Inf weights.
  Rng rng(303);
  const int64_t kHeads = 2;
  const int64_t kHeadDim = 3;
  std::vector<int32_t> dst = {1, 0, 1, 2, 2, 3, 0, 1};
  std::vector<int32_t> kv_row = KvRows(dst.size(), 5, &rng);
  int64_t edges = static_cast<int64_t>(dst.size());
  Tensor st = RandomTensor(edges, kHeads, &rng, 2.0f);
  Tensor vt = RandomTensor(5, kHeads * kHeadDim, &rng);
  Tensor mt = EdgeWeights(edges, {0, 1, 2, 3, 4}, &rng);

  for (bool weighted : {false, true}) {
    SCOPED_TRACE(weighted ? "edge weight" : "no weight");
    Var s1(st, true), v1(vt, true), m1(mt, true);
    Var fused = AttentionAggregate(s1, v1, kv_row, dst, 4, kHeadDim,
                                   /*dropout_p=*/0.5f, /*training=*/false,
                                   nullptr, nullptr, 0,
                                   weighted ? m1 : Var());
    Sum(fused).Backward();

    Var s2(st, true), v2(vt, true), m2(mt, true);
    Var composed = ComposedAttentionAggregate(
        s2, IndexRows(v2, kv_row), dst, 4, kHeadDim, 0.5f, false, nullptr,
        nullptr, 0, weighted ? m2 : Var());
    Sum(composed).Backward();

    EXPECT_TRUE(fused.value().BitwiseEqual(composed.value()));
    EXPECT_TRUE(s1.grad().BitwiseEqual(s2.grad()));
    EXPECT_TRUE(v1.grad().BitwiseEqual(v2.grad()));
    EXPECT_TRUE(m1.grad().BitwiseEqual(m2.grad()));
  }
}

TEST(FusedConformance, AttentionAggregateMatchesComposedBitwiseTraining) {
  // Training mode: the fused kernel must consume dropout randomness in the
  // exact order of the unfused Dropout op, so same-seeded runs coincide —
  // also when the edges are some rows of a larger edge block whose mask
  // rows they read, and with a per-edge weight. ±0, NaN and ±Inf in the
  // values, the weight and the upstream gradient; the values also feed a
  // second consumer, so the order in which their gradient terms accumulate
  // is compared too.
  Rng rng(304);
  const int64_t kHeads = 3;
  const int64_t kHeadDim = 2;
  const int64_t kRows = 6;
  std::vector<int32_t> dst = {0, 2, 1, 1, 0, 2, 2, 0, 1, 2};
  std::vector<int32_t> kv_row = KvRows(dst.size(), kRows, &rng);
  int64_t edges = static_cast<int64_t>(dst.size());
  Tensor st = RandomTensor(edges, kHeads, &rng, 2.0f);
  Tensor vt = SpecialTensor(kRows, kHeads * kHeadDim, &rng);
  Tensor upstream = SpecialTensor(3, kHeads * kHeadDim, &rng);
  Tensor mt = EdgeWeights(edges, {7, 2, 1, 5, 9}, &rng);

  // The edges as rows of a 16-row block, out of order.
  const std::vector<int32_t> block_rows = {15, 0, 3, 2, 8, 9, 11, 5, 12, 14};
  for (const std::vector<int32_t>* mask_rows : {
           static_cast<const std::vector<int32_t>*>(nullptr), &block_rows}) {
    for (bool weighted : {false, true}) {
      SCOPED_TRACE(std::string(mask_rows == nullptr ? "own rows"
                                                    : "block rows") +
                   (weighted ? ", edge weight" : ", no weight"));
      auto run = [&](bool fused, Var* s, Var* v, Var* m, Rng* drop) {
        Var weight = weighted ? *m : Var();
        Var out =
            fused ? AttentionAggregate(*s, *v, kv_row, dst, 3, kHeadDim,
                                       /*dropout_p=*/0.3f, /*training=*/true,
                                       drop, mask_rows, 16, weight)
                  : ComposedAttentionAggregate(*s, IndexRows(*v, kv_row), dst,
                                               3, kHeadDim, 0.3f, true, drop,
                                               mask_rows, 16, weight);
        Add(Sum(Mul(out, Constant(upstream))), Sum(Tanh(*v))).Backward();
        return out;
      };
      Var s1(st, true), v1(vt, true), m1(mt, true);
      Rng drop1(42);
      Var fused = run(true, &s1, &v1, &m1, &drop1);
      Var s2(st, true), v2(vt, true), m2(mt, true);
      Rng drop2(42);
      Var composed = run(false, &s2, &v2, &m2, &drop2);

      EXPECT_TRUE(fused.value().BitwiseEqual(composed.value()));
      EXPECT_TRUE(s1.grad().BitwiseEqual(s2.grad()));
      EXPECT_TRUE(v1.grad().BitwiseEqual(v2.grad()));
      EXPECT_TRUE(m1.grad().BitwiseEqual(m2.grad()));
      EXPECT_EQ(drop1.NextUint64(), drop2.NextUint64());
    }
  }
}

/// The composed (pre-fusion) typed linear: per type, gather the rows, run
/// the type's linear, scatter into a zeroed [N,out] block and Add the
/// blocks. TypedLinear replaced this chain in core::ApplyTypedLinear.
Var ComposedTypedLinear(const Var& x, const std::vector<int32_t>& types,
                        const std::vector<Var>& weights,
                        const std::vector<Var>& biases) {
  std::vector<std::vector<int32_t>> rows_by_type(weights.size());
  for (size_t r = 0; r < types.size(); ++r) {
    rows_by_type[types[r]].push_back(static_cast<int32_t>(r));
  }
  Var out;
  for (size_t t = 0; t < weights.size(); ++t) {
    if (rows_by_type[t].empty()) continue;
    Var gathered = IndexRows(x, rows_by_type[t]);
    Var mapped = LinearBiasAct(gathered, weights[t], biases[t]);
    Var scattered = ScatterAddRows(mapped, rows_by_type[t], x.rows());
    out = out.defined() ? Add(out, scattered) : scattered;
  }
  return out;
}

TEST(FusedConformance, TypedLinearMatchesComposedBitwise) {
  Rng rng(305);
  const int64_t kRows = 37;
  const int64_t kXRows = 23;  // x's rows under the row list
  const int64_t kIn = 6;
  const int64_t kOut = 5;
  // Four types: type 1 is bias-free, type 2 has no rows.
  std::vector<int32_t> types(kRows);
  for (auto& t : types) {
    t = static_cast<int32_t>(rng.NextBounded(3));
    if (t == 2) t = 3;
  }
  // The row list: out of order, and repeating rows within a type (x row r
  // is only ever read under type r % 4, so no row is read under two types).
  std::vector<int32_t> row_list(kRows);
  for (size_t i = 0; i < row_list.size(); ++i) {
    row_list[i] = static_cast<int32_t>(
        4 * rng.NextBounded((kXRows - 1 - types[i]) / 4 + 1) + types[i]);
  }
  Tensor upstream = RandomTensor(kRows, kOut, &rng);
  std::vector<Tensor> wt;
  std::vector<Tensor> bt;
  for (int t = 0; t < 4; ++t) {
    wt.push_back(RandomTensor(kIn, kOut, &rng));
    bt.push_back(RandomTensor(1, kOut, &rng));
  }

  struct Run {
    Var x;
    std::vector<Var> weights;
    std::vector<Var> biases;
    Var out;
  };
  for (const std::vector<int32_t>* rows :
       {static_cast<const std::vector<int32_t>*>(nullptr),
        static_cast<const std::vector<int32_t>*>(&row_list)}) {
    Tensor xt = RandomTensor(rows != nullptr ? kXRows : kRows, kIn, &rng);
    // The oracle reads the row list through its own IndexRows node.
    auto typed = [&](bool fused, Run* r) {
      if (fused) return TypedLinear(r->x, types, r->weights, r->biases, rows);
      Var x = rows != nullptr ? IndexRows(r->x, *rows) : r->x;
      return ComposedTypedLinear(x, types, r->weights, r->biases);
    };
    auto make_run = [&](bool x_grad) {
      Run r;
      r.x = Var(xt, x_grad);
      for (int t = 0; t < 4; ++t) {
        r.weights.emplace_back(wt[static_cast<size_t>(t)], true);
        r.biases.push_back(t == 1 ? Var()
                                  : Var(bt[static_cast<size_t>(t)], true));
      }
      return r;
    };
    // x also feeds a second consumer (Tanh), so the order in which its two
    // gradient contributions accumulate is compared too.
    auto run = [&](bool fused, bool x_grad) {
      Run r = make_run(x_grad);
      r.out = typed(fused, &r);
      Add(Sum(Mul(r.out, Constant(upstream))), Sum(Tanh(r.x))).Backward();
      return r;
    };

    SCOPED_TRACE(rows != nullptr ? "row list" : "x's own rows");
    for (bool x_grad : {true, false}) {
      Run fused = run(true, x_grad);
      Run composed = run(false, x_grad);
      SCOPED_TRACE("x_grad=" + std::to_string(x_grad));
      EXPECT_TRUE(fused.out.value().BitwiseEqual(composed.out.value()));
      EXPECT_EQ(fused.x.requires_grad(), x_grad);
      if (x_grad) {
        EXPECT_TRUE(fused.x.grad().BitwiseEqual(composed.x.grad()));
      }
      for (size_t t = 0; t < 4; ++t) {
        EXPECT_EQ(fused.weights[t].impl()->grad.size(),
                  composed.weights[t].impl()->grad.size());
        EXPECT_TRUE(fused.weights[t].impl()->grad.BitwiseEqual(
            composed.weights[t].impl()->grad))
            << "W_" << t;
        if (!fused.biases[t].defined()) continue;
        EXPECT_TRUE(fused.biases[t].impl()->grad.BitwiseEqual(
            composed.biases[t].impl()->grad))
            << "b_" << t;
      }
      // The empty type's parameters never get a gradient buffer.
      EXPECT_EQ(fused.weights[2].impl()->grad.size(), 0);
    }

    // Under a NoGradGuard: the same value, and no tape.
    NoGradGuard guard;
    Run fused = make_run(true);
    Run composed = make_run(true);
    Var fused_out = typed(true, &fused);
    EXPECT_TRUE(fused_out.value().BitwiseEqual(typed(false, &composed).value()));
    EXPECT_FALSE(fused_out.requires_grad());
  }
}

/// The composed (pre-fusion) eq. 8 scores: gather the queries and the
/// per-type attention rows per edge, then per head SliceCols → Mul →
/// RowSum → Add → Scale, joined by ConcatCols. AttentionScores replaced
/// this chain in core::HeteroConvLayer::Forward.
Var ComposedAttentionScores(const Var& k_edges, const Var& q_nodes,
                            const std::vector<int32_t>& edge_dst,
                            const Var& w_att_src,
                            const std::vector<int32_t>& src_types,
                            const Var& w_att_dst,
                            const std::vector<int32_t>& dst_types,
                            int num_heads, float scale) {
  int64_t head_dim = k_edges.cols() / num_heads;
  Var q_edges = IndexRows(q_nodes, edge_dst);
  Var w_src_edges = IndexRows(w_att_src, src_types);
  Var w_dst_edges = IndexRows(w_att_dst, dst_types);
  Var scores;
  for (int h = 0; h < num_heads; ++h) {
    int64_t off = h * head_dim;
    Var k_h = SliceCols(k_edges, off, head_dim);
    Var q_h = SliceCols(q_edges, off, head_dim);
    Var ws_h = SliceCols(w_src_edges, off, head_dim);
    Var wd_h = SliceCols(w_dst_edges, off, head_dim);
    Var score_h = Scale(Add(RowSum(Mul(k_h, ws_h)), RowSum(Mul(q_h, wd_h))),
                        scale);
    scores = scores.defined() ? ConcatCols(scores, score_h) : score_h;
  }
  return scores;
}

TEST(FusedConformance, AttentionScoresMatchesComposedBitwise) {
  struct Case {
    int64_t edges, nodes;
    int heads;
    int64_t head_dim;
  };
  // The detector's shape (4 heads of 8), an off-grid head width, one head,
  // a single edge and no edges at all. Targets and types repeat, and the
  // keys live at `nodes` source rows read through a per-edge index with
  // duplicates and an unread row; the composed oracle gathers them per
  // edge first.
  const Case kCases[] = {{300, 40, 4, 8},
                         {37, 9, 4, 3},
                         {23, 5, 1, 5},
                         {1, 1, 1, 1},
                         {0, 4, 4, 2}};
  // Which of k, q_nodes, w_att_src, w_att_dst require gradients.
  const std::array<bool, 4> kGradMasks[] = {{true, true, true, true},
                                            {true, true, false, false},
                                            {false, false, true, true},
                                            {false, true, true, false},
                                            {false, false, false, false}};
  const char* kNames[] = {"k", "q_nodes", "w_att_src", "w_att_dst"};
  Rng rng(307);
  for (const Case& cs : kCases) {
    int64_t dim = cs.heads * cs.head_dim;
    // ±0, NaN and ±Inf in every operand and in the upstream gradient.
    Tensor kt = SpecialTensor(cs.nodes, dim, &rng);
    Tensor qt = SpecialTensor(cs.nodes, dim, &rng);
    Tensor wst = SpecialTensor(3, dim, &rng);
    Tensor wdt = SpecialTensor(2, dim, &rng);
    Tensor upstream = SpecialTensor(cs.edges, cs.heads, &rng);
    std::vector<int32_t> dst(static_cast<size_t>(cs.edges));
    std::vector<int32_t> src_types(dst.size());
    std::vector<int32_t> dst_types(dst.size());
    for (size_t e = 0; e < dst.size(); ++e) {
      dst[e] = static_cast<int32_t>(rng.NextBounded(cs.nodes));
      src_types[e] = static_cast<int32_t>(rng.NextBounded(3));
      dst_types[e] = static_cast<int32_t>(rng.NextBounded(2));
    }
    std::vector<int32_t> kv_row = KvRows(dst.size(), cs.nodes, &rng);
    float scale = 1.0f / std::sqrt(static_cast<float>(cs.head_dim));

    for (const auto& grads : kGradMasks) {
      // k and q_nodes also feed a second consumer (Tanh), so the order in
      // which their gradient contributions accumulate is compared too.
      auto run = [&](bool fused) {
        std::vector<Var> ops = {Var(kt, grads[0]), Var(qt, grads[1]),
                                Var(wst, grads[2]), Var(wdt, grads[3])};
        Var scores =
            fused ? AttentionScores(ops[0], kv_row, ops[1], dst, ops[2],
                                    src_types, ops[3], dst_types, cs.heads,
                                    scale)
                  : ComposedAttentionScores(IndexRows(ops[0], kv_row), ops[1],
                                            dst, ops[2], src_types, ops[3],
                                            dst_types, cs.heads, scale);
        Var loss = Add(Sum(Mul(scores, Constant(upstream))),
                       Add(Sum(Tanh(ops[0])), Sum(Tanh(ops[1]))));
        if (loss.requires_grad()) loss.Backward();
        ops.push_back(scores);
        return ops;
      };
      std::vector<Var> fused = run(true);
      std::vector<Var> composed = run(false);
      SCOPED_TRACE("edges=" + std::to_string(cs.edges) +
                   " heads=" + std::to_string(cs.heads) + " grads=" +
                   std::to_string(grads[0]) + std::to_string(grads[1]) +
                   std::to_string(grads[2]) + std::to_string(grads[3]));
      EXPECT_TRUE(fused[4].value().BitwiseEqual(composed[4].value()));
      EXPECT_EQ(fused[4].requires_grad(), composed[4].requires_grad());
      for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(fused[i].impl()->grad.size(),
                  composed[i].impl()->grad.size())
            << kNames[i];
        EXPECT_TRUE(
            fused[i].impl()->grad.BitwiseEqual(composed[i].impl()->grad))
            << kNames[i];
      }
    }
  }
}

TEST(FusedConformance, AttentionScoresAliasedKeysAndQueriesMatchCopies) {
  // GAT passes one Var as both k and q_nodes. The value equals that of two
  // distinct copies bit for bit; the one gradient takes both terms edge by
  // edge, so it equals the copies' summed gradient up to rounding, within
  // DESIGN §13.5's norm-wise bound. The attention rows' gradients do not
  // depend on the aliasing and stay bitwise.
  Rng rng(308);
  const int64_t kNodes = 9;
  const int kHeads = 2;
  const int64_t kDim = 6;
  const size_t kEdges = 40;
  Tensor zt = RandomTensor(kNodes, kDim, &rng);
  Tensor wst = RandomTensor(2, kDim, &rng);
  Tensor wdt = RandomTensor(2, kDim, &rng);
  Tensor upstream = RandomTensor(static_cast<int64_t>(kEdges), kHeads, &rng);
  std::vector<int32_t> src(kEdges);
  std::vector<int32_t> dst(kEdges);
  std::vector<int32_t> src_types(kEdges);
  std::vector<int32_t> dst_types(kEdges);
  for (size_t e = 0; e < kEdges; ++e) {
    src[e] = static_cast<int32_t>(rng.NextBounded(kNodes));
    dst[e] = static_cast<int32_t>(rng.NextBounded(kNodes));
    src_types[e] = static_cast<int32_t>(rng.NextBounded(2));
    dst_types[e] = static_cast<int32_t>(rng.NextBounded(2));
  }
  auto scores_of = [&](const Var& k, const Var& q, const Var& ws,
                       const Var& wd) {
    Var scores = AttentionScores(k, src, q, dst, ws, src_types, wd,
                                 dst_types, kHeads, 0.5f);
    Sum(Mul(scores, Constant(upstream))).Backward();
    return scores;
  };
  Var z(zt, true), ws1(wst, true), wd1(wdt, true);
  Var aliased = scores_of(z, z, ws1, wd1);
  Var k(zt, true), q(zt, true), ws2(wst, true), wd2(wdt, true);
  Var copies = scores_of(k, q, ws2, wd2);

  EXPECT_TRUE(aliased.value().BitwiseEqual(copies.value()));
  Tensor summed = k.grad();
  summed.AddInPlace(q.grad());
  EXPECT_LE(NormwiseRelativeError(z.grad(), summed), 1e-5);
  EXPECT_TRUE(ws1.grad().BitwiseEqual(ws2.grad()));
  EXPECT_TRUE(wd1.grad().BitwiseEqual(wd2.grad()));
}

// ---------------------------------------------------------------------------
// Regression: MatMul's old `if (aik == 0.0f) continue;` shortcut swallowed
// 0·NaN and 0·Inf (which are NaN by IEEE 754) in the forward pass and the
// dB = AᵀG backward product. These tests fail on the pre-kernel code.

TEST(NanPropagation, MatMulForwardPropagatesZeroTimesNaN) {
  float nan = std::numeric_limits<float>::quiet_NaN();
  Var a(Tensor(1, 2, {0.0f, 1.0f}), false);
  Var b(Tensor(2, 1, {nan, 2.0f}), false);
  Var c = MatMul(a, b);
  // 0·NaN + 1·2 is NaN; the zero-skip used to report 2.
  EXPECT_TRUE(std::isnan(c.value().At(0, 0)));
}

TEST(NanPropagation, MatMulForwardPropagatesZeroTimesInf) {
  float inf = std::numeric_limits<float>::infinity();
  Var a(Tensor(1, 2, {0.0f, 1.0f}), false);
  Var b(Tensor(2, 1, {inf, 2.0f}), false);
  Var c = MatMul(a, b);
  // 0·inf is NaN; the zero-skip used to report 2.
  EXPECT_TRUE(std::isnan(c.value().At(0, 0)));
}

TEST(NanPropagation, MatMulBackwardPropagatesThroughZeroActivation) {
  // dB[0,0] = A[0,0]·G[0,0] + A[1,0]·G[1,0] = 0·inf + 1·1 = NaN. The old
  // backward skipped the A[0,0] == 0 term and reported a finite 1.
  float inf = std::numeric_limits<float>::infinity();
  Var a(Tensor(2, 1, {0.0f, 1.0f}), false);
  Var b(Tensor(1, 1, {3.0f}), true);
  Var c = MatMul(a, b);
  Var k = Constant(Tensor(2, 1, {inf, 1.0f}));
  Sum(Mul(c, k)).Backward();
  EXPECT_TRUE(std::isnan(b.grad().At(0, 0)));
}

// ---------------------------------------------------------------------------
// Regression: RowSoftmax / CrossEntropy used to read x[0] before checking
// cols > 0, and CrossEntropy divided by a possibly-zero total weight.

TEST(EdgeChecks, RowSoftmaxZeroColumnsThrows) {
  Var x(Tensor(2, 0), false);
  EXPECT_THROW(RowSoftmax(x), CheckError);
}

TEST(EdgeChecks, CrossEntropyZeroColumnsThrows) {
  Var logits(Tensor(2, 0), true);
  std::vector<int> labels = {0, 0};
  EXPECT_THROW(CrossEntropy(logits, labels), CheckError);
}

TEST(EdgeChecks, CrossEntropyZeroTotalWeightThrows) {
  Rng rng(401);
  Var logits(RandomTensor(3, 2, &rng), true);
  std::vector<int> labels = {1, 1, 1};
  std::vector<float> weights = {1.0f, 0.0f};  // every present class weight 0
  EXPECT_THROW(CrossEntropy(logits, labels, weights), CheckError);
}

TEST(EdgeChecks, AttentionScoresIndexOutOfBoundsThrows) {
  Rng rng(402);
  Var k(RandomTensor(2, 4, &rng), true);
  Var q(RandomTensor(3, 4, &rng), true);
  Var ws(RandomTensor(2, 4, &rng), true);
  Var wd(RandomTensor(2, 4, &rng), true);
  std::vector<int32_t> ok = {0, 1};
  EXPECT_NO_THROW(AttentionScores(k, ok, q, ok, ws, ok, wd, ok, 2, 1.0f));
  std::vector<int32_t> bad_node = {0, 3};
  std::vector<int32_t> bad_row = {2, 0};
  std::vector<int32_t> bad_type = {-1, 0};
  EXPECT_THROW(AttentionScores(k, bad_row, q, ok, ws, ok, wd, ok, 2, 1.0f),
               CheckError);
  EXPECT_THROW(AttentionScores(k, ok, q, bad_node, ws, ok, wd, ok, 2, 1.0f),
               CheckError);
  EXPECT_THROW(AttentionScores(k, ok, q, ok, ws, bad_type, wd, ok, 2, 1.0f),
               CheckError);
  EXPECT_THROW(AttentionScores(k, ok, q, ok, ws, ok, wd, bad_type, 2, 1.0f),
               CheckError);
  EXPECT_THROW(AttentionScores(k, ok, q, ok, ws, ok, wd, ok, 3, 1.0f),
               CheckError);  // 4 columns do not split into 3 heads
  EXPECT_THROW(AttentionScores(k, ok, q, ok, ws, ok, wd, ok, 0, 1.0f),
               CheckError);
}

TEST(EdgeChecks, AttentionAggregateKvRowOutOfBoundsThrows) {
  Rng rng(403);
  Var s(RandomTensor(2, 2, &rng), true);
  Var v(RandomTensor(2, 4, &rng), true);
  std::vector<int32_t> dst = {0, 1};
  EXPECT_NO_THROW(AttentionAggregate(s, v, {1, 1}, dst, 2, 2, 0.0f, false,
                                     nullptr));
  EXPECT_THROW(AttentionAggregate(s, v, {0, 2}, dst, 2, 2, 0.0f, false,
                                  nullptr),
               CheckError);
  EXPECT_THROW(AttentionAggregate(s, v, {-1, 0}, dst, 2, 2, 0.0f, false,
                                  nullptr),
               CheckError);
  EXPECT_THROW(AttentionAggregate(s, v, {0}, dst, 2, 2, 0.0f, false, nullptr),
               CheckError);
}

}  // namespace
}  // namespace xfraud::nn
