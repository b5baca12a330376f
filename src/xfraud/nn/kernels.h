#ifndef XFRAUD_NN_KERNELS_H_
#define XFRAUD_NN_KERNELS_H_

#include <cstdint>
#include <vector>

#include "xfraud/nn/tensor.h"

namespace xfraud::nn::kernels {

// The compute-kernel layer under the autograd ops (DESIGN.md §13): blocked,
// fused, serial inner loops. Three contracts hold for every kernel here:
//
//   1. *Bitwise conformance.* Each kernel produces bit-identical floats to
//      the naive reference implementation in kernels::reference (asserted by
//      tests/nn_kernels_test.cc via Tensor::BitwiseEqual). Blocking and
//      packing change the traversal, never the per-element accumulation
//      order, which stays ascending in the reduction index (k for GEMM, the
//      i/edge id for column sums and scatters).
//
//   2. *Serial, fixed-order kernels.* Every kernel runs on its caller's
//      thread, keeps no global state and reduces each output element in the
//      fixed order above. Parallelism lives at process level: DDP ranks,
//      the forked serving tier and the BatchLoader sampler workers.
//
//   3. *ISA clones, no contraction.* On x86-64 every kernel below (not the
//      kernels::reference oracle) is compiled twice, for AVX2 and for the
//      baseline ISA, and the loader picks the AVX2 clone on hosts that have
//      it. Vector lanes only ever run independent output elements side by
//      side, and the library builds with -ffp-contract=off (no a·b + c
//      fused into one rounding), so both clones produce the reference's
//      bits. There is no knob: the choice is the host's. (ThreadSanitizer
//      builds, whose runtime can not run the clone resolver, get the
//      baseline body only.)
//
// Kernels never skip terms (no zero-shortcuts): 0·NaN and 0·Inf must
// propagate, and timing must not depend on the data.

/// Optional activation fused into the GEMM epilogue.
enum class Activation { kNone, kRelu };

// Row operands. The GEMM family below (GemmBiasAct, GemmTransBAdd,
// GemmTransAAdd, ColSumAdd) takes an optional row index for each operand
// that is read or written by rows: with one set, the product's row i is
// that tensor's row (*rows)[i]; null means row i itself. So a typed
// projection reads its input rows and writes its output rows in place, with
// no gathered or scattered copy. The product has as many rows as the index
// (or the tensor, when null), and both row operands must agree on it. Every
// index is bounds-checked (XF_CHECK, every build type). An index need not be
// sorted, and one that is read may repeat a row; so may dA's, whose repeated
// row takes one term per entry, ascending in i. Every bit is that of
// gathering the read rows, running the kernel on contiguous rows and
// scatter-adding the written rows back in ascending i (GemmBiasAct: onto a
// zeroed block, so its c_rows must not repeat a row).

/// C = act(A·B + bias). A [n,k], B [k,m], C preallocated [n,m] (overwritten).
/// `bias` is nullptr (no bias) or a length-m row added before `act`.
/// Each dot product accumulates from +0 (k = 0 leaves the +0), so no
/// stored value is −0 and writing a row equals adding it onto a zeroed
/// block. `a_rows` / `c_rows` index A's and C's rows (see above).
/// Cache-blocked over B panels (a packed column-tile layout) with a
/// register-tiled micro-kernel.
void GemmBiasAct(const Tensor& a, const Tensor& b, const float* bias,
                 Activation act, Tensor* c,
                 const std::vector<int32_t>* a_rows = nullptr,
                 const std::vector<int32_t>* c_rows = nullptr);

/// C = A·B (no bias, no activation).
void Gemm(const Tensor& a, const Tensor& b, Tensor* c);

/// dA += G·Bᵀ. G [n,m], B [k,m], dA [n,k]. Bᵀ is packed into the forward
/// kernel's column panels and runs through its register-tiled micro-kernel:
/// each dot product accumulates from 0 over j ascending, then is added to
/// dA once. `g_rows` / `da_rows` index G's and dA's rows.
void GemmTransBAdd(const Tensor& g, const Tensor& b, Tensor* da,
                   const std::vector<int32_t>* g_rows = nullptr,
                   const std::vector<int32_t>* da_rows = nullptr);

/// dB += Aᵀ·G. A [n,k], G [n,m], dB [k,m]. Register-tiled: each 4-row x
/// 16-column tile of dB is held in registers while i ascends over a
/// row chunk, starting from dB's own value — the reference's per-element
/// order. `a_rows` / `g_rows` index A's and G's rows.
void GemmTransAAdd(const Tensor& a, const Tensor& g, Tensor* db,
                   const std::vector<int32_t>* a_rows = nullptr,
                   const std::vector<int32_t>* g_rows = nullptr);

/// gb[0,:] += column sums of G, reduced over rows in ascending order;
/// `g_rows` indexes G's rows.
void ColSumAdd(const Tensor& g, Tensor* gb,
               const std::vector<int32_t>* g_rows = nullptr);

/// CSR-style grouping of row ids by group: rows[offsets[g]..offsets[g+1])
/// lists, in ascending row order, every r with group_of_row[r] == g, so a
/// grouped kernel can reduce each group (a segment softmax needs a whole
/// segment at once) ascending in r — the order of the edge-loop reference.
struct RowGroups {
  int64_t num_groups = 0;
  std::vector<int64_t> offsets;  // size num_groups + 1
  std::vector<int32_t> rows;     // size = |group_of_row|, grouped
};

/// Builds RowGroups by stable counting sort. Checks every id is in
/// [0, num_groups).
RowGroups BuildRowGroups(const std::vector<int32_t>& group_of_row,
                         int64_t num_groups);

/// out[i,:] = a[idx[i],:]. out preallocated [|idx|, a.cols]. Every index is
/// bounds-checked.
void GatherRows(const Tensor& a, const std::vector<int32_t>& idx, Tensor* out);

/// out[idx[r],:] += a[r,:]. Streams a in row order, so each output element
/// accumulates its terms ascending in r. Every index is bounds-checked.
void ScatterAddRowsKernel(const Tensor& a, const std::vector<int32_t>& idx,
                          Tensor* out);

/// out[i,:] += g[idx[i],:] — the backward of a scatter-add (a gather with
/// accumulate). Every index is bounds-checked.
void GatherAddRows(const Tensor& g, const std::vector<int32_t>& idx,
                   Tensor* out);

/// att = per-(segment, column) softmax of scores, segments given as row
/// groups. Bit-identical to the unfused SegmentSoftmax op: per-segment
/// max/sum reductions run ascending in the row id.
void SegmentSoftmaxGrouped(const Tensor& scores, const RowGroups& groups,
                           Tensor* att);

/// out[g, h·hd+c] += Σ_{r in group g} w[r,h]·v[kv_row[r], h·hd+c],
/// ascending r. w is [R, H], v is [U, H·hd] and read through the per-row
/// kv_row index. The fused "apply attention then aggregate" step: one pass
/// over v instead of per-head slice/broadcast/concat/scatter round trips.
/// A non-null `edge_weight` (one m[r] per row) makes each term (w·v)·m[r].
void WeightedScatterAddByGroup(const Tensor& v,
                               const std::vector<int32_t>& kv_row,
                               const Tensor& w, const float* edge_weight,
                               const RowGroups& groups, int64_t head_dim,
                               Tensor* out);

/// dv[kv_row[r], h·hd+c] += 0 + w[r,h]·gout[dst[r], h·hd+c], r ascending —
/// the value-side backward of the fused attention aggregate. Each term is
/// first added onto 0, as a per-row grad block would hold it, so the result
/// equals a gather of v through kv_row followed by the per-row backward.
void WeightedGatherAdd(const Tensor& gout, const std::vector<int32_t>& dst,
                       const std::vector<int32_t>& kv_row, const Tensor& w,
                       int64_t head_dim, Tensor* dv);

/// dw[r,h] = Σ_c v[kv_row[r], h·hd+c]·gout[dst[r], h·hd+c], ascending c —
/// the attention-weight backward (per-edge, per-head dot). Overwrites dw.
void PerHeadDots(const Tensor& gout, const std::vector<int32_t>& dst,
                 const Tensor& v, const std::vector<int32_t>& kv_row,
                 int64_t head_dim, Tensor* dw);

/// dscores[r,:] += att[r,:]·(datt[r,:] − dot[g(r),:]) with
/// dot[g,c] = Σ_{r in group g} att[r,c]·datt[r,c], ascending r — the
/// segment-softmax backward.
void SegmentSoftmaxBackwardGrouped(const Tensor& att, const Tensor& datt,
                                   const RowGroups& groups, Tensor* dscores);

/// The attention scores of paper eq. 8, one pass over the edges:
/// scores[e,h] = scale·(Σ_c k[kv_row[e],o+c]·w_src[src_types[e],o+c] +
///                      Σ_c q[dst[e],o+c]·w_dst[dst_types[e],o+c]),
/// o = h·hd, hd = D / H, each sum starting from 0 with c ascending. k is
/// [U,D] (per source row, read through kv_row), q [N,D] (per node, read
/// through dst), w_src and w_dst one row per endpoint type; scores is
/// preallocated [E,H]. Every index is bounds-checked.
void AttentionScores(const Tensor& k, const std::vector<int32_t>& kv_row,
                     const Tensor& q, const std::vector<int32_t>& dst,
                     const Tensor& w_src,
                     const std::vector<int32_t>& src_types,
                     const Tensor& w_dst,
                     const std::vector<int32_t>& dst_types, float scale,
                     Tensor* scores);

/// Backward of AttentionScores for the upstream grad g [E,H]. Per edge e
/// ascending, with a = 0 + g[e,h]·scale for each column of head h:
/// dk[kv_row[e],·] += 0 + a·w_src[src_types[e],·],
/// dw_src[src_types[e],·] += 0 + a·k[kv_row[e],·],
/// dq[dst[e],·] += 0 + a·w_dst[dst_types[e],·] and
/// dw_dst[dst_types[e],·] += 0 + a·q[dst[e],·]. A null grad is skipped.
/// Every shared row takes its terms in ascending e, so dk equals a gather
/// of k through kv_row followed by the per-edge backward.
void AttentionScoresBackward(const Tensor& g, const Tensor& k,
                             const std::vector<int32_t>& kv_row,
                             const Tensor& q, const std::vector<int32_t>& dst,
                             const Tensor& w_src,
                             const std::vector<int32_t>& src_types,
                             const Tensor& w_dst,
                             const std::vector<int32_t>& dst_types,
                             float scale, Tensor* dk, Tensor* dq,
                             Tensor* dw_src, Tensor* dw_dst);

namespace reference {

// Naive, unfused reference kernels — the conformance oracle for the
// blocked versions above, and the "before" side of the
// bench_nn_ops fusion gates. Deliberately kept as straight triple loops.

void Gemm(const Tensor& a, const Tensor& b, Tensor* c);
void GemmTransBAdd(const Tensor& g, const Tensor& b, Tensor* da);
void GemmTransAAdd(const Tensor& a, const Tensor& g, Tensor* db);

}  // namespace reference

}  // namespace xfraud::nn::kernels

#endif  // XFRAUD_NN_KERNELS_H_
