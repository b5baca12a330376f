#ifndef XFRAUD_NN_OPS_H_
#define XFRAUD_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "xfraud/common/rng.h"
#include "xfraud/nn/kernels.h"
#include "xfraud/nn/variable.h"

namespace xfraud::nn {

// Differentiable ops. Every function returns a fresh Var wired into the tape;
// when no input requires gradients, or a NoGradGuard is active, the result
// records no parents and no backward closure. All gradients are verified
// against central finite differences in tests/nn_grad_test.cc.
//
// The dense/scatter hot paths (MatMul, LinearBiasAct, TypedLinear,
// AttentionScores, AttentionAggregate, IndexRows, ScatterAddRows) run on
// the blocked, serial, ISA-cloned nn::kernels layer (DESIGN.md §13);
// results are bit-identical on any host.

/// C = A * B. Shapes: [n,k] x [k,m] -> [n,m].
Var MatMul(const Var& a, const Var& b);

/// Fused act(x·W + b): one kernel pass instead of MatMul + AddRowBroadcast
/// (+ Relu) round-tripping an [n,out] block through memory per op. `bias`
/// may be an undefined Var for a bias-free linear.
Var LinearBiasAct(const Var& x, const Var& w, const Var& bias,
                  kernels::Activation act = kernels::Activation::kNone);

/// Typed linear map: output row i is x[r]·weights[types[i]] +
/// biases[types[i]] -> [|types|, out], where r is (*rows)[i] when an
/// input-row list is given and i itself (so |types| = N) when it is null.
/// One tape node for the per-type Q/K/V projections of paper eqs. 2-7, in
/// place of an IndexRows(x, rows) followed by a per-type IndexRows →
/// LinearBiasAct → ScatterAddRows → Add chain, and bit-identical to that
/// chain in the forward value and every gradient; the kernels read x's rows
/// and write the output's in place. x's gradient takes its terms type by
/// type, ascending i within a type: the chain's order whenever no x row is
/// read under two types (a row list without repeats, as HeteroConv's).
/// A bias may be an undefined Var; a type with no rows is skipped (its
/// parameters get no gradient).
Var TypedLinear(const Var& x, const std::vector<int32_t>& types,
                const std::vector<Var>& weights,
                const std::vector<Var>& biases,
                const std::vector<int32_t>* rows = nullptr);

/// The attention scores of paper eq. 8 as one tape node -> [E, H]:
/// scores[e,h] = scale·(k[kv_row[e]]·w_att_src[src_types[e]] +
/// q_nodes[edge_dst[e]]·w_att_dst[dst_types[e]]), each dot over head h's
/// D / H columns. k holds one key per source row [U, D]; kv_row maps each
/// edge to its row. Bit for bit in the value and all four gradients, this
/// is IndexRows(k, kv_row) followed by the chain of three IndexRows gathers
/// (q_nodes by edge_dst, the weight rows by type) and per-head SliceCols →
/// Mul → RowSum → Add → Scale, joined by ConcatCols. k and q_nodes may be
/// one Var: the value is unchanged, and both gradient terms accumulate into
/// its one gradient, edge by edge.
Var AttentionScores(const Var& k, const std::vector<int32_t>& kv_row,
                    const Var& q_nodes, const std::vector<int32_t>& edge_dst,
                    const Var& w_att_src,
                    const std::vector<int32_t>& src_types,
                    const Var& w_att_dst,
                    const std::vector<int32_t>& dst_types, int num_heads,
                    float scale);

/// Fused SegmentSoftmax → Dropout → per-head MulColBroadcast →
/// ScatterAddRows: the HeteroConv and GAT attention aggregate (paper eqs.
/// 9-10 + eq. 1) in two passes over the values instead of five passes over
/// an [E,D] block. scores is [E,H]; values [U, H·head_dim] holds one value
/// per source row, and kv_row maps each edge to its row; dst is the
/// per-edge target node; returns [num_nodes, H·head_dim]. Bit-identical, in
/// the value and every gradient, to IndexRows(values, kv_row) followed by
/// the unfused composition, including RNG consumption order when dropout is
/// active. With `mask_rows` set, the dropout mask is drawn as Dropout's is
/// with the same arguments: over all mask_block_rows rows of the block the
/// edges were kept from, edge e reading row (*mask_rows)[e]. A defined
/// `edge_weight` [E,1] rescales each message before the scatter, as a
/// MulColBroadcast does in the composition, and gets its gradient.
Var AttentionAggregate(const Var& scores, const Var& values,
                       const std::vector<int32_t>& kv_row,
                       const std::vector<int32_t>& dst, int64_t num_nodes,
                       int64_t head_dim, float dropout_p, bool training,
                       xfraud::Rng* rng,
                       const std::vector<int32_t>* mask_rows = nullptr,
                       int64_t mask_block_rows = 0,
                       const Var& edge_weight = Var());

/// Elementwise A + B (same shape).
Var Add(const Var& a, const Var& b);

/// Adds the [1,d] row `bias` to every row of A [n,d].
Var AddRowBroadcast(const Var& a, const Var& bias);

/// Elementwise A - B (same shape).
Var Sub(const Var& a, const Var& b);

/// Elementwise A ⊙ B (same shape).
Var Mul(const Var& a, const Var& b);

/// s * A for a compile-time constant s (no gradient w.r.t. s).
Var Scale(const Var& a, float s);

/// A + c elementwise for constant c.
Var AddConst(const Var& a, float c);

/// max(A, 0).
Var Relu(const Var& a);

/// x >= 0 ? x : alpha*x (GAT's activation).
Var LeakyRelu(const Var& a, float alpha);

Var Tanh(const Var& a);
Var Sigmoid(const Var& a);

/// Natural log; inputs must be positive (compose with AddConst for eps).
Var Log(const Var& a);

/// Inverted dropout: zeroes entries w.p. p and rescales survivors by 1/(1-p).
/// Identity when !training or p == 0. The mask is drawn row-major over A,
/// or, with `mask_rows` set, over a [mask_block_rows, cols] block of which
/// A holds some rows: row i of A reads mask row (*mask_rows)[i]. Every row
/// of the block is drawn either way, so the RNG stream and each row's
/// mask do not depend on which rows A holds.
Var Dropout(const Var& a, float p, bool training, xfraud::Rng* rng,
            const std::vector<int32_t>* mask_rows = nullptr,
            int64_t mask_block_rows = 0);

/// Softmax across each row independently.
Var RowSoftmax(const Var& a);

/// Mean cross entropy between logits [n,c] and integer labels (one per row).
/// `class_weights` (optional, size c) rescales each example's loss by the
/// weight of its true class and normalizes by the total weight.
Var CrossEntropy(const Var& logits, const std::vector<int>& labels,
                 const std::vector<float>& class_weights = {});

/// [n,a] ++ [n,b] -> [n,a+b] along columns.
Var ConcatCols(const Var& a, const Var& b);

/// Columns [start, start+len) of A.
Var SliceCols(const Var& a, int64_t start, int64_t len);

/// Gathers rows: out[i] = a[indices[i]]. Backward scatter-adds.
Var IndexRows(const Var& a, const std::vector<int32_t>& indices);

/// out[index[e]] += a[e] for every row e of A; out has `num_rows` rows.
/// This is the GNN message aggregation primitive.
Var ScatterAddRows(const Var& a, const std::vector<int32_t>& index,
                   int64_t num_rows);

/// Column-wise softmax within segments: for each column h and each segment s,
/// out[e,h] = exp(a[e,h]) / sum_{e': seg[e']==s} exp(a[e',h]).
/// This is the per-target-node attention normalization of paper eq. 9.
/// Rows whose segment is empty of competitors normalize to 1.
Var SegmentSoftmax(const Var& a, const std::vector<int32_t>& segments,
                   int64_t num_segments);

/// Multiplies each row i of A [n,d] by col[i,0] of a [n,1] column (GEM's
/// per-edge messages; the composed oracle of AttentionAggregate).
Var MulColBroadcast(const Var& a, const Var& col);

/// Sum of all entries -> [1,1].
Var Sum(const Var& a);

/// Per-row sum: [n,d] -> [n,1]. Row-wise dot products are
/// RowSum(Mul(a, b)); the composed eq. 8 scores built that way are
/// AttentionScores' conformance oracle.
Var RowSum(const Var& a);

/// Mean of all entries -> [1,1].
Var Mean(const Var& a);

/// Layer normalization across each row with learnable gain/bias [1,d].
Var LayerNorm(const Var& a, const Var& gamma, const Var& beta,
              float eps = 1e-5f);

/// A wrapper marking a tensor as a constant input (no gradient).
Var Constant(Tensor t);

}  // namespace xfraud::nn

#endif  // XFRAUD_NN_OPS_H_
