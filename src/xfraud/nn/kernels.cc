#include "xfraud/nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "xfraud/common/logging.h"

// Every public kernel below is compiled twice — for AVX2 and for the
// baseline ISA — and resolved once at load time (DESIGN.md §13, contract 3).
// The helpers they call are always_inline, so their loops are vectorized
// inside each clone. ThreadSanitizer builds compile the baseline body only:
// TSan instruments the clone resolver, which the loader runs before the TSan
// runtime is initialised (a start-up crash with GCC 12).
#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define XF_ISA_CLONES __attribute__((target_clones("avx2", "default")))
#define XF_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define XF_ISA_CLONES
#define XF_ALWAYS_INLINE inline
#endif

namespace xfraud::nn::kernels {

namespace {

// ---------------------------------------------------------------------------
// GEMM micro-kernel geometry. B is packed into column panels of kJTile
// columns (zero-padded at the right edge); the micro-kernel holds a
// kITile x kJTile accumulator block in registers and reduces over k in
// ascending order — the same per-element order as the naive reference, so
// blocking never changes a single bit of the result.

constexpr int64_t kITile = 4;
constexpr int64_t kJTile = 16;

/// Packs B's columns [j0, j0+kJTile) into `panel` (K x kJTile, row-major),
/// zero-filling columns past B's edge.
void PackBPanel(const Tensor& b, int64_t j0, float* panel) {
  int64_t k_dim = b.rows();
  int64_t m = b.cols();
  int64_t jw = std::min<int64_t>(kJTile, m - j0);
  for (int64_t k = 0; k < k_dim; ++k) {
    const float* brow = b.Row(k) + j0;
    float* prow = panel + k * kJTile;
    int64_t j = 0;
    for (; j < jw; ++j) prow[j] = brow[j];
    for (; j < kJTile; ++j) prow[j] = 0.0f;
  }
}

inline float ApplyAct(float x, Activation act) {
  return act == Activation::kRelu ? (x > 0.0f ? x : 0.0f) : x;
}

/// A GEMM row operand: row i of the product is t's row idx[i], or row i
/// itself when idx is null (kernels.h, "Row operands").
template <typename T>
struct RowOperand {
  T* t;
  const int32_t* idx;
  /// The row pointers of product rows [i0, i0 + count), resolved once per
  /// row chunk, so the micro-kernels read one pointer per row whether or
  /// not the operand is indexed.
  template <typename P>
  XF_ALWAYS_INLINE void ChunkRows(int64_t i0, int64_t count, P* ptrs) const {
    for (int64_t i = 0; i < count; ++i) {
      ptrs[i] = t->Row(idx != nullptr ? idx[i0 + i] : i0 + i);
    }
  }
};

/// The row operand of `t` through `rows` (null: t's rows in order), every
/// index checked against t's rows; *n gets the product's row count.
template <typename T>
RowOperand<T> CheckedRows(T* t, const std::vector<int32_t>* rows,
                          int64_t* n) {
  if (rows == nullptr) {
    *n = t->rows();
    return {t, nullptr};
  }
  for (int32_t r : *rows) XF_CHECK_BOUNDS(r, t->rows());
  *n = static_cast<int64_t>(rows->size());
  return {t, rows->data()};
}

/// Packs Bᵀ's columns [k0, k0+kJTile) — B's rows — into `panel` (M x
/// kJTile, row-major): panel[j·kJTile + kk] = B[k0+kk, j], zero-filling
/// columns past B's last row. This is the panel layout of the forward
/// kernel with Bᵀ as the right operand, so dA += G·Bᵀ runs on the same
/// micro-kernel.
void PackBTPanel(const Tensor& b, int64_t k0, float* panel) {
  int64_t m = b.cols();
  int64_t kw = std::min<int64_t>(kJTile, b.rows() - k0);
  for (int64_t kk = 0; kk < kw; ++kk) {
    const float* brow = b.Row(k0 + kk);
    for (int64_t j = 0; j < m; ++j) panel[j * kJTile + kk] = brow[j];
  }
  for (int64_t kk = kw; kk < kJTile; ++kk) {
    for (int64_t j = 0; j < m; ++j) panel[j * kJTile + kk] = 0.0f;
  }
}

/// The micro-kernel's epilogue: either C = act(acc + bias) (forward) or
/// C += acc (the dA backward product, whose reference accumulates each dot
/// product from 0 and then adds it to dA).
template <bool kAccumulate>
XF_ALWAYS_INLINE void StoreTile(const float* acc, int64_t j0, int64_t jw,
                                const float* bias, Activation act,
                                float* crow) {
  for (int64_t j = 0; j < jw; ++j) {
    float v = acc[j];
    if constexpr (kAccumulate) {
      crow[j] += v;
    } else {
      if (bias != nullptr) v += bias[j0 + j];
      crow[j] = ApplyAct(v, act);
    }
  }
}

/// C rows [0, ih) of a row chunk for panel columns [j0, j0+jw), A's and
/// C's rows given by pointer: register-tiled over kITile rows, k ascending
/// in the single inner reduction.
template <bool kAccumulate>
XF_ALWAYS_INLINE void GemmPanelRows(const float* const* arows, int64_t k_dim,
                                    const float* panel, int64_t j0,
                                    int64_t jw, int64_t ih, const float* bias,
                                    Activation act, float* const* crows) {
  int64_t i = 0;
  for (; i + kITile <= ih; i += kITile) {
    float acc[kITile][kJTile] = {};
    const float* a0 = arows[i];
    const float* a1 = arows[i + 1];
    const float* a2 = arows[i + 2];
    const float* a3 = arows[i + 3];
    for (int64_t k = 0; k < k_dim; ++k) {
      const float* p = panel + k * kJTile;
      float v0 = a0[k], v1 = a1[k], v2 = a2[k], v3 = a3[k];
      for (int64_t j = 0; j < kJTile; ++j) {
        float bj = p[j];
        acc[0][j] += v0 * bj;
        acc[1][j] += v1 * bj;
        acc[2][j] += v2 * bj;
        acc[3][j] += v3 * bj;
      }
    }
    for (int64_t r = 0; r < kITile; ++r) {
      StoreTile<kAccumulate>(acc[r], j0, jw, bias, act, crows[i + r] + j0);
    }
  }
  for (; i < ih; ++i) {  // remainder rows, one at a time
    float acc[kJTile] = {};
    const float* arow = arows[i];
    for (int64_t k = 0; k < k_dim; ++k) {
      const float* p = panel + k * kJTile;
      float v = arow[k];
      for (int64_t j = 0; j < kJTile; ++j) acc[j] += v * p[j];
    }
    StoreTile<kAccumulate>(acc, j0, jw, bias, act, crows[i] + j0);
  }
}

// Row chunks sized so a chunk of A stays L1-resident while every panel
// sweeps over it (panel inner, chunk outer).
constexpr int64_t kRowChunk = 128;

/// Sweeps every packed panel (num_panels of a.cols() x kJTile) over the
/// product's n rows, one row chunk at a time. Shared by the forward GEMM
/// and dA += G·Bᵀ.
template <bool kAccumulate>
XF_ALWAYS_INLINE void PackedGemm(RowOperand<const Tensor> a, int64_t n,
                                 const std::vector<float>& packed,
                                 int64_t num_panels, const float* bias,
                                 Activation act, RowOperand<Tensor> c) {
  int64_t k_dim = a.t->cols();
  int64_t m = c.t->cols();
  const float* arows[kRowChunk];
  float* crows[kRowChunk];
  for (int64_t ic = 0; ic < n; ic += kRowChunk) {
    int64_t ih = std::min<int64_t>(kRowChunk, n - ic);
    a.ChunkRows(ic, ih, arows);
    c.ChunkRows(ic, ih, crows);
    for (int64_t p = 0; p < num_panels; ++p) {
      int64_t j0 = p * kJTile;
      int64_t jw = std::min<int64_t>(kJTile, m - j0);
      GemmPanelRows<kAccumulate>(arows, k_dim,
                                 packed.data() + p * k_dim * kJTile, j0, jw,
                                 ih, bias, act, crows);
    }
  }
}

/// dB rows [k, k+kh) x columns [j0, j0+jw) += Σ_{i < ih} A[i,k..]ᵀ·G[i,j0..]
/// over a row chunk whose A and G rows are given by pointer: the tile is
/// loaded into registers, takes one multiply-add per i in ascending order,
/// and is stored back — the reference's per-element order, starting from
/// dB's own value. kFull fixes the tile at kITile x kJTile (the unrolled
/// fast path); otherwise kh <= kITile and jw <= kJTile cover the edges.
template <bool kFull>
XF_ALWAYS_INLINE void TransATile(const float* const* arows,
                                 const float* const* grows, int64_t k,
                                 int64_t kh, int64_t j0, int64_t jw,
                                 int64_t ih, Tensor* db) {
  if constexpr (kFull) {
    kh = kITile;
    jw = kJTile;
  }
  float acc[kITile][kJTile];
  for (int64_t r = 0; r < kh; ++r) {
    const float* dbrow = db->Row(k + r) + j0;
    for (int64_t j = 0; j < jw; ++j) acc[r][j] = dbrow[j];
  }
  for (int64_t i = 0; i < ih; ++i) {
    const float* arow = arows[i] + k;
    const float* grow = grows[i] + j0;
    if constexpr (kFull) {
      float v0 = arow[0], v1 = arow[1], v2 = arow[2], v3 = arow[3];
      for (int64_t j = 0; j < kJTile; ++j) {
        float gj = grow[j];
        acc[0][j] += v0 * gj;
        acc[1][j] += v1 * gj;
        acc[2][j] += v2 * gj;
        acc[3][j] += v3 * gj;
      }
    } else {
      for (int64_t r = 0; r < kh; ++r) {
        float v = arow[r];
        for (int64_t j = 0; j < jw; ++j) acc[r][j] += v * grow[j];
      }
    }
  }
  for (int64_t r = 0; r < kh; ++r) {
    float* dbrow = db->Row(k + r) + j0;
    for (int64_t j = 0; j < jw; ++j) dbrow[j] = acc[r][j];
  }
}

}  // namespace

XF_ISA_CLONES
void GemmBiasAct(const Tensor& a, const Tensor& b, const float* bias,
                 Activation act, Tensor* c,
                 const std::vector<int32_t>* a_rows,
                 const std::vector<int32_t>* c_rows) {
  XF_CHECK_EQ(a.cols(), b.rows());
  XF_CHECK_EQ(c->cols(), b.cols());
  int64_t n = 0;
  int64_t c_n = 0;
  RowOperand<const Tensor> ar = CheckedRows(&a, a_rows, &n);
  RowOperand<Tensor> cr = CheckedRows(c, c_rows, &c_n);
  XF_CHECK_EQ(c_n, n);
  int64_t k_dim = b.rows();
  int64_t m = b.cols();
  if (n == 0 || m == 0) return;
  if (k_dim == 0) {
    // The empty reduction leaves each dot at +0.
    for (int64_t i = 0; i < n; ++i) {
      float* crow =
          c->Row(c_rows != nullptr ? (*c_rows)[static_cast<size_t>(i)] : i);
      for (int64_t j = 0; j < m; ++j) {
        crow[j] = ApplyAct(0.0f + (bias != nullptr ? bias[j] : 0.0f), act);
      }
    }
    return;
  }
  // Pack all of B once (shared read-only by every row block), then sweep
  // panels per row block so a panel stays L1-hot across its kITile rows.
  int64_t num_panels = (m + kJTile - 1) / kJTile;
  std::vector<float> packed(static_cast<size_t>(num_panels * k_dim * kJTile));
  for (int64_t p = 0; p < num_panels; ++p) {
    PackBPanel(b, p * kJTile, packed.data() + p * k_dim * kJTile);
  }
  PackedGemm</*kAccumulate=*/false>(ar, n, packed, num_panels, bias, act,
                                    cr);
}

XF_ISA_CLONES
void Gemm(const Tensor& a, const Tensor& b, Tensor* c) {
  GemmBiasAct(a, b, /*bias=*/nullptr, Activation::kNone, c);
}

XF_ISA_CLONES
void GemmTransBAdd(const Tensor& g, const Tensor& b, Tensor* da,
                   const std::vector<int32_t>* g_rows,
                   const std::vector<int32_t>* da_rows) {
  XF_CHECK_EQ(g.cols(), b.cols());
  XF_CHECK_EQ(da->cols(), b.rows());
  int64_t n = 0;
  int64_t da_n = 0;
  RowOperand<const Tensor> gr = CheckedRows(&g, g_rows, &n);
  RowOperand<Tensor> dar = CheckedRows(da, da_rows, &da_n);
  XF_CHECK_EQ(da_n, n);
  int64_t m = g.cols();
  int64_t k_dim = b.rows();
  if (n == 0 || k_dim == 0) return;
  // Bᵀ packed into panels of kJTile dA columns; each dot product reduces
  // over j ascending from 0 in the micro-kernel, then lands in dA with one
  // add — the reference's order. m == 0 still adds the (zero) dot.
  int64_t num_panels = (k_dim + kJTile - 1) / kJTile;
  std::vector<float> packed(static_cast<size_t>(num_panels * m * kJTile));
  for (int64_t p = 0; p < num_panels; ++p) {
    PackBTPanel(b, p * kJTile, packed.data() + p * m * kJTile);
  }
  PackedGemm</*kAccumulate=*/true>(gr, n, packed, num_panels,
                                   /*bias=*/nullptr, Activation::kNone, dar);
}

XF_ISA_CLONES
void GemmTransAAdd(const Tensor& a, const Tensor& g, Tensor* db,
                   const std::vector<int32_t>* a_rows,
                   const std::vector<int32_t>* g_rows) {
  XF_CHECK_EQ(db->rows(), a.cols());
  XF_CHECK_EQ(db->cols(), g.cols());
  int64_t n = 0;
  int64_t g_n = 0;
  RowOperand<const Tensor> ar = CheckedRows(&a, a_rows, &n);
  RowOperand<const Tensor> gr = CheckedRows(&g, g_rows, &g_n);
  XF_CHECK_EQ(g_n, n);
  int64_t k_dim = a.cols();
  int64_t m = g.cols();
  // Register tiles of dB take their i terms ascending, one row chunk at a
  // time (the chunk of A and G stays cache-hot across the tiles), so each
  // dB element's reduction order is the reference's.
  const float* arows[kRowChunk];
  const float* grows[kRowChunk];
  for (int64_t ic = 0; ic < n; ic += kRowChunk) {
    int64_t ih = std::min<int64_t>(kRowChunk, n - ic);
    ar.ChunkRows(ic, ih, arows);
    gr.ChunkRows(ic, ih, grows);
    for (int64_t k = 0; k < k_dim; k += kITile) {
      int64_t kh = std::min<int64_t>(kITile, k_dim - k);
      for (int64_t j0 = 0; j0 < m; j0 += kJTile) {
        int64_t jw = std::min<int64_t>(kJTile, m - j0);
        if (kh == kITile && jw == kJTile) {
          TransATile<true>(arows, grows, k, kh, j0, jw, ih, db);
        } else {
          TransATile<false>(arows, grows, k, kh, j0, jw, ih, db);
        }
      }
    }
  }
}

XF_ISA_CLONES
void ColSumAdd(const Tensor& g, Tensor* gb,
               const std::vector<int32_t>* g_rows) {
  XF_CHECK_EQ(gb->rows(), 1);
  XF_CHECK_EQ(gb->cols(), g.cols());
  int64_t n = 0;
  RowOperand<const Tensor> gr = CheckedRows(&g, g_rows, &n);
  float* out = gb->Row(0);
  int64_t m = g.cols();
  const float* grows[kRowChunk];
  for (int64_t ic = 0; ic < n; ic += kRowChunk) {
    int64_t ih = std::min<int64_t>(kRowChunk, n - ic);
    gr.ChunkRows(ic, ih, grows);
    for (int64_t r = 0; r < ih; ++r) {
      for (int64_t c = 0; c < m; ++c) out[c] += grows[r][c];
    }
  }
}

XF_ISA_CLONES
RowGroups BuildRowGroups(const std::vector<int32_t>& group_of_row,
                         int64_t num_groups) {
  RowGroups out;
  out.num_groups = num_groups;
  out.offsets.assign(static_cast<size_t>(num_groups) + 1, 0);
  for (int32_t gid : group_of_row) {
    XF_CHECK_GE(gid, 0);
    XF_CHECK_LT(gid, num_groups);
    ++out.offsets[static_cast<size_t>(gid) + 1];
  }
  for (int64_t s = 0; s < num_groups; ++s) {
    out.offsets[static_cast<size_t>(s) + 1] +=
        out.offsets[static_cast<size_t>(s)];
  }
  out.rows.resize(group_of_row.size());
  std::vector<int64_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (size_t r = 0; r < group_of_row.size(); ++r) {
    out.rows[static_cast<size_t>(cursor[group_of_row[r]]++)] =
        static_cast<int32_t>(r);
  }
  return out;
}

XF_ISA_CLONES
void GatherRows(const Tensor& a, const std::vector<int32_t>& idx,
                Tensor* out) {
  XF_CHECK_EQ(out->rows(), static_cast<int64_t>(idx.size()));
  XF_CHECK_EQ(out->cols(), a.cols());
  int64_t m = a.cols();
  for (size_t i = 0; i < idx.size(); ++i) {
    int32_t src = idx[i];
    XF_CHECK_GE(src, 0);
    XF_CHECK_LT(src, a.rows());
    const float* srow = a.Row(src);
    std::copy(srow, srow + m, out->Row(static_cast<int64_t>(i)));
  }
}

XF_ISA_CLONES
void ScatterAddRowsKernel(const Tensor& a, const std::vector<int32_t>& idx,
                          Tensor* out) {
  XF_CHECK_EQ(a.rows(), static_cast<int64_t>(idx.size()));
  XF_CHECK_EQ(out->cols(), a.cols());
  // Streams a in row order, so each output row accumulates its
  // contributions ascending in r.
  int64_t m = a.cols();
  int64_t rows = out->rows();
  for (size_t r = 0; r < idx.size(); ++r) {
    int32_t d = idx[r];
    XF_CHECK_GE(d, 0);
    XF_CHECK_LT(d, rows);
    const float* arow = a.Row(static_cast<int64_t>(r));
    float* orow = out->Row(d);
    for (int64_t c = 0; c < m; ++c) orow[c] += arow[c];
  }
}

XF_ISA_CLONES
void GatherAddRows(const Tensor& g, const std::vector<int32_t>& idx,
                   Tensor* out) {
  XF_CHECK_EQ(out->rows(), static_cast<int64_t>(idx.size()));
  XF_CHECK_EQ(out->cols(), g.cols());
  int64_t m = g.cols();
  for (size_t i = 0; i < idx.size(); ++i) {
    int32_t src = idx[i];
    XF_CHECK_GE(src, 0);
    XF_CHECK_LT(src, g.rows());
    const float* grow = g.Row(src);
    float* orow = out->Row(static_cast<int64_t>(i));
    for (int64_t c = 0; c < m; ++c) orow[c] += grow[c];
  }
}

XF_ISA_CLONES
void SegmentSoftmaxGrouped(const Tensor& scores, const RowGroups& groups,
                           Tensor* att) {
  XF_CHECK_EQ(att->rows(), scores.rows());
  XF_CHECK_EQ(att->cols(), scores.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), scores.rows());
  int64_t h = scores.cols();
  std::vector<float> seg_max(static_cast<size_t>(h));
  std::vector<float> seg_sum(static_cast<size_t>(h));
  for (int64_t gid = 0; gid < groups.num_groups; ++gid) {
    int64_t begin = groups.offsets[static_cast<size_t>(gid)];
    int64_t end = groups.offsets[static_cast<size_t>(gid) + 1];
    if (begin == end) continue;
    std::fill(seg_max.begin(), seg_max.end(),
              -std::numeric_limits<float>::infinity());
    std::fill(seg_sum.begin(), seg_sum.end(), 0.0f);
    for (int64_t e = begin; e < end; ++e) {
      const float* srow = scores.Row(groups.rows[static_cast<size_t>(e)]);
      for (int64_t c = 0; c < h; ++c) {
        seg_max[static_cast<size_t>(c)] =
            std::max(seg_max[static_cast<size_t>(c)], srow[c]);
      }
    }
    for (int64_t e = begin; e < end; ++e) {
      int32_t r = groups.rows[static_cast<size_t>(e)];
      const float* srow = scores.Row(r);
      float* arow = att->Row(r);
      for (int64_t c = 0; c < h; ++c) {
        float v = std::exp(srow[c] - seg_max[static_cast<size_t>(c)]);
        arow[c] = v;
        seg_sum[static_cast<size_t>(c)] += v;
      }
    }
    for (int64_t e = begin; e < end; ++e) {
      float* arow = att->Row(groups.rows[static_cast<size_t>(e)]);
      for (int64_t c = 0; c < h; ++c) {
        arow[c] /= seg_sum[static_cast<size_t>(c)];
      }
    }
  }
}

namespace {

/// WeightedScatterAddByGroup's loop, with the per-edge weight m when
/// kWeighted: picked once per call, so the unweighted loop that training,
/// evaluation and serving run has no branch and no extra multiply.
template <bool kWeighted>
XF_ALWAYS_INLINE void ScatterByGroup(const Tensor& v,
                                     const std::vector<int32_t>& kv_row,
                                     const Tensor& w, const float* m,
                                     const RowGroups& groups,
                                     int64_t head_dim, Tensor* out) {
  int64_t heads = w.cols();
  for (int64_t gid = 0; gid < groups.num_groups; ++gid) {
    float* orow = out->Row(gid);
    for (int64_t e = groups.offsets[static_cast<size_t>(gid)];
         e < groups.offsets[static_cast<size_t>(gid) + 1]; ++e) {
      int32_t r = groups.rows[static_cast<size_t>(e)];
      XF_CHECK_BOUNDS(kv_row[static_cast<size_t>(r)], v.rows());
      const float* vrow = v.Row(kv_row[static_cast<size_t>(r)]);
      const float* wrow = w.Row(r);
      for (int64_t h = 0; h < heads; ++h) {
        float wv = wrow[h];
        int64_t off = h * head_dim;
        if constexpr (kWeighted) {
          const float mr = m[r];
          for (int64_t c = 0; c < head_dim; ++c) {
            orow[off + c] += (wv * vrow[off + c]) * mr;
          }
        } else {
          for (int64_t c = 0; c < head_dim; ++c) {
            orow[off + c] += wv * vrow[off + c];
          }
        }
      }
    }
  }
}

}  // namespace

XF_ISA_CLONES
void WeightedScatterAddByGroup(const Tensor& v,
                               const std::vector<int32_t>& kv_row,
                               const Tensor& w, const float* edge_weight,
                               const RowGroups& groups, int64_t head_dim,
                               Tensor* out) {
  XF_CHECK_EQ(static_cast<int64_t>(kv_row.size()), w.rows());
  XF_CHECK_EQ(w.cols() * head_dim, v.cols());
  XF_CHECK_EQ(out->rows(), groups.num_groups);
  XF_CHECK_EQ(out->cols(), v.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), w.rows());
  if (edge_weight != nullptr) {
    ScatterByGroup<true>(v, kv_row, w, edge_weight, groups, head_dim, out);
  } else {
    ScatterByGroup<false>(v, kv_row, w, nullptr, groups, head_dim, out);
  }
}

XF_ISA_CLONES
void WeightedGatherAdd(const Tensor& gout, const std::vector<int32_t>& dst,
                       const std::vector<int32_t>& kv_row, const Tensor& w,
                       int64_t head_dim, Tensor* dv) {
  XF_CHECK_EQ(static_cast<int64_t>(dst.size()), w.rows());
  XF_CHECK_EQ(kv_row.size(), dst.size());
  XF_CHECK_EQ(w.cols() * head_dim, dv->cols());
  XF_CHECK_EQ(gout.cols(), dv->cols());
  int64_t heads = w.cols();
  int64_t rows = w.rows();
  // Serial in r: a value row read by several edges takes their terms in
  // ascending r, as the gather's scatter-add backward would.
  for (int64_t r = 0; r < rows; ++r) {
    size_t ur = static_cast<size_t>(r);
    XF_CHECK_BOUNDS(dst[ur], gout.rows());
    XF_CHECK_BOUNDS(kv_row[ur], dv->rows());
    const float* grow = gout.Row(dst[ur]);
    const float* wrow = w.Row(r);
    float* dvrow = dv->Row(kv_row[ur]);
    for (int64_t h = 0; h < heads; ++h) {
      float wv = wrow[h];
      int64_t off = h * head_dim;
      for (int64_t c = 0; c < head_dim; ++c) {
        dvrow[off + c] += 0.0f + wv * grow[off + c];
      }
    }
  }
}

XF_ISA_CLONES
void PerHeadDots(const Tensor& gout, const std::vector<int32_t>& dst,
                 const Tensor& v, const std::vector<int32_t>& kv_row,
                 int64_t head_dim, Tensor* dw) {
  XF_CHECK_EQ(dw->rows(), static_cast<int64_t>(dst.size()));
  XF_CHECK_EQ(kv_row.size(), dst.size());
  XF_CHECK_EQ(dw->cols() * head_dim, v.cols());
  XF_CHECK_EQ(gout.cols(), v.cols());
  int64_t heads = dw->cols();
  int64_t rows = dw->rows();
  for (int64_t r = 0; r < rows; ++r) {
    size_t ur = static_cast<size_t>(r);
    XF_CHECK_BOUNDS(dst[ur], gout.rows());
    XF_CHECK_BOUNDS(kv_row[ur], v.rows());
    const float* grow = gout.Row(dst[ur]);
    const float* vrow = v.Row(kv_row[ur]);
    float* dwrow = dw->Row(r);
    for (int64_t h = 0; h < heads; ++h) {
      int64_t off = h * head_dim;
      float acc = 0.0f;
      for (int64_t c = 0; c < head_dim; ++c) {
        acc += grow[off + c] * vrow[off + c];
      }
      dwrow[h] = acc;
    }
  }
}

XF_ISA_CLONES
void SegmentSoftmaxBackwardGrouped(const Tensor& att, const Tensor& datt,
                                   const RowGroups& groups, Tensor* dscores) {
  XF_CHECK_SHAPE(att, datt);
  XF_CHECK_EQ(dscores->rows(), att.rows());
  XF_CHECK_EQ(dscores->cols(), att.cols());
  XF_CHECK_EQ(static_cast<int64_t>(groups.rows.size()), att.rows());
  int64_t h = att.cols();
  std::vector<float> dot(static_cast<size_t>(h));
  for (int64_t gid = 0; gid < groups.num_groups; ++gid) {
    int64_t begin = groups.offsets[static_cast<size_t>(gid)];
    int64_t end = groups.offsets[static_cast<size_t>(gid) + 1];
    if (begin == end) continue;
    std::fill(dot.begin(), dot.end(), 0.0f);
    for (int64_t e = begin; e < end; ++e) {
      int32_t r = groups.rows[static_cast<size_t>(e)];
      const float* arow = att.Row(r);
      const float* grow = datt.Row(r);
      for (int64_t c = 0; c < h; ++c) {
        dot[static_cast<size_t>(c)] += arow[c] * grow[c];
      }
    }
    for (int64_t e = begin; e < end; ++e) {
      int32_t r = groups.rows[static_cast<size_t>(e)];
      const float* arow = att.Row(r);
      const float* grow = datt.Row(r);
      float* drow = dscores->Row(r);
      for (int64_t c = 0; c < h; ++c) {
        drow[c] += arow[c] * (grow[c] - dot[static_cast<size_t>(c)]);
      }
    }
  }
}

namespace {

/// Validates the eq. 8 operands against scores [E, heads] — shapes, and
/// every index in bounds (XF_CHECK: the indices come from the sampler) —
/// and returns the head width D / heads.
int64_t CheckScoreOperands(const Tensor& k,
                           const std::vector<int32_t>& kv_row,
                           const Tensor& q, const std::vector<int32_t>& dst,
                           const Tensor& w_src,
                           const std::vector<int32_t>& src_types,
                           const Tensor& w_dst,
                           const std::vector<int32_t>& dst_types,
                           int64_t edges, int64_t heads) {
  int64_t dim = k.cols();
  XF_CHECK_GT(heads, 0);
  XF_CHECK_EQ(dim % heads, 0);
  XF_CHECK_EQ(q.cols(), dim);
  XF_CHECK_EQ(w_src.cols(), dim);
  XF_CHECK_EQ(w_dst.cols(), dim);
  XF_CHECK_EQ(static_cast<int64_t>(kv_row.size()), edges);
  XF_CHECK_EQ(static_cast<int64_t>(dst.size()), edges);
  XF_CHECK_EQ(static_cast<int64_t>(src_types.size()), edges);
  XF_CHECK_EQ(static_cast<int64_t>(dst_types.size()), edges);
  for (size_t e = 0; e < dst.size(); ++e) {
    XF_CHECK_BOUNDS(kv_row[e], k.rows());
    XF_CHECK_BOUNDS(dst[e], q.rows());
    XF_CHECK_BOUNDS(src_types[e], w_src.rows());
    XF_CHECK_BOUNDS(dst_types[e], w_dst.rows());
  }
  return dim / heads;
}

/// out[j] += 0.0f + a[j]·w[j] for j < n: one operand's gradient term, with
/// the zero-initialised intermediate the composed ops accumulated into.
XF_ALWAYS_INLINE void AddProducts(const float* __restrict a,
                                  const float* __restrict w, int64_t n,
                                  float* __restrict out) {
  for (int64_t j = 0; j < n; ++j) out[j] += 0.0f + a[j] * w[j];
}

}  // namespace

XF_ISA_CLONES
void AttentionScores(const Tensor& k, const std::vector<int32_t>& kv_row,
                     const Tensor& q, const std::vector<int32_t>& dst,
                     const Tensor& w_src,
                     const std::vector<int32_t>& src_types,
                     const Tensor& w_dst,
                     const std::vector<int32_t>& dst_types, float scale,
                     Tensor* scores) {
  int64_t heads = scores->cols();
  int64_t hd = CheckScoreOperands(k, kv_row, q, dst, w_src, src_types, w_dst,
                                  dst_types, scores->rows(), heads);
  int64_t edges = scores->rows();
  for (int64_t e = 0; e < edges; ++e) {
    size_t ue = static_cast<size_t>(e);
    const float* krow = k.Row(kv_row[ue]);
    const float* qrow = q.Row(dst[ue]);
    const float* wsrow = w_src.Row(src_types[ue]);
    const float* wdrow = w_dst.Row(dst_types[ue]);
    float* srow = scores->Row(e);
    for (int64_t h = 0; h < heads; ++h) {
      int64_t off = h * hd;
      float ks = 0.0f;
      for (int64_t c = 0; c < hd; ++c) ks += krow[off + c] * wsrow[off + c];
      float qs = 0.0f;
      for (int64_t c = 0; c < hd; ++c) qs += qrow[off + c] * wdrow[off + c];
      srow[h] = scale * (ks + qs);
    }
  }
}

XF_ISA_CLONES
void AttentionScoresBackward(const Tensor& g, const Tensor& k,
                             const std::vector<int32_t>& kv_row,
                             const Tensor& q, const std::vector<int32_t>& dst,
                             const Tensor& w_src,
                             const std::vector<int32_t>& src_types,
                             const Tensor& w_dst,
                             const std::vector<int32_t>& dst_types,
                             float scale, Tensor* dk, Tensor* dq,
                             Tensor* dw_src, Tensor* dw_dst) {
  int64_t heads = g.cols();
  int64_t hd = CheckScoreOperands(k, kv_row, q, dst, w_src, src_types, w_dst,
                                  dst_types, g.rows(), heads);
  if (dk != nullptr) {
    XF_CHECK_SHAPE(*dk, k);
  }
  if (dq != nullptr) {
    XF_CHECK_SHAPE(*dq, q);
  }
  if (dw_src != nullptr) {
    XF_CHECK_SHAPE(*dw_src, w_src);
  }
  if (dw_dst != nullptr) {
    XF_CHECK_SHAPE(*dw_dst, w_dst);
  }
  int64_t dim = k.cols();
  // a[j] = 0 + G[e, j / hd]·scale, expanded to one entry per column so the
  // four updates below are flat length-D loops.
  std::vector<float> a(static_cast<size_t>(dim));
  // Serial in e: dk, dq, dw_src and dw_dst rows are shared between edges
  // and take their terms in ascending e, as the gathers' scatter-add
  // backward.
  for (int64_t e = 0; e < g.rows(); ++e) {
    size_t ue = static_cast<size_t>(e);
    const float* grow = g.Row(e);
    for (int64_t h = 0; h < heads; ++h) {
      float ah = 0.0f + grow[h] * scale;
      std::fill(a.begin() + h * hd, a.begin() + (h + 1) * hd, ah);
    }
    const float* krow = k.Row(kv_row[ue]);
    const float* qrow = q.Row(dst[ue]);
    const float* wsrow = w_src.Row(src_types[ue]);
    const float* wdrow = w_dst.Row(dst_types[ue]);
    if (dk != nullptr) {
      AddProducts(a.data(), wsrow, dim, dk->Row(kv_row[ue]));
    }
    if (dw_src != nullptr) {
      AddProducts(a.data(), krow, dim, dw_src->Row(src_types[ue]));
    }
    if (dq != nullptr) AddProducts(a.data(), wdrow, dim, dq->Row(dst[ue]));
    if (dw_dst != nullptr) {
      AddProducts(a.data(), qrow, dim, dw_dst->Row(dst_types[ue]));
    }
  }
}

namespace reference {

void Gemm(const Tensor& a, const Tensor& b, Tensor* c) {
  XF_CHECK_EQ(a.cols(), b.rows());
  XF_CHECK_EQ(c->rows(), a.rows());
  XF_CHECK_EQ(c->cols(), b.cols());
  c->Fill(0.0f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    for (int64_t k = 0; k < a.cols(); ++k) {
      float aik = arow[k];  // no zero-skip: 0·NaN and 0·Inf must propagate
      const float* brow = b.Row(k);
      for (int64_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
}

void GemmTransBAdd(const Tensor& g, const Tensor& b, Tensor* da) {
  XF_CHECK_EQ(g.cols(), b.cols());
  XF_CHECK_EQ(da->rows(), g.rows());
  XF_CHECK_EQ(da->cols(), b.rows());
  for (int64_t i = 0; i < g.rows(); ++i) {
    const float* grow = g.Row(i);
    float* darow = da->Row(i);
    for (int64_t k = 0; k < b.rows(); ++k) {
      const float* brow = b.Row(k);
      float acc = 0.0f;
      for (int64_t j = 0; j < b.cols(); ++j) acc += grow[j] * brow[j];
      darow[k] += acc;
    }
  }
}

void GemmTransAAdd(const Tensor& a, const Tensor& g, Tensor* db) {
  XF_CHECK_EQ(a.rows(), g.rows());
  XF_CHECK_EQ(db->rows(), a.cols());
  XF_CHECK_EQ(db->cols(), g.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* arow = a.Row(i);
    const float* grow = g.Row(i);
    for (int64_t k = 0; k < a.cols(); ++k) {
      float aik = arow[k];
      float* dbrow = db->Row(k);
      for (int64_t j = 0; j < g.cols(); ++j) dbrow[j] += aik * grow[j];
    }
  }
}

}  // namespace reference

}  // namespace xfraud::nn::kernels
