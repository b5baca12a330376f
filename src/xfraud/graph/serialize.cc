#include "xfraud/graph/serialize.h"

#include <vector>

#include "xfraud/common/atomic_file.h"
#include "xfraud/common/bytes.h"
#include "xfraud/common/crc32.h"

namespace xfraud::graph {

namespace {

constexpr char kMagic[4] = {'X', 'F', 'G', 'R'};
constexpr uint32_t kVersion = 1;

/// Magic, version and the four i64 sizes; the payload CRC covers every byte
/// after this header up to the CRC itself.
constexpr size_t kHeaderBytes = 4 + 4 + 4 * 8;

/// Bytes each node and each edge occupies across the payload arrays (node:
/// type, label, feature-row index, CSR offset; edge: neighbour, edge type).
constexpr size_t kNodeBytes = 1 + 1 + 4 + 8;
constexpr size_t kEdgeBytes = 4 + 1;

/// The CSR contract HeteroGraph's constructor enforces with aborting
/// checks, verified first so a crafted snapshot is a Corruption instead.
bool ValidCsr(const std::vector<int64_t>& offsets,
              const std::vector<int32_t>& neighbors,
              const std::vector<int32_t>& feature_row, int64_t num_nodes,
              int64_t feature_rows) {
  if (offsets.front() != 0 ||
      offsets.back() != static_cast<int64_t>(neighbors.size())) {
    return false;
  }
  for (size_t v = 0; v + 1 < offsets.size(); ++v) {
    if (offsets[v] > offsets[v + 1]) return false;
  }
  for (int32_t u : neighbors) {
    if (u < 0 || u >= num_nodes) return false;
  }
  for (int32_t row : feature_row) {
    if (row < -1 || row >= feature_rows) return false;
  }
  return true;
}

}  // namespace

Status SaveGraph(const HeteroGraph& g, const std::string& path) {
  // Serialize into memory, then publish via tmp-file + rename with a CRC32
  // footer over the whole image (the in-format checksum only covers the
  // payload arrays, not the header): crash-safe and torn-file-proof.
  const int32_t num_nodes = static_cast<int32_t>(g.num_nodes());
  const int64_t feature_dim = g.feature_dim();
  int64_t feature_rows = 0;
  for (int32_t v = 0; v < num_nodes; ++v) feature_rows += g.HasFeatures(v);

  ByteWriter out;
  out.Magic(kMagic).U32(kVersion).I64(num_nodes).I64(g.num_edges());
  out.I64(feature_rows).I64(feature_dim);
  out.Array(g.node_types()).Array(g.labels());
  int32_t next_row = 0;
  for (int32_t v = 0; v < num_nodes; ++v) {
    out.I32(g.HasFeatures(v) ? next_row++ : -1);
  }
  for (int32_t v = 0; v < num_nodes; ++v) out.I64(g.InDegreeBegin(v));
  out.I64(g.num_edges()).Array(g.neighbors()).Array(g.edge_types());
  for (int32_t v = 0; v < num_nodes; ++v) {
    if (g.HasFeatures(v)) out.Array(g.Features(v), feature_dim);
  }
  std::string image = out.Release();
  ByteWriter(&image).U32(
      Crc32(image.data() + kHeaderBytes, image.size() - kHeaderBytes));
  return AtomicWriteFileWithCrc(path, image);
}

Result<HeteroGraph> LoadGraph(const std::string& path) {
  Result<std::string> raw = ReadFileVerifyCrc(path);
  if (!raw.ok()) {
    if (raw.status().IsNotFound()) {
      return Status::IoError("cannot open for read: " + path);
    }
    return raw.status();
  }
  ByteReader in(raw.value());
  if (!in.Magic(kMagic)) return Status::Corruption("bad graph magic: " + path);
  const uint32_t version = in.U32();
  const int64_t num_nodes = static_cast<int64_t>(in.ReadCount(kNodeBytes));
  const int64_t num_edges = static_cast<int64_t>(in.ReadCount(kEdgeBytes));
  // A valid snapshot has at most one feature row per node, so at least four
  // bytes per row remain.
  const int64_t feature_rows =
      static_cast<int64_t>(in.ReadCount(sizeof(float)));
  const int64_t feature_dim = in.I64();
  // rows × dim floats must fit in what is left: divide, never multiply.
  if (!in.ok() || version != kVersion || feature_dim < 0 ||
      (feature_rows > 0 &&
       static_cast<uint64_t>(feature_dim) >
           in.remaining() / sizeof(float) /
               static_cast<uint64_t>(feature_rows))) {
    return Status::Corruption("bad graph header: " + path);
  }

  std::vector<NodeType> node_types;
  std::vector<int8_t> labels;
  std::vector<int32_t> feature_row;
  std::vector<int64_t> offsets;
  std::vector<int32_t> neighbors;
  std::vector<EdgeType> edge_types;
  std::vector<float> features;
  in.Array(num_nodes, &node_types);
  in.Array(num_nodes, &labels);
  in.Array(num_nodes, &feature_row);
  in.Array(num_nodes + 1, &offsets);
  in.Array(num_edges, &neighbors);
  in.Array(num_edges, &edge_types);
  in.Array(feature_rows * feature_dim, &features);
  const size_t payload_bytes =
      raw.value().size() - kHeaderBytes - in.remaining();
  const uint32_t stored_crc = in.U32();
  if (!in.ok()) return Status::Corruption("truncated graph payload: " + path);
  if (stored_crc != Crc32(raw.value().data() + kHeaderBytes, payload_bytes)) {
    return Status::Corruption("graph checksum mismatch: " + path);
  }
  if (!ValidCsr(offsets, neighbors, feature_row, num_nodes, feature_rows)) {
    return Status::Corruption("inconsistent graph arrays in " + path);
  }
  for (NodeType t : node_types) {
    if (static_cast<int>(t) >= kNumNodeTypes) {
      return Status::Corruption("bad node type in " + path);
    }
  }
  for (EdgeType t : edge_types) {
    if (static_cast<int>(t) >= kNumEdgeTypes) {
      return Status::Corruption("bad edge type in " + path);
    }
  }
  nn::Tensor feature_tensor(feature_rows, feature_dim, std::move(features));
  return HeteroGraph(std::move(node_types), std::move(offsets),
                     std::move(neighbors), std::move(edge_types),
                     std::move(feature_tensor), std::move(feature_row),
                     std::move(labels));
}

}  // namespace xfraud::graph
