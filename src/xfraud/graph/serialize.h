#ifndef XFRAUD_GRAPH_SERIALIZE_H_
#define XFRAUD_GRAPH_SERIALIZE_H_

#include <string>

#include "xfraud/common/status.h"
#include "xfraud/graph/hetero_graph.h"

namespace xfraud::graph {

/// Writes a HeteroGraph to a binary file (common/bytes.h encoding):
///   magic "XFGR", u32 version, i64 num_nodes, i64 num_edges,
///   i64 num_feature_rows, i64 feature_dim, then the raw arrays with no
///   length prefixes — sizes are implied by the header: node types (u8),
///   labels (i8), feature-row index (i32, -1 = none), CSR offsets
///   (i64, num_nodes + 1), neighbours (i32), edge types (u8), feature payload
///   (f32, rows × dim). A u32 CRC-32 over the arrays follows, and the whole
///   image carries the common/atomic_file CRC footer.
Status SaveGraph(const HeteroGraph& g, const std::string& path);

/// Loads a graph written by SaveGraph. Bad magic, CRC or sizes — and arrays
/// that break the CSR contract (offsets not starting at 0, not monotone or
/// not ending at num_edges; a neighbour outside [0, num_nodes); a feature
/// row outside [-1, num_feature_rows)) — yield a Corruption status.
Result<HeteroGraph> LoadGraph(const std::string& path);

}  // namespace xfraud::graph

#endif  // XFRAUD_GRAPH_SERIALIZE_H_
