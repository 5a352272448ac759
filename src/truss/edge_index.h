#ifndef HCD_TRUSS_EDGE_INDEX_H_
#define HCD_TRUSS_EDGE_INDEX_H_

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace hcd {

/// Identifier of an undirected edge: 0..m-1 in the canonical (min endpoint,
/// max endpoint) lexicographic order.
using EdgeIdx = uint32_t;
inline constexpr EdgeIdx kInvalidEdge = 0xFFFFFFFFu;

/// Bidirectional mapping between undirected edge ids and CSR adjacency
/// positions, the substrate for all edge-centric (k-truss) algorithms.
struct EdgeIndexer {
  /// eid_at[p]: undirected edge id of adjacency position p (both
  /// directions of an edge map to the same id). Size 2m.
  std::vector<EdgeIdx> eid_at;
  /// edges[e]: endpoints of edge e, first < second. Size m.
  std::vector<Edge> edges;

  EdgeIdx NumEdges() const { return static_cast<EdgeIdx>(edges.size()); }

  /// Edge id at adjacency position `pos` of the owning graph.
  EdgeIdx IdAtPosition(EdgeIndex pos) const { return eid_at[pos]; }

  /// Edge id of {u, v}, or kInvalidEdge when absent. O(log d(u)).
  EdgeIdx IdOf(const Graph& graph, VertexId u, VertexId v) const;
};

/// Builds the indexer in O(m). Requires m < 2^32.
EdgeIndexer BuildEdgeIndexer(const Graph& graph);

/// Degree order (degree, then id) used to enumerate every triangle exactly
/// once, from its highest corner down.
inline bool DegreeLess(const Graph& g, VertexId a, VertexId b) {
  const VertexId da = g.Degree(a);
  const VertexId db = g.Degree(b);
  return da < db || (da == db && a < b);
}

}  // namespace hcd

#endif  // HCD_TRUSS_EDGE_INDEX_H_
