#include "truss/edge_index.h"

#include <algorithm>

#include "common/check.h"

namespace hcd {

EdgeIdx EdgeIndexer::IdOf(const Graph& graph, VertexId u, VertexId v) const {
  auto nbrs = graph.Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return eid_at[graph.AdjOffset(u) + (it - nbrs.begin())];
}

EdgeIndexer BuildEdgeIndexer(const Graph& graph) {
  const VertexId n = graph.NumVertices();
  HCD_CHECK_LT(graph.NumEdges(), static_cast<EdgeIndex>(kInvalidEdge));
  EdgeIndexer index;
  index.eid_at.resize(graph.AdjArray().size());
  index.edges.reserve(graph.NumEdges());

  // Assign ids in (v, u) v<u lexicographic order. For the reverse
  // direction: edges (v, u) with v < u arrive at u in increasing v, and the
  // smaller neighbors of u form the sorted prefix of u's adjacency, so a
  // per-vertex cursor fills the reverse positions in one pass.
  std::vector<EdgeIndex> cursor(n);
  for (VertexId v = 0; v < n; ++v) cursor[v] = graph.AdjOffset(v);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = graph.Neighbors(v);
    const EdgeIndex base = graph.AdjOffset(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u < v) continue;
      const EdgeIdx id = static_cast<EdgeIdx>(index.edges.size());
      index.edges.emplace_back(v, u);
      index.eid_at[base + i] = id;
      // The adjacency must be symmetric: u lists v at its cursor. A graph
      // that is not would move the cursor out of u's slice.
      HCD_CHECK(cursor[u] < graph.AdjOffset(u + 1) &&
                graph.AdjArray()[cursor[u]] == v)
          << "asymmetric adjacency: " << v << " lists " << u
          << " but not the reverse";
      index.eid_at[cursor[u]++] = id;
    }
  }
  return index;
}

}  // namespace hcd
