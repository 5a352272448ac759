#ifndef HCD_TRUSS_TRUSS_HIERARCHY_H_
#define HCD_TRUSS_TRUSS_HIERARCHY_H_

#include <vector>

#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "hcd/forest.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"

namespace hcd {

/// Hierarchical truss decomposition: the PHCD paradigm (Section VI "other
/// cohesive subgraph models") ported from vertices/k-cores to edges/
/// k-trusses. Tree nodes hold *edge* ids: node at level k stores the edges
/// of trussness k of one k-truss component (components are vertex-
/// connected), and parents record truss containment.
///
/// Reuses HcdForest with elements = EdgeIdx: Tid and CoreVertices(forest,
/// node) operate on edge ids.
using TrussForest = HcdForest;

/// Parallel hierarchical truss construction: BuildPivotForest
/// (hcd/pivot_forest.h), PHCD's Algorithm 2 shell loop, over edges by
/// trussness. Edges of one level-k truss component are vertex-connected,
/// so each vertex keeps one *anchor*: the last added edge incident to it.
/// An arriving edge takes each endpoint's anchor with an atomic exchange
/// and links to the one it replaced, which chains every edge at a vertex
/// into one component. The pivot capture is exact because the only link
/// into a higher component is the first exchange at one of its vertices
/// (DESIGN.md §13). Shell work is two anchors per edge, under the same
/// kParallelGrain rule. Records a "truss.construction" stage (counters:
/// shells, nodes, parallel_shells). O(m alpha(m)) after the truss
/// decomposition.
TrussForest BuildTrussHierarchy(const Graph& graph, const EdgeIndexer& index,
                                const TrussDecomposition& td);

/// Definition-driven oracle: per level, components by label propagation
/// over the edge set {e : trussness >= k}; tests only. O(k_max * m alpha).
TrussForest NaiveTrussHierarchy(const Graph& graph, const EdgeIndexer& index,
                                const TrussDecomposition& td);

/// The k-truss component of `node` as a vertex set (distinct endpoints of
/// the subtree's edges), plus its edge count.
struct TrussCommunity {
  std::vector<VertexId> vertices;
  uint64_t num_edges = 0;
  double AverageDegree() const {
    return vertices.empty() ? 0.0
                            : 2.0 * static_cast<double>(num_edges) /
                                  static_cast<double>(vertices.size());
  }
};

/// Builder-forest community-of over CoreVertices(forest, node), O(N + m)
/// per call: the test oracle for CommunityOf and the search tables'
/// distinct-vertex rows (search/search_index.h), which serve the frozen
/// index.
TrussCommunity TrussCommunityOf(const EdgeIndexer& index,
                                const TrussForest& forest, TreeNodeId node);

/// The k-truss (over all k) with the highest average degree — the truss
/// analogue of PBKS-D. O(sum of community sizes) = O(k_max * m) worst case.
struct DensestTrussResult {
  TreeNodeId node = kInvalidNode;
  uint32_t level = 0;
  TrussCommunity community;
};

/// Builder-forest densest scan, ties to the first builder node: the test
/// oracle for a truss index's SearchIndex::BestAtLeast(metric, 0).
DensestTrussResult DensestTruss(const EdgeIndexer& index,
                                const TrussForest& forest);

// --- frozen (serve-phase) forms --------------------------------------------

/// Kind-tagged freeze of a truss forest: the preorder packing of Freeze
/// plus HierarchyKind::kTruss and the edge -> endpoint materialization
/// (EdgeIndexer::edges flattened, endpoints ascending). The result serves
/// every flat-index query (CoreVertices spans over edge ids, ancestor
/// walks, search tables, SearchIndex) and snapshots like a core index.
FlatHcdIndex FreezeTruss(const Graph& graph, const EdgeIndexer& index,
                         const TrussForest& forest);

}  // namespace hcd

#endif  // HCD_TRUSS_TRUSS_HIERARCHY_H_
