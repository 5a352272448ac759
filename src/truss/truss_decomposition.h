#ifndef HCD_TRUSS_TRUSS_DECOMPOSITION_H_
#define HCD_TRUSS_TRUSS_DECOMPOSITION_H_

#include <vector>

#include "graph/graph.h"
#include "truss/edge_index.h"

namespace hcd {

/// Trussness values for one graph: trussness[e] is the largest k such that
/// edge e belongs to a k-truss (a maximal subgraph in which every edge
/// closes at least k-2 triangles). Every edge has trussness >= 2.
struct TrussDecomposition {
  std::vector<uint32_t> trussness;  ///< per EdgeIdx
  /// Largest k with a non-empty k-truss (2 for triangle-free graphs with
  /// edges, 0 for edgeless graphs).
  uint32_t k_max = 0;
};

/// Number of triangles containing each edge (the edge's support), computed
/// in parallel with the rank-ordered triangle enumeration; O(m^1.5) work.
std::vector<uint32_t> ComputeEdgeSupports(const Graph& graph,
                                          const EdgeIndexer& index);

/// Truss decomposition by support peeling (Wang & Cheng): the edge
/// instance of PeelLevels (core/peel_levels.h), whose cliques are
/// triangles. Edges are peeled level-synchronously in increasing support,
/// each destroyed triangle lowering its two other edges once. O(m^1.5)
/// after the support computation. Records a "truss.decomposition" stage
/// (counters: levels, k_max, compactions, rounds, max_frontier).
TrussDecomposition PeelTrussDecomposition(const Graph& graph,
                                          const EdgeIndexer& index);

/// Definition-driven oracle: for each k in turn, serially strips the edges
/// whose support among the remaining edges is below k-2 until none is
/// left; the survivors form the k-truss. Tests only.
TrussDecomposition NaiveTrussDecomposition(const Graph& graph,
                                           const EdgeIndexer& index);

}  // namespace hcd

#endif  // HCD_TRUSS_TRUSS_DECOMPOSITION_H_
