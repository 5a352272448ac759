#ifndef HCD_SEARCH_PBKS_H_
#define HCD_SEARCH_PBKS_H_

#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "hcd/vertex_rank.h"
#include "search/metrics.h"
#include "search/preprocess.h"

namespace hcd {

/// Result of a subgraph search: the best k-core (as a tree node of the HCD)
/// plus the score of every k-core. Node ids are FlatHcdIndex preorder ids —
/// the whole search layer runs on the frozen index, never on the builder
/// forest.
struct SearchResult {
  TreeNodeId best_node = kInvalidNode;
  double best_score = 0.0;
  /// scores[i]: score of node i's original k-core.
  std::vector<double> scores;
};

/// Type-A primary values of every k-core (Algorithm 4 without the metric
/// evaluation): vertex-centric parallel counting (each vertex/edge counted
/// once, at its lowest-vertex-rank endpoint's tree node) followed by a
/// parallel bottom-up tree accumulation. Entry i holds the fully
/// accumulated n(S), 2*m(S), b(S) of node i's original k-core. O(n) work
/// after preprocessing.
std::vector<PrimaryValues> PbksTypeAPrimary(const Graph& graph,
                                            const CoreDecomposition& cd,
                                            const FlatHcdIndex& index,
                                            const CorenessNeighborCounts& pre);

/// Unaccumulated type-B tallies, one entry per slot.
struct TypeBTallies {
  std::vector<int64_t> triangles;
  std::vector<int64_t> triplets;
};

/// The parallel triangle and triplet counting pass of Algorithm 5 (lines
/// 2-15), shared by PBKS and FindBestK (best_k.h): each triangle is
/// attributed to its lowest-vertex-rank corner and each open wedge to its
/// lowest-rank member, and a vertex's tallies land in `slot[v]`
/// (`num_slots` entries). PBKS passes the frozen index's tid array, so a
/// tally lands on the vertex's tree node; best-k passes the coreness, so
/// it lands on the vertex's level.
///
/// Triangles are enumerated on a transient copy of the graph with every
/// edge oriented from its lower-rank to its higher-rank endpoint (m vertex
/// ids plus n + 1 offsets, freed before returning): each vertex v marks
/// its out-neighbours and counts the marked ones among its out-neighbours'
/// out-neighbours, so each triangle is found once, at its lowest-rank
/// corner, and v's slot takes one update. Work is the sum of |N+(u)| over
/// the oriented edges (v, u); v has at most c(v) out-neighbours of higher
/// coreness. See DESIGN.md §14.
TypeBTallies CountTypeBTallies(const Graph& graph,
                               const CoreDecomposition& cd,
                               const VertexRank& vr,
                               const CorenessNeighborCounts& pre,
                               std::span<const uint32_t> slot,
                               size_t num_slots);

/// Type-B primary values of every k-core (Algorithm 5): CountTypeBTallies
/// keyed by tree node, then parallel bottom-up accumulation. Entry i holds
/// n(S), Delta(S) and t(S) of node i's original k-core.
std::vector<PrimaryValues> PbksTypeBPrimary(const Graph& graph,
                                            const CoreDecomposition& cd,
                                            const FlatHcdIndex& index,
                                            const VertexRank& vr,
                                            const CorenessNeighborCounts& pre);

/// Evaluates `metric` on every node's accumulated primary values and
/// returns all scores plus the best k-core (Algorithm 3's final step).
SearchResult ScoreNodes(const FlatHcdIndex& index, Metric metric,
                        const std::vector<PrimaryValues>& accumulated,
                        const GraphGlobals& globals);

/// One-call parallel subgraph search (PBKS, Section IV-D): preprocessing,
/// the right primary-value computation for `metric`, and scoring. Callers
/// evaluating several metrics should build a SearchIndex (search_index.h)
/// once and score against it, reusing the preprocessing and primary values.
SearchResult PbksSearch(const Graph& graph, const CoreDecomposition& cd,
                        const FlatHcdIndex& index, Metric metric);

}  // namespace hcd

#endif  // HCD_SEARCH_PBKS_H_
