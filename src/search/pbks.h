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

/// Unaccumulated type-A tallies, one entry per slot.
struct TypeATallies {
  std::vector<int64_t> n_s;
  std::vector<int64_t> edges2;
  std::vector<int64_t> boundary;
};

/// The per-vertex counting pass of Algorithm 4 (lines 2-9), shared by PBKS
/// and FindBestK (best_k.h): every edge is counted once, at its
/// lowest-vertex-rank endpoint. `order` lists the vertices slot by slot,
/// slot s owning order[slot_offsets[s], slot_offsets[s + 1]). PBKS passes
/// the frozen index's preorder `vertices` and `vertex_offsets`, so a slot
/// is a tree node; best-k passes a coreness-major rank's `sorted` and
/// `shell_start`, so a slot is a level. n(S) of a slot is its run length.
/// Each thread takes one contiguous chunk of `order`, sums a run's tallies
/// in registers and adds them to the slot once, when the run ends: a slot
/// shared by t chunks takes t updates, not one per vertex.
TypeATallies CountTypeATallies(const Graph& graph,
                               const CorenessNeighborCounts& pre,
                               std::span<const VertexId> order,
                               std::span<const uint32_t> slot_offsets);

/// Type-A primary values of every k-core (Algorithm 4 without the metric
/// evaluation): CountTypeATallies over the index's preorder vertex array,
/// then a parallel bottom-up tree accumulation. Entry i holds the fully
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
/// attributed to its lowest-rank corner and each open wedge to its
/// lowest-rank member, and a vertex's tallies land in `slot[v]`
/// (`num_slots` entries). PBKS passes the frozen index's tid array, so a
/// tally lands on the vertex's tree node; best-k passes the coreness, so
/// it lands on the vertex's level.
///
/// `vr` may be any coreness-major total order: ComputeVertexRank's
/// (Definition 4) or ComputeOrientationRank's, which the search index
/// uses. The tallies do not depend on which. A triangle's lowest corner
/// under any such order has the triangle's minimum coreness k, and all its
/// corners of coreness k are adjacent, so they lie in one tree node and on
/// one level: every coreness-major order credits the triangle to the same
/// slot. Wedges are keyed by coreness alone.
///
/// Triangles are enumerated on a transient copy of the graph with every
/// edge oriented from its lower-rank to its higher-rank endpoint, freed
/// before returning: each vertex v marks its out-neighbours and counts the
/// marked ones among its out-neighbours' out-neighbours, so each triangle
/// is found once, at its lowest-rank corner, and v's slot takes one
/// update. Work is the sum of |N+(u)| over the oriented edges (v, u); v
/// has at most c(v) out-neighbours of higher coreness, and under the
/// orientation rank its same-shell out-neighbours have at least half its
/// degree, so there are O(sqrt(m)) of them. The copy holds the dense
/// suffix, the largest suffix of whole shells whose T ranks and E edges
/// satisfy T^2 <= 32 E, as T x T bit rows and the rest as 32-bit CSR
/// rows: the bit rows take no more than the 32-bit entries they replace,
/// plus the padding of each row to whole 64-bit words. The row offsets
/// are 32-bit below 2^32 edges, 64-bit above. Checks against a bit row
/// take one 64-bit AND and a popcount per 64 candidates. The copy's
/// out-degrees take a counting pass of their own here; PbksPrimary reads
/// them off its one fused scan instead. See DESIGN.md §14.
TypeBTallies CountTypeBTallies(const Graph& graph,
                               const CoreDecomposition& cd,
                               const VertexRank& vr,
                               const CorenessNeighborCounts& pre,
                               std::span<const uint32_t> slot,
                               size_t num_slots);

/// Type-B primary values of every k-core (Algorithm 5): CountTypeBTallies
/// keyed by tree node, then parallel bottom-up accumulation. Entry i holds
/// n(S), Delta(S) and t(S) of node i's original k-core. `vr` may be any
/// coreness-major total order (see CountTypeBTallies).
std::vector<PrimaryValues> PbksTypeBPrimary(const Graph& graph,
                                            const CoreDecomposition& cd,
                                            const FlatHcdIndex& index,
                                            const VertexRank& vr,
                                            const CorenessNeighborCounts& pre);

/// All five primary values of every k-core in one row per node: the
/// search tables a core index carries (FlatHcdIndex::Primaries), from two
/// reads of the adjacency instead of the four the per-type passes take.
/// - Stage "search.preprocess": ComputeOrientationRank, which reads only
///   the coreness and the degrees.
/// - Stage "search.primary_a": one scan of every adjacency list (span
///   "pbks.triplets") that tallies type A and the triplets per node and
///   each vertex's oriented out-degree. The coreness counts it reads off
///   each list are used at once and never stored.
/// - Stage "search.primary_b" (span "pbks.triangles"): only now is the
///   oriented adjacency allocated and filled by the second scan; the
///   rank's `rank` array is freed and the triangles are counted.
/// - Span "search.accumulate": one bottom-up accumulation.
/// Row i equals PbksTypeAPrimary's n(S), 2*m(S), b(S) and
/// PbksTypeBPrimary's Delta(S), t(S) of node i. The oriented rows'
/// offsets are 32-bit when the graph has fewer than 2^32 edges, 64-bit
/// otherwise. See DESIGN.md §14.
std::vector<PrimaryValues> PbksPrimary(const Graph& graph,
                                       const CoreDecomposition& cd,
                                       const FlatHcdIndex& index);

/// PbksPrimary with the oriented rows' offsets of type `Offset`, uint32_t
/// or uint64_t (the two instantiations); PbksPrimary picks the narrower
/// one that holds m. Exposed so that both widths can be checked against
/// each other on small graphs.
template <typename Offset>
std::vector<PrimaryValues> PbksPrimaryWithOffsets(const Graph& graph,
                                                  const CoreDecomposition& cd,
                                                  const FlatHcdIndex& index);

/// Evaluates `metric` on every node's accumulated primary values and
/// returns all scores plus the best k-core (Algorithm 3's final step; the
/// first node wins ties). Over a SearchIndex's Primary() rows it is the
/// scan the per-level best-node tables replace, and their oracle.
SearchResult ScoreNodes(const FlatHcdIndex& index, Metric metric,
                        std::span<const PrimaryValues> accumulated,
                        const GraphGlobals& globals);

/// One-call parallel subgraph search (PBKS, Section IV-D): preprocessing,
/// the right primary-value computation for `metric`, and scoring. Callers
/// evaluating several metrics should build a SearchIndex (search_index.h)
/// once and score against it, reusing the preprocessing and primary values.
SearchResult PbksSearch(const Graph& graph, const CoreDecomposition& cd,
                        const FlatHcdIndex& index, Metric metric);

}  // namespace hcd

#endif  // HCD_SEARCH_PBKS_H_
