#ifndef HCD_HCD_REBUILD_H_
#define HCD_HCD_REBUILD_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"

namespace hcd {

/// What an incremental re-freeze will touch. Granularity is whole trees of
/// the old FlatHcdIndex: a tree is exactly one connected component of the
/// graph it was built from, so a tree containing no endpoint of a changed
/// edge and no vertex of changed coreness is bit-identical in the new
/// hierarchy and can be spliced through untouched.
///
/// The dirty vertex set (the union of the dirty trees' components) is
/// closed under new-graph adjacency: every new-graph edge incident to it
/// either was applied by the batch (both endpoints touched, hence dirty)
/// or already existed (both endpoints in one old component, hence in one
/// tree). Merges and splits of components therefore happen entirely inside
/// the dirty region, which is what makes splicing sound.
struct RebuildPlan {
  /// Old-index root node ids of the dirty trees, ascending.
  std::vector<TreeNodeId> dirty_roots;
  /// Union of the dirty trees' vertices (the region to rebuild).
  std::vector<VertexId> dirty_vertices;
  /// |dirty_vertices| / NumVertices of the old index.
  double dirty_fraction = 0.0;
  /// True when the plan decided an incremental splice is not worth it
  /// (dirty_fraction above a quarter of the vertices: past that point most
  /// trees are rebuilt anyway, and the splice bookkeeping is pure
  /// overhead); ApplyRebuild then runs the ordinary full PhcdBuild +
  /// Freeze.
  bool full_rebuild = false;
};

/// Plans the incremental re-freeze for a set of touched vertices (the
/// endpoints of every applied edge plus every vertex whose coreness
/// changed — BatchStats::changed_vertices + applied_edges provides exactly
/// this). Touched ids must be valid for `old_index`.
RebuildPlan PlanRebuild(const FlatHcdIndex& old_index,
                        std::span<const VertexId> touched);

/// Executes a plan against the updated graph and its (already maintained)
/// core decomposition, producing the new frozen index.
///
/// Incremental path: induce the dirty region, PhcdBuild + Freeze just that
/// subgraph (stage "rebuild.subbuild"), then splice the kept trees' blocks
/// (shifted to their new preorder ids) with the freshly built blocks,
/// recompute the descending-level order, and run the result through
/// FlatHcdIndex::Adopt (stage "rebuild.splice") — so a splicing bug
/// surfaces as Corruption, never as a silently wrong index. Full path:
/// PhcdBuild + Freeze of the whole graph.
///
/// Requires new_graph.NumVertices() == old_index.NumVertices() (live
/// batches mutate edges, never the vertex set) and `new_cd` to be the
/// decomposition of `new_graph`.
Status ApplyRebuild(const RebuildPlan& plan, const FlatHcdIndex& old_index,
                    const Graph& new_graph, const CoreDecomposition& new_cd,
                    FlatHcdIndex* out);

}  // namespace hcd

#endif  // HCD_HCD_REBUILD_H_
