#ifndef HCD_SEARCH_SEARCH_INDEX_H_
#define HCD_SEARCH_SEARCH_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "search/metrics.h"
#include "search/pbks.h"

namespace hcd {

/// Density of an element community: arity * elements / distinct member
/// vertices, 0 without vertices. For a truss community this is its
/// average degree (2m/n).
inline double ElementDensity(uint32_t arity, uint64_t elements,
                             uint64_t vertices) {
  return vertices == 0 ? 0.0
                       : static_cast<double>(arity) *
                             static_cast<double>(elements) /
                             static_cast<double>(vertices);
}

/// Serve-phase view of the search tables (Section IV-D) a FlatHcdIndex of
/// any kind carries: one PrimaryValues row per node and per-level
/// best-node tables. It never computes anything itself. The tables are
/// built once by BuildSearchTables (core) or BuildElementSearchTables
/// (truss, nucleus), or mapped from a snapshot, so the view is deeply
/// const: any number of threads may query one SearchIndex concurrently;
/// that is the serve-phase seam QuerySnapshot (engine/snapshot.h) is built
/// on.
///
/// A core node scores under a metric over its primary values. A truss or
/// nucleus node scores by the density of its community whatever the
/// metric (ElementDensity; BestAtLeast(m, 0) is the densest k-truss), and
/// its index carries a single table that every metric reads.
///
/// A global or level query is one table lookup (BestAtLeast), and any
/// single node scores in O(1) (Score); the serve path never rescans the
/// tree. The view co-owns the index.
class SearchIndex {
 public:
  /// A view over `index`'s search tables, which it must carry
  /// (FlatHcdIndex::HasSearchTables).
  explicit SearchIndex(std::shared_ptr<const FlatHcdIndex> index);

  /// The index the tables belong to.
  const FlatHcdIndex& flat() const { return *index_; }

  /// Whole-graph n and m of the graph the tables describe, for the metrics
  /// that need them (cut ratio, modularity).
  const GraphGlobals& globals() const { return globals_; }

  /// One row per tree node. Core: n(S), 2*m(S), b(S), Delta(S) and t(S)
  /// of each node's k-core, which every metric scores against. Truss and
  /// nucleus: n_s, the community's distinct member vertices.
  std::span<const PrimaryValues> Primary() const {
    return index_->Primaries();
  }

  /// Score of tree node t under `metric`: for a core index the per-node
  /// expression of ScoreNodes, so bit-identical to its scores; for an
  /// element index the community's density. O(1).
  double Score(Metric metric, TreeNodeId t) const {
    const PrimaryValues& row = index_->Primaries()[t];
    if (element_) {
      return ElementDensity(index_->arity(), index_->CoreSize(t), row.n_s);
    }
    return EvaluateMetric(metric, row, globals_);
  }

  /// Highest-scoring node under `metric` among the nodes of level >= k,
  /// or kInvalidNode when no node reaches level k; k == 0 is the global
  /// best. Ties go to the lower preorder id, ScoreNodes's first-node-wins
  /// order. An element index reads its one table whatever `metric`. O(1).
  TreeNodeId BestAtLeast(Metric metric, uint32_t k) const {
    const std::span<const TreeNodeId> best =
        index_->BestNodes(element_ ? 0 : static_cast<size_t>(metric));
    return k < best.size() ? best[k] : kInvalidNode;
  }

 private:
  std::shared_ptr<const FlatHcdIndex> index_;
  bool element_;
  GraphGlobals globals_;
};

/// Builds the search tables of core index `flat` over `graph` and its core
/// decomposition `cd`: PbksPrimary (stages "search.preprocess",
/// "search.primary_a" and "search.primary_b"), and one BestNodeByLevel
/// table per metric (span
/// "search.best_nodes"). Returns `flat`'s forest with the tables attached
/// (FlatHcdIndex::WithSearchTables): the result shares `flat`'s sections
/// and keeps it alive, so references into `*flat` stay valid.
std::shared_ptr<const FlatHcdIndex> BuildSearchTables(
    const Graph& graph, const CoreDecomposition& cd,
    std::shared_ptr<const FlatHcdIndex> flat);

/// Builds the search tables of truss or nucleus index `flat`, which
/// describes a graph of `num_graph_edges` edges: each node's row holds the
/// distinct member vertices of its community (parallel over nodes, one
/// stamp array per thread), and one BestNodeByLevel table over the nodes'
/// ElementDensity. Needs no graph: the members are in the index. Records
/// the "search.element" stage around the span
/// "search.element.community_sizes". Returns `flat`'s forest with the
/// tables attached, as BuildSearchTables does.
std::shared_ptr<const FlatHcdIndex> BuildElementSearchTables(
    std::shared_ptr<const FlatHcdIndex> flat, uint64_t num_graph_edges);

/// Per-level best-node table over one score per tree node: entry k is the
/// highest-scoring node of level >= k, the lower preorder id winning ties.
/// A suffix argmax over the index's descending level groups; the table has
/// max level + 1 entries (none for an empty index). O(#nodes).
std::vector<TreeNodeId> BestNodeByLevel(const FlatHcdIndex& index,
                                        std::span<const double> scores);

/// Caller-owned scratch for one query thread, reused across queries so the
/// hot path does not allocate: the stamp array is grown once to the graph
/// vertex count, then only overwritten.
struct SearchWorkspace {
  /// Vertex marks of CommunityOf, reused epoch-style: a vertex is marked
  /// for the current query iff stamp[v] == epoch.
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
};

/// Appends the distinct member graph vertices of node t's community (its
/// k-truss / k-nucleus) in element index `index` to `*out`, in ascending
/// order; appends nothing for kInvalidNode. O(answer).
void CommunityOf(const FlatHcdIndex& index, TreeNodeId t, SearchWorkspace* ws,
                 std::vector<VertexId>* out);

}  // namespace hcd

#endif  // HCD_SEARCH_SEARCH_INDEX_H_
