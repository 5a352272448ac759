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

/// Serve-phase view of PBKS (Section IV-D): scores tree nodes from the
/// search tables a core FlatHcdIndex carries — one accumulated
/// PrimaryValues row per node and one per-level best-node table per
/// metric — and never computes anything itself. The tables are built once,
/// bottom-up, by BuildSearchTables (or mapped from a snapshot), so the
/// view is deeply const: any number of threads may score metrics against
/// one SearchIndex concurrently (see SearchInto below); that is the
/// serve-phase seam QuerySnapshot (engine/snapshot.h) is built on.
///
/// A global or level query is one table lookup (BestAtLeast), and any
/// single node scores in O(1) (Score); the serve path never rescans the
/// tree. The view keeps a pointer to the index, which must outlive it.
class SearchIndex {
 public:
  /// A view over `index`'s search tables, which it must carry
  /// (FlatHcdIndex::HasSearchTables).
  explicit SearchIndex(const FlatHcdIndex& index);

  /// Whole-graph n and m of the graph the tables describe, for the metrics
  /// that need them (cut ratio, modularity).
  const GraphGlobals& globals() const { return globals_; }

  /// Accumulated primary values per tree node: n(S), 2*m(S), b(S), Delta(S)
  /// and t(S) of each node's k-core, in one row. Every metric scores
  /// against it.
  std::span<const PrimaryValues> Primary() const {
    return index_->Primaries();
  }

  /// Score of tree node t under `metric`: the per-node expression of
  /// SearchInto and ScoreNodes, so bit-identical to their scores. O(1).
  double Score(Metric metric, TreeNodeId t) const {
    return EvaluateMetric(metric, index_->Primaries()[t], globals_);
  }

  /// Highest-scoring node under `metric` among the nodes of level >= k,
  /// or kInvalidNode when no node reaches level k; k == 0 is the global
  /// best. Ties go to the lower preorder id, SearchInto's first-node-wins
  /// order. O(1).
  TreeNodeId BestAtLeast(Metric metric, uint32_t k) const {
    const std::span<const TreeNodeId> best =
        index_->BestNodes(static_cast<size_t>(metric));
    return k < best.size() ? best[k] : kInvalidNode;
  }

 private:
  const FlatHcdIndex* index_;
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

/// Per-level best-node table over one score per tree node: entry k is the
/// highest-scoring node of level >= k, the lower preorder id winning ties.
/// A suffix argmax over the index's descending level groups; the table has
/// max level + 1 entries (none for an empty index). O(#nodes).
std::vector<TreeNodeId> BestNodeByLevel(const FlatHcdIndex& index,
                                        std::span<const double> scores);

/// Caller-owned scratch for one query thread, reused across queries so the
/// hot path does not allocate: the scores vector is grown once to the node
/// count, and the stamp array once to the graph vertex count, then only
/// overwritten.
struct SearchWorkspace {
  std::vector<double> scores;  ///< per-node scores of the last SearchInto
  /// Vertex marks of ElementSearchIndex::CommunityOf, reused epoch-style:
  /// a vertex is marked for the current query iff stamp[v] == epoch.
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;
};

/// Best node of one serve-phase query; the full score table lives in the
/// caller's SearchWorkspace.
struct SearchHit {
  TreeNodeId best_node = kInvalidNode;
  double best_score = 0.0;
};

/// Serve-phase scoring: evaluates `metric` on every tree node into
/// `ws->scores` and returns the best node. Reads only const state, so any
/// number of threads may call it on one (index, sidx) pair concurrently,
/// each with its own workspace. Runs serially on the calling thread — the
/// serve phase takes its parallelism from concurrent queries, not from
/// OpenMP inside one query — and produces scores bit-identical to
/// ScoreNodes (pbks.h), whose parallel loop evaluates the same per-node
/// expression.
SearchHit SearchInto(const FlatHcdIndex& index, const SearchIndex& sidx,
                     Metric metric, SearchWorkspace* ws);

}  // namespace hcd

#endif  // HCD_SEARCH_SEARCH_INDEX_H_
