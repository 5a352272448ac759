#ifndef HCD_SEARCH_SEARCH_INDEX_H_
#define HCD_SEARCH_SEARCH_INDEX_H_

#include <iterator>
#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "search/metrics.h"
#include "search/pbks.h"
#include "search/preprocess.h"

namespace hcd {

/// Build-phase product of PBKS (Section IV-D), replacing the old lazy
/// SubgraphSearcher: the constructor runs the coreness-count preprocessing
/// and *eagerly* computes both the type-A and the type-B primary values, so
/// the object is deeply const afterwards — no mutable caches, no
/// first-caller races. Any number of threads may score metrics against one
/// SearchIndex concurrently (see SearchInto below); that is the serve-phase
/// seam QuerySnapshot (engine/snapshot.h) is built on.
///
/// Scoring a k-core once is all a global or level query needs, so the
/// constructor also keeps one per-level best-node table per metric
/// (BestAtLeast): the serve path answers those regimes with one lookup and
/// scores any single node in O(1) (Score), never rescanning the tree.
///
/// The constructor only reads its arguments; it keeps no references, so the
/// index stays valid even if the graph is destroyed (scoring needs only the
/// frozen FlatHcdIndex alongside it). Construction records the
/// "search.preprocess", "search.primary_a" and "search.primary_b" stages
/// and a "search.best_nodes" span around the table build.
class SearchIndex {
 public:
  SearchIndex(const Graph& graph, const CoreDecomposition& cd,
              const FlatHcdIndex& index);

  SearchIndex(const SearchIndex&) = delete;
  SearchIndex& operator=(const SearchIndex&) = delete;

  /// Whole-graph n and m, captured at construction for the metrics that
  /// need them (cut ratio, modularity).
  const GraphGlobals& globals() const { return globals_; }

  /// Accumulated primary values per tree node: n(S), 2*m(S), b(S) for
  /// type-A; additionally Delta(S), t(S) filled in for type-B.
  const std::vector<PrimaryValues>& TypeAPrimary() const { return type_a_; }
  const std::vector<PrimaryValues>& TypeBPrimary() const { return type_b_; }

  /// The primary-value table `metric` scores against.
  const std::vector<PrimaryValues>& PrimaryFor(Metric metric) const {
    return IsTypeB(metric) ? type_b_ : type_a_;
  }

  /// Score of tree node t under `metric`: the per-node expression of
  /// SearchInto and ScoreNodes, so bit-identical to their scores. O(1).
  double Score(Metric metric, TreeNodeId t) const {
    return EvaluateMetric(metric, PrimaryFor(metric)[t], globals_);
  }

  /// Highest-scoring node under `metric` among the nodes of level >= k,
  /// or kInvalidNode when no node reaches level k; k == 0 is the global
  /// best. Ties go to the lower preorder id, SearchInto's first-node-wins
  /// order. O(1).
  TreeNodeId BestAtLeast(Metric metric, uint32_t k) const {
    const std::vector<TreeNodeId>& best = best_[static_cast<size_t>(metric)];
    return k < best.size() ? best[k] : kInvalidNode;
  }

 private:
  GraphGlobals globals_;
  std::vector<PrimaryValues> type_a_;
  std::vector<PrimaryValues> type_b_;
  /// One BestNodeByLevel table per metric, indexed by Metric value.
  std::vector<TreeNodeId> best_[std::size(kAllMetrics)];
};

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
