#include "search/search_index.h"

#include "common/telemetry.h"
#include "common/trace.h"
#include "hcd/vertex_rank.h"

namespace hcd {

SearchIndex::SearchIndex(const Graph& graph, const CoreDecomposition& cd,
                         const FlatHcdIndex& index)
    : globals_{graph.NumVertices(), graph.NumEdges()} {
  CorenessNeighborCounts pre;
  {
    ScopedStage stage("search.preprocess");
    pre = PreprocessCorenessCounts(graph, cd);
  }
  {
    ScopedStage stage("search.primary_a");
    type_a_ = PbksTypeAPrimary(graph, cd, index, pre);
  }
  {
    ScopedStage stage("search.primary_b");
    const VertexRank vr = ComputeOrientationRank(graph, cd);
    type_b_ = PbksTypeBPrimary(graph, cd, index, vr, pre);
  }
  ScopedSpan span("search.best_nodes");
  std::vector<double> scores(index.NumNodes());
  for (const Metric metric : kAllMetrics) {
    for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
      scores[t] = Score(metric, t);
    }
    best_[static_cast<size_t>(metric)] = BestNodeByLevel(index, scores);
  }
  span.AddArg("nodes", index.NumNodes());
  span.AddArg("levels", best_[0].size());
}

std::vector<TreeNodeId> BestNodeByLevel(const FlatHcdIndex& index,
                                        std::span<const double> scores) {
  std::vector<TreeNodeId> best;
  if (index.NumNodes() == 0) return best;
  best.resize(static_cast<size_t>(index.Level(index.LevelGroup(0)[0])) + 1);
  // Groups run from the deepest level down; entries at and above
  // `unfilled` are final. Before a group of level L is folded in, the
  // running winner is the best node of the deeper levels, which is also
  // the answer for every k strictly between L and the previous level.
  TreeNodeId winner = kInvalidNode;
  size_t unfilled = best.size();
  for (size_t g = 0; g < index.NumLevelGroups(); ++g) {
    const std::span<const TreeNodeId> group = index.LevelGroup(g);
    const uint32_t level = index.Level(group[0]);
    while (unfilled > level + 1) best[--unfilled] = winner;
    for (const TreeNodeId t : group) {
      if (winner == kInvalidNode || scores[t] > scores[winner] ||
          (scores[t] == scores[winner] && t < winner)) {
        winner = t;
      }
    }
    best[--unfilled] = winner;
  }
  // Levels below the shallowest node: every node qualifies.
  while (unfilled > 0) best[--unfilled] = winner;
  return best;
}

SearchHit SearchInto(const FlatHcdIndex& index, const SearchIndex& sidx,
                     Metric metric, SearchWorkspace* ws) {
  const std::vector<PrimaryValues>& primary = sidx.PrimaryFor(metric);
  const TreeNodeId num_nodes = index.NumNodes();
  if (ws->scores.size() != primary.size()) ws->scores.resize(primary.size());
  SearchHit hit;
  for (TreeNodeId i = 0; i < num_nodes; ++i) {
    ws->scores[i] = EvaluateMetric(metric, primary[i], sidx.globals());
    if (hit.best_node == kInvalidNode || ws->scores[i] > hit.best_score) {
      hit.best_node = i;
      hit.best_score = ws->scores[i];
    }
  }
  return hit;
}

}  // namespace hcd
