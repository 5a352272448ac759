#include "search/search_index.h"

#include <utility>

#include "common/check.h"
#include "common/trace.h"

namespace hcd {

SearchIndex::SearchIndex(const FlatHcdIndex& index)
    : index_(&index), globals_{index.NumVertices(), index.NumGraphEdges()} {
  HCD_CHECK(index.HasSearchTables())
      << "a SearchIndex views the search tables of a core index";
}

std::shared_ptr<const FlatHcdIndex> BuildSearchTables(
    const Graph& graph, const CoreDecomposition& cd,
    std::shared_ptr<const FlatHcdIndex> flat) {
  const FlatHcdIndex& index = *flat;
  std::vector<PrimaryValues> rows = PbksPrimary(graph, cd, index);
  ScopedSpan span("search.best_nodes");
  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  std::vector<TreeNodeId> best;
  std::vector<double> scores(index.NumNodes());
  for (const Metric metric : kAllMetrics) {
    for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
      scores[t] = EvaluateMetric(metric, rows[t], globals);
    }
    const std::vector<TreeNodeId> table = BestNodeByLevel(index, scores);
    best.insert(best.end(), table.begin(), table.end());
  }
  span.AddArg("nodes", index.NumNodes());
  span.AddArg("levels", best.size() / kNumBestTables);
  FlatHcdIndex out;
  const Status s = FlatHcdIndex::WithSearchTables(
      std::move(flat), graph.NumEdges(),
      ArrayRef<PrimaryValues>(std::move(rows)),
      ArrayRef<TreeNodeId>(std::move(best)), &out);
  HCD_CHECK(s.ok()) << "built search tables failed validation: "
                    << s.message();
  return std::make_shared<const FlatHcdIndex>(std::move(out));
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
  const std::span<const PrimaryValues> primary = sidx.Primary();
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
