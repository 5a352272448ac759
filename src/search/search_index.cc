#include "search/search_index.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"

namespace hcd {

SearchIndex::SearchIndex(std::shared_ptr<const FlatHcdIndex> index)
    : index_(std::move(index)),
      element_(index_->kind() != HierarchyKind::kCore),
      globals_{index_->NumGraphVertices(), index_->NumGraphEdges()} {
  HCD_CHECK(index_->HasSearchTables())
      << "a SearchIndex views the search tables of an index";
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

std::shared_ptr<const FlatHcdIndex> BuildElementSearchTables(
    std::shared_ptr<const FlatHcdIndex> flat, uint64_t num_graph_edges) {
  const FlatHcdIndex& index = *flat;
  HCD_CHECK(index.kind() != HierarchyKind::kCore)
      << "a core index builds its tables with BuildSearchTables";
  ScopedStage stage("search.element");
  const TreeNodeId num_nodes = index.NumNodes();
  std::vector<PrimaryValues> rows(num_nodes);

  // Distinct member vertices per node. Nodes are independent, so the loop
  // is parallel with one stamp array per worker; stamping with t+1 makes
  // every node's pass see a clean array without clearing (0 is never a
  // stamp, t+1 is unique per node).
  {
    ScopedSpan span("search.element.community_sizes");
    span.AddArg("nodes", num_nodes);
#pragma omp parallel
    {
      std::vector<uint32_t> stamp(index.NumGraphVertices(), 0);
#pragma omp for schedule(dynamic, 64)
      for (int64_t t = 0; t < static_cast<int64_t>(num_nodes); ++t) {
        const TreeNodeId node = static_cast<TreeNodeId>(t);
        const uint32_t mark = node + 1;
        uint64_t distinct = 0;
        for (const VertexId element : index.CoreVertices(node)) {
          for (const VertexId v : index.ElementMembers(element)) {
            if (stamp[v] != mark) {
              stamp[v] = mark;
              ++distinct;
            }
          }
        }
        rows[node].n_s = distinct;
      }
    }
  }

  std::vector<double> density(num_nodes);
  for (TreeNodeId t = 0; t < num_nodes; ++t) {
    density[t] = ElementDensity(index.arity(), index.CoreSize(t), rows[t].n_s);
  }
  std::vector<TreeNodeId> best = BestNodeByLevel(index, density);
  stage.AddCounter("nodes", num_nodes);
  stage.AddCounter("elements", index.NumElements());
  FlatHcdIndex out;
  const Status s = FlatHcdIndex::WithSearchTables(
      std::move(flat), num_graph_edges,
      ArrayRef<PrimaryValues>(std::move(rows)),
      ArrayRef<TreeNodeId>(std::move(best)), &out);
  HCD_CHECK(s.ok()) << "built element search tables failed validation: "
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

void CommunityOf(const FlatHcdIndex& index, TreeNodeId t, SearchWorkspace* ws,
                 std::vector<VertexId>* out) {
  if (t == kInvalidNode) return;
  if (ws->stamp.size() != index.NumGraphVertices()) {
    ws->stamp.assign(index.NumGraphVertices(), 0);
    ws->epoch = 0;
  }
  if (++ws->epoch == 0) {  // epoch wrap: one full clear every 2^32 queries
    std::fill(ws->stamp.begin(), ws->stamp.end(), 0);
    ws->epoch = 1;
  }
  const uint32_t mark = ws->epoch;
  const size_t first = out->size();
  for (const VertexId element : index.CoreVertices(t)) {
    for (const VertexId v : index.ElementMembers(element)) {
      if (ws->stamp[v] != mark) {
        ws->stamp[v] = mark;
        out->push_back(v);
      }
    }
  }
  std::sort(out->begin() + first, out->end());
}

}  // namespace hcd
