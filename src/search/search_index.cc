#include "search/search_index.h"

#include "common/telemetry.h"
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
    const VertexRank vr = ComputeVertexRank(cd);
    type_b_ = PbksTypeBPrimary(graph, cd, index, vr, pre);
  }
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
