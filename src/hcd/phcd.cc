#include "hcd/phcd.h"

#include "hcd/pivot_forest.h"

namespace hcd {

HcdForest PhcdBuild(const Graph& graph, const CoreDecomposition& cd) {
  const auto& coreness = cd.coreness;
  return BuildPivotForest(
      coreness, cd.k_max, "construction",
      [&](VertexId v) { return graph.Degree(v); },
      [&](VertexId v, uint32_t k, auto&& link) {
        for (VertexId u : graph.Neighbors(v)) {
          if (coreness[u] > k || (coreness[u] == k && u > v)) link(u);
        }
      });
}

}  // namespace hcd
