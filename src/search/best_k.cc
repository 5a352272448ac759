#include "search/best_k.h"

#include <utility>
#include <vector>

#include "hcd/vertex_rank.h"
#include "search/pbks.h"
#include "search/preprocess.h"

namespace hcd {

BestKResult FindBestK(const Graph& graph, const CoreDecomposition& cd,
                      Metric metric) {
  const VertexId n = graph.NumVertices();
  const uint32_t num_levels = cd.k_max + 1;
  BestKResult result;
  result.scores.assign(num_levels, 0.0);
  result.per_k.assign(num_levels, {});
  if (n == 0) return result;

  const CorenessNeighborCounts pre = PreprocessCorenessCounts(graph, cd);

  // Per-level contributions (index = coreness at which the motif appears).
  std::vector<int64_t> n_s(num_levels, 0);
  std::vector<int64_t> edges2(num_levels, 0);
  std::vector<int64_t> boundary(num_levels, 0);
  std::vector<int64_t> triangles(num_levels, 0);
  std::vector<int64_t> triplets(num_levels, 0);

#pragma omp parallel for schedule(static)
  for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    const int64_t gt = pre.greater[v];
    const int64_t eq = pre.equal[v];
    const int64_t lt = static_cast<int64_t>(graph.Degree(v)) - gt - eq;
    const uint32_t c = cd.coreness[v];
#pragma omp atomic
    n_s[c] += 1;
#pragma omp atomic
    edges2[c] += 2 * gt + eq;
#pragma omp atomic
    boundary[c] += lt - gt;
  }

  if (IsTypeB(metric)) {
    TypeBTallies b = CountTypeBTallies(graph, cd, ComputeVertexRank(cd), pre,
                                       cd.coreness, num_levels);
    triangles = std::move(b.triangles);
    triplets = std::move(b.triplets);
  }

  // Suffix sums: K_k = union of shells with coreness >= k.
  for (int64_t k = static_cast<int64_t>(num_levels) - 2; k >= 0; --k) {
    n_s[k] += n_s[k + 1];
    edges2[k] += edges2[k + 1];
    boundary[k] += boundary[k + 1];
    triangles[k] += triangles[k + 1];
    triplets[k] += triplets[k + 1];
  }

  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  bool first = true;
  for (uint32_t k = 0; k < num_levels; ++k) {
    PrimaryValues& pv = result.per_k[k];
    pv.n_s = static_cast<uint64_t>(n_s[k]);
    pv.edges2 = static_cast<uint64_t>(edges2[k]);
    pv.boundary = static_cast<uint64_t>(boundary[k]);
    pv.triangles = static_cast<uint64_t>(triangles[k]);
    pv.triplets = static_cast<uint64_t>(triplets[k]);
    result.scores[k] = EvaluateMetric(metric, pv, globals);
    if (first || result.scores[k] > result.best_score) {
      result.best_k = k;
      result.best_score = result.scores[k];
      first = false;
    }
  }
  return result;
}

}  // namespace hcd
