#include "search/best_k.h"

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
  // The rank's sorted array lists the vertices shell by shell, so a level's
  // type-A tallies are one run of it.
  const VertexRank vr = ComputeOrientationRank(graph, cd);
  TypeATallies a = CountTypeATallies(graph, pre, vr.sorted, vr.shell_start);
  TypeBTallies b;
  if (IsTypeB(metric)) {
    b = CountTypeBTallies(graph, cd, vr, pre, cd.coreness, num_levels);
  } else {
    b.triangles.assign(num_levels, 0);
    b.triplets.assign(num_levels, 0);
  }

  // Suffix sums: K_k = union of shells with coreness >= k.
  for (int64_t k = static_cast<int64_t>(num_levels) - 2; k >= 0; --k) {
    a.n_s[k] += a.n_s[k + 1];
    a.edges2[k] += a.edges2[k + 1];
    a.boundary[k] += a.boundary[k + 1];
    b.triangles[k] += b.triangles[k + 1];
    b.triplets[k] += b.triplets[k + 1];
  }

  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  bool first = true;
  for (uint32_t k = 0; k < num_levels; ++k) {
    PrimaryValues& pv = result.per_k[k];
    pv.n_s = static_cast<uint64_t>(a.n_s[k]);
    pv.edges2 = static_cast<uint64_t>(a.edges2[k]);
    pv.boundary = static_cast<uint64_t>(a.boundary[k]);
    pv.triangles = static_cast<uint64_t>(b.triangles[k]);
    pv.triplets = static_cast<uint64_t>(b.triplets[k]);
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
