// Hierarchical (3,4)-nucleus decomposition: the strongest of the three
// hierarchy models in this library (k-core < k-truss < nucleus). Prints
// the theta distribution and the deepest nucleus of a clique-rich graph.
//
// Run: ./build/examples/nucleus_explorer [n] [epv_max] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/timer.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "search/search_index.h"

int main(int argc, char** argv) {
  const hcd::VertexId n = argc > 1 ? std::atoi(argv[1]) : 5000;
  const hcd::VertexId epv = argc > 2 ? std::atoi(argv[2]) : 12;
  const uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 5;

  hcd::HcdEngine engine(hcd::BarabasiAlbertVarying(n, 1, epv, seed),
                        {.hierarchy = hcd::HierarchyKind::kNucleus});
  hcd::Timer timer;
  const hcd::TriangleIndexer& tidx = engine.Triangles();
  std::printf("graph: n=%u m=%llu, %u triangles (indexed in %.3fs)\n",
              engine.graph().NumVertices(),
              static_cast<unsigned long long>(engine.graph().NumEdges()),
              tidx.NumTriangles(), timer.Seconds());

  timer.Reset();
  const hcd::NucleusDecomposition& nd = engine.NucleusTheta();
  const hcd::FlatHcdIndex& flat = engine.Flat();
  std::printf("nucleus decomposition + hierarchy: theta_max=%u, %u tree "
              "nodes (%.3fs)\n",
              nd.k_max, flat.NumNodes(), timer.Seconds());

  std::vector<uint64_t> per_theta(nd.k_max + 1, 0);
  for (uint32_t t : nd.theta) ++per_theta[t];
  for (uint32_t k = 0; k <= nd.k_max; k += std::max(1u, nd.k_max / 8)) {
    std::printf("  theta %-3u: %llu triangles\n", k,
                static_cast<unsigned long long>(per_theta[k]));
  }

  // Deepest nucleus: the densest community at level theta_max, whose
  // triangles span a near-clique.
  const hcd::SearchIndex& searcher = engine.Searcher();
  const hcd::TreeNodeId deepest =
      searcher.BestAtLeast(hcd::Metric::kAverageDegree, nd.k_max);
  if (deepest != hcd::kInvalidNode && nd.k_max > 0) {
    std::printf("deepest nucleus: theta=%u, %llu triangles over %llu "
                "vertices (theta+4 = %u-clique territory)\n",
                flat.Level(deepest),
                static_cast<unsigned long long>(flat.CoreSize(deepest)),
                static_cast<unsigned long long>(
                    searcher.Primary()[deepest].n_s),
                flat.Level(deepest) + 4);
  }
  return 0;
}
