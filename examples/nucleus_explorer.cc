// Hierarchical (3,4)-nucleus decomposition: the strongest of the three
// hierarchy models in this library (k-core < k-truss < nucleus). Prints
// the theta distribution and the deepest nucleus of a clique-rich graph.
//
// Run: ./build/examples/nucleus_explorer [n] [epv_max] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "graph/generators.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"

int main(int argc, char** argv) {
  const hcd::VertexId n = argc > 1 ? std::atoi(argv[1]) : 5000;
  const hcd::VertexId epv = argc > 2 ? std::atoi(argv[2]) : 12;
  const uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 5;

  hcd::Graph graph = hcd::BarabasiAlbertVarying(n, 1, epv, seed);
  hcd::Timer timer;
  hcd::EdgeIndexer eidx = hcd::BuildEdgeIndexer(graph);
  hcd::TriangleIndexer tidx = hcd::BuildTriangleIndexer(graph, eidx);
  std::printf("graph: n=%u m=%llu, %u triangles (indexed in %.3fs)\n",
              graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()),
              tidx.NumTriangles(), timer.Seconds());

  timer.Reset();
  hcd::NucleusDecomposition nd =
      hcd::PeelNucleusDecomposition(graph, eidx, tidx);
  hcd::NucleusForest forest =
      hcd::BuildNucleusHierarchy(graph, eidx, tidx, nd);
  std::printf("nucleus decomposition + hierarchy: theta_max=%u, %u tree "
              "nodes (%.3fs)\n",
              nd.k_max, forest.NumNodes(), timer.Seconds());

  std::vector<uint64_t> per_theta(nd.k_max + 1, 0);
  for (uint32_t t : nd.theta) ++per_theta[t];
  for (uint32_t k = 0; k <= nd.k_max; k += std::max(1u, nd.k_max / 8)) {
    std::printf("  theta %-3u: %llu triangles\n", k,
                static_cast<unsigned long long>(per_theta[k]));
  }

  // Deepest nucleus: its triangles span a near-clique.
  const hcd::FlatHcdIndex flat = hcd::FreezeNucleus(graph, tidx, forest);
  const auto order = flat.NodesByDescendingLevel();
  if (!order.empty() && nd.k_max > 0) {
    const hcd::TreeNodeId deepest = order.front();
    const hcd::NucleusCommunity community =
        hcd::NucleusCommunityOf(flat, deepest);
    std::printf("deepest nucleus: theta=%u, %llu triangles over %zu "
                "vertices (theta+4 = %u-clique territory)\n",
                flat.Level(deepest),
                static_cast<unsigned long long>(community.num_triangles),
                community.vertices.size(), flat.Level(deepest) + 4);
  }
  return 0;
}
