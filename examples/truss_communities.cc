// Hierarchical k-truss decomposition (the paper's Section VI "other
// cohesive subgraph models" extension): builds the truss hierarchy with the
// same union-find-with-pivot paradigm as PHCD, over edges instead of
// vertices, and reports the densest k-truss.
//
// Run: ./build/examples/truss_communities [scale] [edges] [seed]

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "graph/generators.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

int main(int argc, char** argv) {
  const uint32_t scale = argc > 1 ? std::atoi(argv[1]) : 14;
  const uint64_t edges = argc > 2 ? std::atoll(argv[2]) : 200000;
  const uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 23;

  hcd::Graph graph = hcd::RMatGraph500(scale, edges, seed);
  std::printf("RMAT graph: n=%u m=%llu\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()));

  hcd::Timer timer;
  hcd::EdgeIndexer index = hcd::BuildEdgeIndexer(graph);
  hcd::TrussDecomposition td = hcd::PeelTrussDecomposition(graph, index);
  std::printf("truss decomposition: k_max=%u (%.3fs)\n", td.k_max,
              timer.Seconds());

  timer.Reset();
  hcd::TrussForest forest = hcd::BuildTrussHierarchy(graph, index, td);
  std::printf("truss hierarchy: %u nodes (%.3fs)\n", forest.NumNodes(),
              timer.Seconds());

  // Trussness histogram (a few rows).
  std::vector<uint64_t> per_level(td.k_max + 1, 0);
  for (uint32_t t : td.trussness) ++per_level[t];
  for (uint32_t k = 2; k <= td.k_max; k += std::max(1u, td.k_max / 10)) {
    std::printf("  trussness %-4u: %llu edges\n", k,
                static_cast<unsigned long long>(per_level[k]));
  }

  hcd::DensestTrussResult best =
      hcd::DensestTruss(hcd::FreezeTruss(graph, index, forest));
  std::printf("densest k-truss: k=%u, |V|=%zu, |E|=%llu, avg_deg=%.2f\n",
              best.level, best.community.vertices.size(),
              static_cast<unsigned long long>(best.community.num_edges),
              best.community.AverageDegree());
  return 0;
}
