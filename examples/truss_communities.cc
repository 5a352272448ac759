// Hierarchical k-truss decomposition (the paper's Section VI "other
// cohesive subgraph models" extension): builds the truss hierarchy with the
// same union-find-with-pivot paradigm as PHCD, over edges instead of
// vertices, and reports the densest k-truss.
//
// Run: ./build/examples/truss_communities [scale] [edges] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/timer.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "search/search_index.h"

int main(int argc, char** argv) {
  const uint32_t scale = argc > 1 ? std::atoi(argv[1]) : 14;
  const uint64_t edges = argc > 2 ? std::atoll(argv[2]) : 200000;
  const uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 23;

  hcd::HcdEngine engine(hcd::RMatGraph500(scale, edges, seed),
                        {.hierarchy = hcd::HierarchyKind::kTruss});
  std::printf("RMAT graph: n=%u m=%llu\n", engine.graph().NumVertices(),
              static_cast<unsigned long long>(engine.graph().NumEdges()));

  hcd::Timer timer;
  const hcd::TrussDecomposition& td = engine.Trussness();
  std::printf("truss decomposition: k_max=%u (%.3fs)\n", td.k_max,
              timer.Seconds());

  timer.Reset();
  const hcd::FlatHcdIndex& flat = engine.Flat();
  std::printf("truss hierarchy: %u nodes (%.3fs)\n", flat.NumNodes(),
              timer.Seconds());

  // Trussness histogram (a few rows).
  std::vector<uint64_t> per_level(td.k_max + 1, 0);
  for (uint32_t t : td.trussness) ++per_level[t];
  for (uint32_t k = 2; k <= td.k_max; k += std::max(1u, td.k_max / 10)) {
    std::printf("  trussness %-4u: %llu edges\n", k,
                static_cast<unsigned long long>(per_level[k]));
  }

  // A truss index's search tables score every community by its average
  // degree, whatever the metric; the global best is the densest k-truss.
  const hcd::SearchIndex& searcher = engine.Searcher();
  const hcd::Metric density = hcd::Metric::kAverageDegree;
  const hcd::TreeNodeId best = searcher.BestAtLeast(density, 0);
  if (best == hcd::kInvalidNode) {
    std::printf("no k-truss: the graph has no edges\n");
    return 0;
  }
  std::printf("densest k-truss: k=%u, |V|=%llu, |E|=%llu, avg_deg=%.2f\n",
              flat.Level(best),
              static_cast<unsigned long long>(searcher.Primary()[best].n_s),
              static_cast<unsigned long long>(flat.CoreSize(best)),
              searcher.Score(density, best));
  return 0;
}
