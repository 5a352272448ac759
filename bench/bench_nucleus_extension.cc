// Second Section VI / related-work extension: hierarchical (3,4)-nucleus
// decomposition. The paper notes no parallel algorithm existed for nucleus
// hierarchy construction; this measures our pivot-union-find construction
// on the benchmark suite (datasets with too many triangles are skipped to
// bound memory: triangles are materialized objects here).

#include <cstdio>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"

namespace {

// Most estimated 4-clique work (TriangleCensus::clique_work) a row runs.
constexpr uint64_t kCliqueWorkCap = 200000000;

}  // namespace

int main() {
  hcd::bench::PrintHardwareBanner(
      "Extension: hierarchical (3,4)-nucleus decomposition");
  const int pmax = hcd::bench::ThreadSweep().back();
  std::printf("%-4s | %12s | %10s %10s | %10s %10s | %6s %8s\n", "ds",
              "#triangles", "decomp(1)", "decomp(p)", "tree(1) s",
              "tree(p) s", "k_max", "|T|");
  std::printf("     |              |                       |"
              "                       |  (p=%d)\n\n", pmax);

  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    const hcd::Graph& g = ds.graph;
    const hcd::bench::TriangleCensus census = hcd::bench::CountTriangles(g);
    const uint64_t tris = census.count;
    if (tris > hcd::bench::TriangleCap() ||
        census.clique_work > kCliqueWorkCap) {
      std::printf("%-4s | %12llu | (skipped: %llu triangles / %llu est. "
                  "4-clique work above caps)\n",
                  ds.name.c_str(), static_cast<unsigned long long>(tris),
                  static_cast<unsigned long long>(tris),
                  static_cast<unsigned long long>(census.clique_work));
      continue;
    }
    hcd::EdgeIndexer eidx = hcd::BuildEdgeIndexer(g);
    hcd::TriangleIndexer tidx = hcd::BuildTriangleIndexer(g, eidx);

    hcd::NucleusDecomposition nd;
    const double decomp1 = hcd::bench::TimeWithThreads(1, [&] {
      nd = hcd::PeelNucleusDecomposition(g, eidx, tidx);
    });
    const double decompp = hcd::bench::TimeWithThreads(
        pmax, [&] { hcd::PeelNucleusDecomposition(g, eidx, tidx); });
    hcd::NucleusForest forest;
    const double tree1 = hcd::bench::TimeWithThreads(1, [&] {
      forest = hcd::BuildNucleusHierarchy(g, eidx, tidx, nd);
    });
    const double treep = hcd::bench::TimeWithThreads(
        pmax, [&] { hcd::BuildNucleusHierarchy(g, eidx, tidx, nd); });

    std::printf("%-4s | %12llu | %10.3f %10.3f | %10.3f %10.3f | %6u %8u\n",
                ds.name.c_str(), static_cast<unsigned long long>(tris),
                decomp1, decompp, tree1, treep, nd.k_max, forest.NumNodes());
  }
  return 0;
}
