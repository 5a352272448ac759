// Section VI extension: hierarchical k-truss decomposition with the PHCD
// paradigm over edges. Reports, per dataset: the truss decomposition and
// the hierarchy construction costs, each at 1 thread and at the maximum
// swept thread count, truss k_max and node count, and the densest truss.

#include <cstdio>
#include <memory>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "search/search_index.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

int main() {
  hcd::bench::PrintHardwareBanner(
      "Extension: hierarchical k-truss decomposition");
  const int pmax = hcd::bench::ThreadSweep().back();
  std::printf("%-4s | %10s %10s | %10s %10s | %6s %7s | %14s\n", "ds",
              "decomp(1)", "decomp(p)", "tree(1) s", "tree(p) s", "k_max",
              "|T|", "densest truss");
  std::printf("     |                       |                       |"
              "      (p=%d)\n\n", pmax);

  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    const hcd::Graph& g = ds.graph;
    hcd::EdgeIndexer index = hcd::BuildEdgeIndexer(g);

    hcd::TrussDecomposition td;
    const double decomp1 = hcd::bench::TimeWithThreads(
        1, [&] { td = hcd::PeelTrussDecomposition(g, index); }, 2);
    const double decompp = hcd::bench::TimeWithThreads(
        pmax, [&] { hcd::PeelTrussDecomposition(g, index); }, 2);

    hcd::TrussForest forest;
    const double tree1 = hcd::bench::TimeWithThreads(
        1, [&] { forest = hcd::BuildTrussHierarchy(g, index, td); }, 2);
    const double treep = hcd::bench::TimeWithThreads(
        pmax, [&] { hcd::BuildTrussHierarchy(g, index, td); }, 2);

    // The densest truss is the truss index's global best.
    const hcd::SearchIndex searcher(hcd::BuildElementSearchTables(
        std::make_shared<const hcd::FlatHcdIndex>(
            hcd::FreezeTruss(g, index, forest)),
        g.NumEdges()));
    const hcd::Metric density = hcd::Metric::kAverageDegree;
    const hcd::TreeNodeId best = searcher.BestAtLeast(density, 0);
    std::printf("%-4s | %10.3f %10.3f | %10.3f %10.3f | %6u %7u | k=%-3u "
                "d=%.1f\n",
                ds.name.c_str(), decomp1, decompp, tree1, treep, td.k_max,
                forest.NumNodes(),
                best == hcd::kInvalidNode ? 0 : searcher.flat().Level(best),
                best == hcd::kInvalidNode ? 0.0
                                          : searcher.Score(density, best));
  }
  return 0;
}
