// Serve-phase cost of the element hierarchies: freezing a built truss /
// nucleus forest into the kind-tagged flat index (FreezeTruss /
// FreezeNucleus) and building its search tables on top
// (BuildElementSearchTables).
// These are the two steps between "hierarchy constructed" and "queries
// answered" for the non-core families, the element analogue of
// Table III's Frz column.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"
#include "search/search_index.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

int main() {
  hcd::bench::PrintHardwareBanner(
      "Element freeze: truss / nucleus forest -> flat index -> search");
  const int pmax = hcd::bench::ThreadSweep().back();
  std::printf("%-4s | %-7s | %8s | %10s %10s | %8s\n", "ds", "kind",
              "|elems|", "freeze(s)", "search(s)", "|T|");
  std::printf("     |         |          |    (p=%d)\n\n", pmax);

  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    const hcd::Graph& g = ds.graph;

    {
      hcd::EdgeIndexer eidx = hcd::BuildEdgeIndexer(g);
      const hcd::TrussDecomposition td = hcd::PeelTrussDecomposition(g, eidx);
      const hcd::TrussForest forest = hcd::BuildTrussHierarchy(g, eidx, td);

      std::shared_ptr<const hcd::FlatHcdIndex> flat;
      const double freeze_t = hcd::bench::TimeWithThreads(pmax, [&] {
        flat = std::make_shared<const hcd::FlatHcdIndex>(
            hcd::FreezeTruss(g, eidx, forest));
      }, 2);
      const double search_t = hcd::bench::TimeWithThreads(
          pmax,
          [&] { hcd::BuildElementSearchTables(flat, g.NumEdges()); }, 2);

      std::printf("%-4s | truss   | %8u | %10.3f %10.3f | %8u\n",
                  ds.name.c_str(), flat->NumElements(), freeze_t, search_t,
                  flat->NumNodes());
    }

    const uint64_t tris = hcd::bench::CountTriangles(g).count;
    if (tris > hcd::bench::TriangleCap()) {
      std::printf("%-4s | nucleus | (skipped: %llu triangles above cap)\n",
                  ds.name.c_str(), static_cast<unsigned long long>(tris));
      continue;
    }
    {
      hcd::EdgeIndexer eidx = hcd::BuildEdgeIndexer(g);
      hcd::TriangleIndexer tidx = hcd::BuildTriangleIndexer(g, eidx);
      const hcd::NucleusDecomposition nd =
          hcd::PeelNucleusDecomposition(g, eidx, tidx);
      const hcd::NucleusForest forest =
          hcd::BuildNucleusHierarchy(g, eidx, tidx, nd);

      std::shared_ptr<const hcd::FlatHcdIndex> flat;
      const double freeze_t = hcd::bench::TimeWithThreads(pmax, [&] {
        flat = std::make_shared<const hcd::FlatHcdIndex>(
            hcd::FreezeNucleus(g, tidx, forest));
      }, 2);
      const double search_t = hcd::bench::TimeWithThreads(
          pmax,
          [&] { hcd::BuildElementSearchTables(flat, g.NumEdges()); }, 2);

      std::printf("%-4s | nucleus | %8u | %10.3f %10.3f | %8u\n",
                  ds.name.c_str(), flat->NumElements(), freeze_t, search_t,
                  flat->NumNodes());
    }
  }
  return 0;
}
