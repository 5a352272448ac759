#ifndef HCD_BENCH_BENCH_DATASETS_H_
#define HCD_BENCH_BENCH_DATASETS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace hcd::bench {

/// One benchmark dataset. The suite mirrors the *roles* of the paper's
/// Table II graphs (the offline environment cannot download SNAP/LAW data;
/// see DESIGN.md "Substitutions"): skewed social-style graphs, heavy web-
/// crawl-style hierarchies with large k_max and |T|, and near-uniform
/// giant-component graphs, in ascending edge count.
struct BenchDataset {
  std::string name;    ///< short tag, mirrors the paper's abbreviations
  std::string role;    ///< which Table II row this stands in for
  Graph graph;
};

/// Generates (or reloads from the on-disk cache "bench_data/") the full
/// suite. `small` shrinks every dataset ~16x for smoke runs
/// (HCD_BENCH_SMALL=1 in the environment has the same effect).
std::vector<BenchDataset> LoadBenchSuite(bool small = false);

/// True when HCD_BENCH_SMALL is set in the environment.
bool SmallBenchRequested();

/// A triangle census taken without materializing the triangles: the count
/// bounds the triangle indexer's memory, and the sum of per-triangle
/// minimum corner degrees bounds the 4-clique enumeration work of the
/// nucleus decomposition and hierarchy.
struct TriangleCensus {
  uint64_t count = 0;
  uint64_t clique_work = 0;
};
TriangleCensus CountTriangles(const Graph& g);

/// Most triangles a nucleus row materializes (triangles are objects in the
/// indexer); a dataset above it is skipped. Smaller under HCD_BENCH_SMALL.
uint64_t TriangleCap();

}  // namespace hcd::bench

#endif  // HCD_BENCH_BENCH_DATASETS_H_
