// Micro-benchmark for the two hierarchy representations: the builder
// HcdForest (ragged per-node vectors, DFS CoreVertices) against the frozen
// FlatHcdIndex (preorder CSR, O(1) core spans). Four comparisons:
//
//   (1) CoreVertices sweep — summing every node's original k-core, the
//       per-query cost the flat layout was built to remove;
//   (2) bottom-up accumulation — folding per-node tallies into parents,
//       ragged order-array walk vs a single reverse-preorder loop;
//   (3) Freeze — the one-time cost of producing the flat index;
//   (4) snapshot I/O — v2 bulk-array save/load (load includes full
//       Adopt validation).
//
// Honors HCD_BENCH_SMALL=1 (smoke mode, used by CI) by shrinking the graph.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/phcd.h"
#include "hcd/serialize.h"

namespace {

uint64_t g_sink = 0;  // defeats dead-code elimination across timed bodies

}  // namespace

int main() {
  hcd::bench::PrintHardwareBanner(
      "Forest layout: builder HcdForest vs frozen FlatHcdIndex");
  const bool small = hcd::bench::SmallBenchRequested();
  // RMAT: skewed coreness, so the hierarchy has many nodes (a BA graph
  // collapses to one tree node per component and benchmarks nothing).
  const uint32_t scale = small ? 14 : 18;
  const uint64_t edges = small ? 120000 : 2000000;
  hcd::Graph graph = hcd::RMatGraph500(scale, edges, 77);
  const hcd::VertexId n = graph.NumVertices();
  hcd::CoreDecomposition cd = hcd::BzCoreDecomposition(graph);
  hcd::HcdForest forest = hcd::PhcdBuild(graph, cd);
  const hcd::FlatHcdIndex flat = hcd::Freeze(forest);
  const int reps = small ? 2 : 5;
  std::printf("graph: n=%u m=%llu, %u tree nodes, k_max=%u\n\n", n,
              static_cast<unsigned long long>(graph.NumEdges()),
              flat.NumNodes(), cd.k_max);

  // (1) CoreVertices sweep: every node's original k-core, summed.
  const double ragged_core = hcd::bench::TimeIt([&] {
    uint64_t sum = 0;
    for (hcd::TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
      for (hcd::VertexId v : forest.CoreVertices(t)) sum += v;
    }
    g_sink += sum;
  }, reps);
  const double flat_core = hcd::bench::TimeIt([&] {
    uint64_t sum = 0;
    for (hcd::TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
      for (hcd::VertexId v : flat.CoreVertices(t)) sum += v;
    }
    g_sink += sum;
  }, reps);
  std::printf("CoreVertices sweep   | forest %10.4fs | flat %10.4fs | %7.2fx\n",
              ragged_core, flat_core, ragged_core / flat_core);

  // (2) Bottom-up accumulation: per-node vertex counts folded into parents.
  const double ragged_acc = hcd::bench::TimeIt([&] {
    std::vector<uint64_t> tally(forest.NumNodes());
    for (hcd::TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
      tally[t] = forest.Vertices(t).size();
    }
    for (hcd::TreeNodeId t : forest.NodesByDescendingLevel()) {
      const hcd::TreeNodeId pa = forest.Parent(t);
      if (pa != hcd::kInvalidNode) tally[pa] += tally[t];
    }
    g_sink += tally[0];
  }, reps);
  const double flat_acc = hcd::bench::TimeIt([&] {
    std::vector<uint64_t> tally(flat.NumNodes());
    for (hcd::TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
      tally[t] = flat.Vertices(t).size();
    }
    // Reverse preorder: children always follow parents, so a descending id
    // loop is a valid serial schedule — no order array, no indirection.
    for (hcd::TreeNodeId t = flat.NumNodes(); t-- > 1;) {
      const hcd::TreeNodeId pa = flat.Parent(t);
      if (pa != hcd::kInvalidNode) tally[pa] += tally[t];
    }
    g_sink += tally[0];
  }, reps);
  std::printf("bottom-up accumulate | forest %10.4fs | flat %10.4fs | %7.2fx\n",
              ragged_acc, flat_acc, ragged_acc / flat_acc);

  // (3) One-time freeze cost, for scale against the wins above.
  const double freeze = hcd::bench::TimeIt(
      [&] { g_sink += hcd::Freeze(forest).NumNodes(); }, reps);
  std::printf("Freeze (one-time)    | %10.4fs\n", freeze);

  // (4) Snapshot save/load of the v2 bulk arrays.
  const std::string path = "bench_layout.v2.forest";
  const double save = hcd::bench::TimeIt(
      [&] { hcd::SaveFlatIndex(flat, path).ok(); }, reps);
  const double load = hcd::bench::TimeIt([&] {
    hcd::FlatHcdIndex loaded;
    if (hcd::LoadFlatIndex(path, &loaded).ok()) g_sink += loaded.NumNodes();
  }, reps);
  std::printf("snapshot save (v2)   | %10.4fs\n", save);
  std::printf("snapshot load (v2)   | %10.4fs (includes Adopt validation)\n",
              load);
  std::remove(path.c_str());

  return g_sink == 0xdeadbeef ? 1 : 0;  // g_sink is always consumed
}
