// Table V: runtime of subgraph search — PBKS at the maximum swept thread
// count (seconds) and its speedup over the serial BKS, for a type-A metric
// (conductance) and a type-B metric (clustering coefficient).
//
// The decomposition and flat index every search runs on come from one shared
// engine per dataset (computed once, memoized); the searches themselves are
// timed with a fresh run per rep so each algorithm pays for its own
// preprocessing, as in the paper. PBKS must score every node as BKS does
// (within 1e-9); the bench exits 1 when any score differs.

#include <cmath>
#include <cstdio>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "search/bks.h"
#include "search/pbks.h"

namespace {

/// Counts the nodes whose PBKS score differs from BKS's by more than 1e-9,
/// printing the first.
size_t CountMismatches(const char* dataset, const char* metric,
                       const hcd::SearchResult& pbks,
                       const hcd::SearchResult& bks) {
  if (pbks.scores.size() != bks.scores.size()) {
    std::fprintf(stderr, "%s %s: PBKS scored %zu nodes, BKS %zu\n", dataset,
                 metric, pbks.scores.size(), bks.scores.size());
    return 1;
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < pbks.scores.size(); ++i) {
    if (std::fabs(pbks.scores[i] - bks.scores[i]) > 1e-9) {
      if (mismatches == 0) {
        std::fprintf(stderr, "%s %s: node %zu PBKS %.17g != BKS %.17g\n",
                     dataset, metric, i, pbks.scores[i], bks.scores[i]);
      }
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main() {
  hcd::bench::PrintHardwareBanner("Table V: runtime of subgraph search");
  const int pmax = hcd::bench::ThreadSweep().back();
  std::printf("%-4s | %12s %9s | %12s %9s\n", "ds", "Type-A (s)", "vs BKS",
              "Type-B (s)", "vs BKS");
  std::printf("     |   (p=%-2d)              |   (p=%-2d)\n\n", pmax, pmax);

  size_t mismatches = 0;
  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    const hcd::Graph& g = ds.graph;
    hcd::HcdEngine engine(&g);
    const hcd::CoreDecomposition& cd = engine.Coreness();
    const hcd::FlatHcdIndex& flat = engine.Flat();

    hcd::SearchResult pbks_a_result, bks_a_result, pbks_b_result,
        bks_b_result;
    const double pbks_a = hcd::bench::TimeWithThreads(pmax, [&] {
      pbks_a_result = hcd::PbksSearch(g, cd, flat, hcd::Metric::kConductance);
    });
    const double bks_a = hcd::bench::TimeWithThreads(1, [&] {
      bks_a_result = hcd::BksSearch(g, cd, flat, hcd::Metric::kConductance);
    });
    const double pbks_b = hcd::bench::TimeWithThreads(pmax, [&] {
      pbks_b_result =
          hcd::PbksSearch(g, cd, flat, hcd::Metric::kClusteringCoefficient);
    });
    const double bks_b = hcd::bench::TimeWithThreads(1, [&] {
      bks_b_result =
          hcd::BksSearch(g, cd, flat, hcd::Metric::kClusteringCoefficient);
    });

    std::printf("%-4s | %12.4f %8.2fx | %12.4f %8.2fx\n", ds.name.c_str(),
                pbks_a, bks_a / pbks_a, pbks_b, bks_b / pbks_b);
    mismatches += CountMismatches(ds.name.c_str(), "conductance",
                                  pbks_a_result, bks_a_result);
    mismatches += CountMismatches(ds.name.c_str(), "clustering-coefficient",
                                  pbks_b_result, bks_b_result);
  }
  std::printf("\n(Type-A = conductance; type-B = clustering coefficient.\n"
              "Times include each algorithm's own preprocessing.)\n");
  if (mismatches != 0) {
    std::fprintf(stderr, "PBKS and BKS disagree on %zu node scores\n",
                 mismatches);
    return 1;
  }
  return 0;
}
