// Table II: statistics of the benchmark datasets (n, m, d_avg, k_max, |T|).

#include <cstdio>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "core/core_decomposition.h"
#include "hcd/phcd.h"

int main() {
  hcd::bench::PrintHardwareBanner("Table II: statistics of datasets");
  std::printf("%-4s %10s %12s %8s %7s %7s  %s\n", "ds", "n", "m", "d_avg",
              "k_max", "|T|", "role");
  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    hcd::CoreDecomposition cd = hcd::PkcCoreDecomposition(ds.graph);
    hcd::HcdForest forest = hcd::PhcdBuild(ds.graph, cd);
    std::printf("%-4s %10u %12llu %8.1f %7u %7u  %s\n", ds.name.c_str(),
                ds.graph.NumVertices(),
                static_cast<unsigned long long>(ds.graph.NumEdges()),
                ds.graph.AverageDegree(), cd.k_max, forest.NumNodes(),
                ds.role.c_str());
  }
  return 0;
}
