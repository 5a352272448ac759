// Community scoring across every metric and every k (the paper's Section VI
// "finding the best k" extension): prints, for a skewed random graph, the
// best k-core per metric and the per-k score profile of the k-core sets.
// All nine metric searches share one engine, so the decomposition, the
// forest and each primary-value pass are computed once.
//
// Run: ./build/examples/community_metrics [scale] [edges] [seed]

#include <cstdio>
#include <cstdlib>

#include "common/telemetry.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "search/best_k.h"

int main(int argc, char** argv) {
  const uint32_t scale = argc > 1 ? std::atoi(argv[1]) : 13;
  const uint64_t edges = argc > 2 ? std::atoll(argv[2]) : 80000;
  const uint64_t seed = argc > 3 ? std::atoll(argv[3]) : 7;

  hcd::StageTelemetry telemetry;
  telemetry.Install();
  hcd::HcdEngine engine(hcd::RMatGraph500(scale, edges, seed));
  const hcd::CoreDecomposition& cd = engine.Coreness();
  const hcd::FlatHcdIndex& flat = engine.Flat();
  std::printf("RMAT graph: n=%u m=%llu k_max=%u |T|=%u\n",
              engine.graph().NumVertices(),
              static_cast<unsigned long long>(engine.graph().NumEdges()),
              cd.k_max, flat.NumNodes());

  std::printf("\n== best k-core per metric (PBKS) ==\n");
  for (hcd::Metric metric : hcd::kAllMetrics) {
    hcd::SearchResult r = engine.Search(metric);
    std::printf("%-24s best: k=%-4u |S|=%-8llu score=%.5f\n",
                hcd::MetricName(metric), flat.Level(r.best_node),
                static_cast<unsigned long long>(flat.CoreSize(r.best_node)),
                r.best_score);
  }

  std::printf("\n== best k for the k-core set (Section VI) ==\n");
  for (hcd::Metric metric : hcd::kAllMetrics) {
    hcd::BestKResult r = hcd::FindBestK(engine.graph(), cd, metric);
    std::printf("%-24s best k=%-4u score=%.5f (K_k has %llu vertices)\n",
                hcd::MetricName(metric), r.best_k, r.best_score,
                static_cast<unsigned long long>(r.per_k[r.best_k].n_s));
  }

  std::printf("\n== average-degree profile over k ==\n");
  hcd::BestKResult prof =
      hcd::FindBestK(engine.graph(), cd, hcd::Metric::kAverageDegree);
  for (uint32_t k = 0; k <= cd.k_max; k += std::max(1u, cd.k_max / 16)) {
    std::printf("  k=%-4u n(K_k)=%-8llu avg_deg=%.3f\n", k,
                static_cast<unsigned long long>(prof.per_k[k].n_s),
                prof.scores[k]);
  }

  telemetry.Uninstall();
  std::printf("\n== pipeline stages ==\n");
  for (const hcd::StageRecord& r : telemetry.records()) {
    std::printf("  %-18s %8.3f ms\n", r.stage.c_str(), r.seconds * 1e3);
  }
  return 0;
}
