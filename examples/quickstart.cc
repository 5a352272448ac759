// Quickstart: build a graph, run the HCD pipeline through the engine, and
// search for the best community under a few metrics. The engine computes
// each stage (decomposition, construction, search preprocessing) exactly
// once and reports where the time went.
//
// Run: ./build/examples/quickstart [edge-list-file] [metric]
// With no arguments it uses the paper's Figure 1 running example and a
// default metric mix; a metric name (as printed by MetricName, e.g.
// "conductance") narrows the search to that one metric.

#include <cstdio>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "search/metrics.h"

int main(int argc, char** argv) {
  hcd::Graph graph;
  if (argc > 1) {
    hcd::Status s = hcd::LoadEdgeListText(argv[1], &graph);
    if (!s.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", argv[1],
                   s.ToString().c_str());
      return 1;
    }
  } else {
    graph = hcd::PaperFigure1Graph();
  }
  std::vector<hcd::Metric> metrics{hcd::Metric::kAverageDegree,
                                   hcd::Metric::kConductance,
                                   hcd::Metric::kClusteringCoefficient};
  if (argc > 2) {
    hcd::Metric chosen;
    if (!hcd::ParseMetric(argv[2], &chosen)) {
      std::fprintf(stderr, "unknown metric '%s'; choose from:", argv[2]);
      for (hcd::Metric m : hcd::kAllMetrics) {
        std::fprintf(stderr, " %s", hcd::MetricName(m));
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    metrics = {chosen};
  }
  std::printf("graph: n=%u m=%llu avg_deg=%.2f\n", graph.NumVertices(),
              static_cast<unsigned long long>(graph.NumEdges()),
              graph.AverageDegree());

  // One engine = one loaded graph serving many queries. Stages are lazy and
  // memoized: Coreness() runs PKC, Forest() runs PHCD, the first Search()
  // builds the eager SearchIndex, and nothing is ever recomputed. (For
  // concurrent serving, take engine.Snapshot() and give each worker thread
  // its own SearchWorkspace — see engine/snapshot.h.)
  hcd::StageTelemetry telemetry;
  telemetry.Install();
  hcd::HcdEngine engine(std::move(graph));

  std::printf("core decomposition: k_max=%u\n", engine.Coreness().k_max);
  const hcd::FlatHcdIndex& flat = engine.Flat();
  std::printf("HCD: %u tree nodes, %zu roots\n", flat.NumNodes(),
              flat.Roots().size());

  for (hcd::Metric metric : metrics) {
    hcd::SearchResult r = engine.Search(metric);
    if (r.best_node == hcd::kInvalidNode) continue;
    std::printf("best k-core under %-22s: k=%u, |S|=%llu, score=%.4f\n",
                hcd::MetricName(metric), flat.Level(r.best_node),
                static_cast<unsigned long long>(flat.CoreSize(r.best_node)),
                r.best_score);
  }

  telemetry.Uninstall();
  std::printf("\nper-stage telemetry:\n");
  for (const hcd::StageRecord& r : telemetry.records()) {
    std::printf("  %-18s %8.3f ms\n", r.stage.c_str(), r.seconds * 1e3);
  }
  std::printf("peak stage: %s\n", telemetry.PeakStage().c_str());
  return 0;
}
