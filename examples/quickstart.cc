// Quickstart: build a graph, run the HCD pipeline through the engine, and
// search for the best community under a few metrics. The engine computes
// each stage (decomposition, construction, search preprocessing) exactly
// once, and the metrics registry it records into reports where the time
// went.
//
// Run: ./build/examples/quickstart [edge-list-file] [metric]
// With no arguments it uses the paper's Figure 1 running example and a
// default metric mix; a metric name (as printed by MetricName, e.g.
// "conductance") narrows the search to that one metric.

#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/telemetry.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "search/metrics.h"
#include "search/search_index.h"

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
  // memoized: Coreness() runs PKC, Flat() runs PHCD and freezes its forest
  // (the forest itself is not kept), Searcher() builds the search tables,
  // and nothing is ever recomputed. Each metric's best k-core is then one
  // table lookup. (For concurrent serving, take engine.Snapshot(): any
  // number of threads may read it at once — see engine/snapshot.h.)
  hcd::MetricsRegistry registry;
  registry.Install();
  hcd::HcdEngine engine(std::move(graph));

  std::printf("core decomposition: k_max=%u\n", engine.Coreness().k_max);
  const hcd::FlatHcdIndex& flat = engine.Flat();
  // Preorder ids: the trees' intervals tile the nodes from 0.
  size_t roots = 0;
  for (hcd::TreeNodeId r = 0; r < flat.NumNodes(); r += flat.SubtreeNodes(r)) {
    ++roots;
  }
  std::printf("HCD: %u tree nodes, %zu roots\n", flat.NumNodes(), roots);

  const hcd::SearchIndex& searcher = engine.Searcher();
  for (hcd::Metric metric : metrics) {
    const hcd::TreeNodeId best = searcher.BestAtLeast(metric, 0);
    if (best == hcd::kInvalidNode) continue;
    std::printf("best k-core under %-22s: k=%u, |S|=%llu, score=%.4f\n",
                hcd::MetricName(metric), flat.Level(best),
                static_cast<unsigned long long>(flat.CoreSize(best)),
                searcher.Score(metric, best));
  }

  registry.Uninstall();
  // Every stage recorded its runs and wall time in the registry's
  // hcd_stage_seconds histograms (RenderJson / RenderPrometheus print all
  // of them; hcd_cli --json shows the same document).
  std::printf("\nper-stage time:\n");
  for (const char* stage :
       {"decomposition", "construction", "construction.freeze",
        "search.preprocess", "search.primary_a", "search.primary_b"}) {
    const unsigned long long runs = hcd::StageRuns(registry, stage);
    std::printf("  %-20s %3llu run(s) %8.3f ms\n", stage, runs,
                hcd::StageSeconds(registry, stage) * 1e3);
  }
  return 0;
}
