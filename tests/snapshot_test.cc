// Tests for the serve phase: QuerySnapshot over a built engine. The
// headline test is the build/serve acceptance check — eight threads
// hammering one snapshot with every metric interleaved, each result
// bit-identical to the single-threaded PBKS baseline — and it is the test
// the ThreadSanitizer CI job runs to prove the serve path has no data
// races. Worker threads record mismatch counts instead of calling gtest
// macros (EXPECT_* is not thread-safe); the main thread asserts after the
// join.

#include "engine/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "engine/engine.h"
#include "graph/generators.h"
#include "search/pbks.h"
#include "search/search_index.h"

namespace hcd {
namespace {

constexpr size_t kMetricCount = std::size(kAllMetrics);

TEST(SnapshotTest, ConcurrentQueriesBitIdenticalToBaseline) {
  Graph g = RMatGraph500(10, 6000, 11);
  HcdEngine engine(&g);
  const QuerySnapshot snapshot = engine.Snapshot();

  // Single-threaded one-shot baseline, one result per metric.
  std::vector<SearchResult> baseline;
  baseline.reserve(kMetricCount);
  for (Metric metric : kAllMetrics) {
    baseline.push_back(PbksSearch(g, engine.Coreness(), engine.Flat(), metric));
  }

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 50;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&snapshot, &baseline, &mismatches, t] {
      SearchWorkspace ws;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        // Offset by the thread id so the metric mix is interleaved across
        // threads: at any instant different workers score different
        // metrics against the same shared snapshot.
        const size_t mi = (static_cast<size_t>(q) + t) % kMetricCount;
        const SearchHit hit = snapshot.Search(kAllMetrics[mi], &ws);
        const SearchResult& want = baseline[mi];
        if (hit.best_node != want.best_node) ++mismatches[t];
        // Bit-identical, not just approximately equal: compare the raw
        // representation of every double.
        if (std::memcmp(&hit.best_score, &want.best_score,
                        sizeof(double)) != 0) {
          ++mismatches[t];
        }
        if (ws.scores.size() != want.scores.size() ||
            std::memcmp(ws.scores.data(), want.scores.data(),
                        ws.scores.size() * sizeof(double)) != 0) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "worker " << t;
  }
}

TEST(SnapshotTest, WorkspaceReuseMatchesAllocatingOverload) {
  Graph g = RMatGraph500(9, 3000, 5);
  HcdEngine engine(&g);
  const QuerySnapshot snapshot = engine.Snapshot();
  SearchWorkspace ws;
  for (Metric metric : kAllMetrics) {
    const SearchHit hit = snapshot.Search(metric, &ws);
    const SearchResult full = snapshot.Search(metric);
    EXPECT_EQ(hit.best_node, full.best_node) << MetricName(metric);
    EXPECT_EQ(hit.best_score, full.best_score) << MetricName(metric);
    EXPECT_EQ(ws.scores, full.scores) << MetricName(metric);
    EXPECT_EQ(ws.scores.size(), snapshot.flat().NumNodes());
  }
  // Once warm, reuse never reallocates the scores buffer.
  const double* warm = ws.scores.data();
  snapshot.Search(Metric::kConductance, &ws);
  snapshot.Search(Metric::kClusteringCoefficient, &ws);
  EXPECT_EQ(ws.scores.data(), warm);
}

TEST(SnapshotTest, CoreVerticesRoundTrip) {
  Graph g = RMatGraph500(9, 3000, 7);
  HcdEngine engine(&g);
  const QuerySnapshot snapshot = engine.Snapshot();
  SearchWorkspace ws;
  const SearchHit hit = snapshot.Search(Metric::kAverageDegree, &ws);
  ASSERT_NE(hit.best_node, kInvalidNode);
  const auto vertices = snapshot.CoreVertices(hit.best_node);
  EXPECT_EQ(vertices.size(), snapshot.flat().CoreSize(hit.best_node));
  EXPECT_FALSE(vertices.empty());
  EXPECT_TRUE(snapshot.CoreVertices(kInvalidNode).empty());
}

TEST(SnapshotTest, SnapshotsShareTheEngineState) {
  HcdEngine engine(RMatGraph500(8, 2000, 3));
  const QuerySnapshot a = engine.Snapshot();
  const QuerySnapshot b = engine.Snapshot();
  // Snapshot() memoizes through the engine: no stage is rebuilt, and every
  // copy points at the same underlying state.
  EXPECT_EQ(&a.search_index(), &engine.Searcher());
  EXPECT_EQ(&a.search_index(), &b.search_index());
  EXPECT_EQ(&a.flat(), &b.flat());
  EXPECT_EQ(&a.coreness(), &b.coreness());
  EXPECT_EQ(&a.graph(), &engine.graph());
  const QuerySnapshot c = a;  // copies are shallow
  EXPECT_EQ(&c.flat(), &a.flat());
}

TEST(SnapshotTest, SearchDoesNoRegistryLookups) {
  HcdEngine engine(RMatGraph500(8, 2000, 3));
  const QuerySnapshot snapshot = engine.Snapshot();
  MetricsRegistry registry;
  registry.Install();
  const uint64_t before = registry.lookup_count();
  SearchWorkspace ws;
  for (int q = 0; q < 100; ++q) {
    snapshot.Search(kAllMetrics[static_cast<size_t>(q) % kMetricCount], &ws);
  }
  const uint64_t after = registry.lookup_count();
  registry.Uninstall();
  // A served query records no stage, so it never takes the registry mutex.
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace hcd
