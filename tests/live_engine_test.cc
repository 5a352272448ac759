#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/core_decomposition.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "hcd/serialize.h"
#include "hcd/validate.h"
#include "search/metrics.h"
#include "search/search_index.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

std::vector<EdgeUpdate> ToggleBatch(const DynamicCoreIndex& index, Rng& rng,
                                    size_t size) {
  const VertexId n = index.NumVertices();
  std::vector<EdgeUpdate> batch;
  while (batch.size() < size) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    batch.push_back({u, v,
                     index.HasEdge(u, v) ? EdgeOp::kRemove
                                         : EdgeOp::kInsert});
  }
  return batch;
}

/// The served answer to a global `metric` query: the score of the search
/// tables' best node.
double BestScore(const QuerySnapshot& snap, Metric metric) {
  const SearchIndex& sidx = snap.search_index();
  return sidx.Score(metric, sidx.BestAtLeast(metric, 0));
}

TEST(LiveEngine, EpochAdvancesPerEffectiveBatch) {
  LiveEngine live(ErdosRenyiGnm(100, 300, 5));
  EXPECT_EQ(live.Epoch(), 0u);
  Rng rng(6);
  for (uint64_t i = 1; i <= 3; ++i) {
    BatchApplyReport report;
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 10), &report).ok());
    EXPECT_TRUE(report.published);
    EXPECT_EQ(report.epoch, i);
    EXPECT_EQ(live.Epoch(), i);
    EXPECT_EQ(live.Snapshot().epoch(), i);
    EXPECT_GT(report.stats.applied, 0u);
    EXPECT_GE(report.total_seconds, 0.0);
  }
  // A batch with no net effect publishes nothing.
  std::vector<EdgeUpdate> noop;
  const std::vector<EdgeUpdate> one = ToggleBatch(live.dynamic(), rng, 1);
  noop.push_back(one[0]);
  noop.push_back({one[0].u, one[0].v,
                  one[0].op == EdgeOp::kInsert ? EdgeOp::kRemove
                                               : EdgeOp::kInsert});
  BatchApplyReport report;
  ASSERT_TRUE(live.ApplyBatch(noop, &report).ok());
  EXPECT_FALSE(report.published);
  EXPECT_EQ(live.Epoch(), 3u);
}

TEST(LiveEngine, ServesExactlyWhatAFreshBuildWould) {
  LiveEngine live(ErdosRenyiGnp(200, 0.015, 13));
  Rng rng(14);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 30), nullptr).ok());
    // Every batch cross-checked against BZ from scratch.
    ASSERT_EQ(live.dynamic().CorenessValues(),
              BzCoreDecomposition(live.dynamic().ToGraph()).coreness);
    const QuerySnapshot snap = live.Snapshot();
    HcdEngine fresh(live.dynamic().ToGraph());
    const QuerySnapshot expect = fresh.Snapshot();
    ASSERT_EQ(snap.coreness().coreness, expect.coreness().coreness);
    ASSERT_TRUE(HcdEquals(snap.flat(), expect.flat()));
    ASSERT_TRUE(
        ValidateHcd(snap.graph(), snap.coreness(), snap.flat()).ok());
    for (Metric metric : kAllMetrics) {
      ASSERT_DOUBLE_EQ(BestScore(snap, metric), BestScore(expect, metric))
          << MetricName(metric);
    }
  }
}

bool SameTables(const FlatHcdIndex& a, const FlatHcdIndex& b) {
  if (a.NumGraphEdges() != b.NumGraphEdges() ||
      a.Primaries().size() != b.Primaries().size() ||
      a.data().best_nodes != b.data().best_nodes) {
    return false;
  }
  for (size_t t = 0; t < a.Primaries().size(); ++t) {
    const PrimaryValues& x = a.Primaries()[t];
    const PrimaryValues& y = b.Primaries()[t];
    if (x.n_s != y.n_s || x.edges2 != y.edges2 || x.boundary != y.boundary ||
        x.triangles != y.triangles || x.triplets != y.triplets) {
      return false;
    }
  }
  return true;
}

// A live engine seeded from a snapshot with search tables starts from the
// mapped tables and builds fresh ones for every publish: each generation's
// tables equal a full rebuild's from that generation's graph.
TEST(LiveEngine, SeededFromATabledSnapshotPublishesTablesOfAFullRebuild) {
  const Graph graph = RMatGraph500(9, 2500, 61);
  const std::string path = ::testing::TempDir() + "/live_engine_tables.snap";
  {
    HcdEngine source(&graph);
    ASSERT_TRUE(
        SaveFlatIndex(*source.Snapshot().state()->shared_flat(), path).ok());
  }
  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
  std::remove(path.c_str());
  LiveEngineOptions options;
  options.initial_flat = std::make_shared<const FlatHcdIndex>(std::move(mapped));
  LiveEngine live(Graph(graph), options);
  ASSERT_EQ(live.Snapshot().state()->shared_flat(), options.initial_flat);
  Rng rng(62);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 20), nullptr).ok());
    const QuerySnapshot snap = live.Snapshot();
    HcdEngine fresh(live.dynamic().ToGraph());
    const QuerySnapshot expect = fresh.Snapshot();
    ASSERT_TRUE(HcdEquals(snap.flat(), expect.flat()));
    ASSERT_TRUE(snap.flat().HasSearchTables());
    ASSERT_TRUE(SameTables(snap.flat(), expect.flat())) << "round " << round;
  }
}

// The writer-side index serves the published generation itself: after
// every publish it holds no edits, its coreness is the generation's, and
// its graph is the generation's graph.
TEST(LiveEngine, DynamicIndexTracksThePublishedGeneration) {
  LiveEngine live(BarabasiAlbertVarying(300, 2, 12, 51));
  ASSERT_EQ(live.dynamic().CorenessValues(),
            live.Snapshot().coreness().coreness);
  Rng rng(52);
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 20), nullptr).ok());
    const QuerySnapshot snap = live.Snapshot();
    ASSERT_EQ(snap.epoch(), static_cast<uint64_t>(round) + 1);
    ASSERT_EQ(live.dynamic().CorenessValues(), snap.coreness().coreness);
    EXPECT_EQ(live.dynamic().KMax(), snap.coreness().k_max);
    EXPECT_EQ(live.dynamic().EditedRows(), 0u);
    EXPECT_EQ(live.dynamic().NumEdges(), snap.graph().NumEdges());
    EXPECT_EQ(live.dynamic().ToGraph().Edges(), snap.graph().Edges());
  }
}

TEST(LiveEngine, OldSnapshotsSurviveSwapsAndEngineDeath) {
  auto live = std::make_unique<LiveEngine>(ErdosRenyiGnm(120, 400, 21));
  const QuerySnapshot old_snap = live->Snapshot();
  const double before = BestScore(old_snap, Metric::kAverageDegree);
  Rng rng(22);
  ASSERT_TRUE(
      live->ApplyBatch(ToggleBatch(live->dynamic(), rng, 20), nullptr).ok());
  const QuerySnapshot new_snap = live->Snapshot();
  EXPECT_EQ(old_snap.epoch(), 0u);
  EXPECT_EQ(new_snap.epoch(), 1u);
  // The old generation still serves identical answers after the swap...
  EXPECT_DOUBLE_EQ(BestScore(old_snap, Metric::kAverageDegree), before);
  // ...and after the engine itself is gone.
  live.reset();
  EXPECT_DOUBLE_EQ(BestScore(old_snap, Metric::kAverageDegree), before);
  EXPECT_GT(new_snap.graph().NumVertices(), 0u);
}

// The reader/writer hot-swap test the TSan CI job runs: readers acquire
// and query snapshots continuously while the writer publishes several
// generations. Readers never hold a lock while querying — any missing
// synchronization in SnapshotManager/SnapshotReader/SnapshotState shows
// up as a TSan race here. Both reader paths are exercised: the cached
// SnapshotReader fast path and the direct Acquire() pointer copy.
TEST(LiveEngine, ConcurrentReadersAcrossHotSwaps) {
  LiveEngine live(ErdosRenyiGnm(150, 500, 31));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  const int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&live, &stop, &reads] {
      SnapshotReader reader(live.manager());
      uint64_t last_epoch = 0;
      uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const QuerySnapshot snap =
            ++iter % 8 == 0 ? live.Snapshot() : reader.Snapshot();
        // Epochs are monotone: a reader never observes time running
        // backwards across swaps.
        EXPECT_GE(snap.epoch(), last_epoch);
        last_epoch = snap.epoch();
        const SearchIndex& sidx = snap.search_index();
        const SearchResult hit =
            ScoreNodes(snap.flat(), Metric::kAverageDegree, sidx.Primary(),
                       sidx.globals());
        EXPECT_NE(hit.best_node, kInvalidNode);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  Rng rng(32);
  uint64_t published = 0;
  while (published < 4) {  // >= 3 hot-swaps under active readers
    // Let the readers get a query in between publishes, so the swaps
    // really overlap reads even when the writer outruns thread start-up.
    const uint64_t reads_before = reads.load();
    while (reads.load() == reads_before) std::this_thread::yield();
    BatchApplyReport report;
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 25), &report).ok());
    if (report.published) ++published;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(live.Epoch(), published);
  EXPECT_GT(reads.load(), 0u);
}

// One batch traces as "live.apply_batch" around its four phases.
TEST(LiveEngine, TracesEachBatchPhaseInsideItsBatch) {
  Tracer tracer;
  tracer.Install();
  {
    LiveEngine live(ErdosRenyiGnm(100, 300, 43));
    Rng rng(44);
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 15), nullptr).ok());
  }
  tracer.Uninstall();
  std::map<std::string, std::vector<TraceSpan>> by_name;
  for (const TraceSpanRecord& record : tracer.CollectSpans()) {
    by_name[record.span.name].push_back(record.span);
  }
  ASSERT_EQ(by_name["live.apply_batch"].size(), 1u);
  const TraceSpan& batch = by_name["live.apply_batch"][0];
  for (const char* phase :
       {"live.apply", "live.refreeze", "live.to_graph", "live.publish"}) {
    ASSERT_EQ(by_name[phase].size(), 1u) << phase;
    const TraceSpan& span = by_name[phase][0];
    EXPECT_GE(span.ts_ns, batch.ts_ns) << phase;
    EXPECT_LE(span.ts_ns + span.dur_ns, batch.ts_ns + batch.dur_ns) << phase;
  }
}

TEST(LiveEngine, PublishesMetrics) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(100, 300, 41));
    Rng rng(42);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 15), nullptr)
              .ok());
    }
    EXPECT_EQ(registry.GetGauge("hcd_snapshot_epoch")->Value(), 3.0);
    EXPECT_EQ(registry.GetHistogram("hcd_batch_apply_seconds")->TotalCount(),
              3u);
    EXPECT_GT(registry.GetCounter("hcd_subcores_touched_total")->Value(), 0u);
  }
  registry.Uninstall();
}

}  // namespace
}  // namespace hcd
