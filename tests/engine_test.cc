// Tests for the HcdEngine pipeline layer: stage memoization (each stage
// computed at most once per engine), options plumbing (thread-count
// guarding), the stages an installed registry receives, the Load factory,
// and the search index against the one-shot PBKS oracle.

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "common/timer.h"
#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "hcd/lcps.h"
#include "hcd/phcd.h"
#include "hcd/serialize.h"
#include "parallel/omp_utils.h"
#include "search/pbks.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

TEST(EngineTest, StagesAreMemoized) {
  HcdEngine engine(RMatGraph500(9, 3000, 5));
  const CoreDecomposition* cd = &engine.Coreness();
  const FlatHcdIndex* flat = &engine.Flat();
  const SearchIndex* searcher = &engine.Searcher();
  // Second calls return the same objects, not recomputations.
  EXPECT_EQ(cd, &engine.Coreness());
  EXPECT_EQ(flat, &engine.Flat());
  EXPECT_EQ(searcher, &engine.Searcher());
}

TEST(EngineTest, DecompositionRunsExactlyOnce) {
  testing::StageProbe probe;
  HcdEngine engine(RMatGraph500(9, 3000, 5));
  // Exercise every stage, several times, in an order where each stage
  // demands its prerequisites.
  engine.Searcher();
  engine.Snapshot();
  engine.Searcher();
  engine.Coreness();
  engine.Flat();
  engine.Searcher();
  probe.Stop();
  EXPECT_EQ(probe.Runs("decomposition"), 1u);
  EXPECT_EQ(probe.Runs("construction"), 1u);
  EXPECT_EQ(probe.Runs("construction.freeze"), 1u);
  EXPECT_EQ(probe.Runs("search.preprocess"), 1u);
  EXPECT_EQ(probe.Runs("search.primary_a"), 1u);
  EXPECT_EQ(probe.Runs("search.primary_b"), 1u);
}

TEST(EngineTest, InstalledRegistryGetsOneStagePerLibraryCall) {
  Graph g = ErdosRenyiGnm(300, 900, 1);
  testing::StageProbe probe;
  CoreDecomposition cd = PkcCoreDecomposition(g);
  EXPECT_EQ(probe.TotalRuns(), 1u);
  EXPECT_EQ(probe.Runs("decomposition"), 1u);
  EXPECT_EQ(probe.Runs("construction"), 0u);
  PhcdBuild(g, cd);
  EXPECT_EQ(probe.Runs("construction"), 1u);
  LcpsBuild(g, cd);
  EXPECT_EQ(probe.Runs("construction"), 2u);
  BzCoreDecomposition(g);
  EXPECT_EQ(probe.Runs("decomposition"), 2u);
  EXPECT_EQ(probe.TotalRuns(), 4u);
  probe.Stop();
  // Uninstalled, the calls still work and add nothing.
  CoreDecomposition cd2 = PkcCoreDecomposition(g);
  EXPECT_EQ(cd2.coreness, cd.coreness);
  EXPECT_EQ(probe.TotalRuns(), 4u);
  EXPECT_EQ(probe.Runs("decomposition"), 2u);
}

TEST(EngineTest, ThreadOptionDoesNotLeakGlobalState) {
  const int ambient = MaxThreads();
  HcdEngine engine(RMatGraph500(8, 2000, 3), {.threads = ambient + 1});
  engine.Searcher();
  // Every stage ran under ThreadCountGuard; the ambient OpenMP setting is
  // untouched.
  EXPECT_EQ(MaxThreads(), ambient);
}

// The search tables answer a metric query with one lookup: the global
// best node and its score must be the one-shot PBKS scan's, bit for bit,
// for every metric on every suite graph (the empty graph has no best node
// on either side).
TEST(EngineTest, SearcherMatchesPbksOnEverySuiteGraph) {
  for (const testing::GraphCase& c : testing::StandardGraphSuite()) {
    SCOPED_TRACE(c.name);
    HcdEngine engine(&c.graph);
    const SearchIndex& searcher = engine.Searcher();
    for (const Metric metric : kAllMetrics) {
      SCOPED_TRACE(MetricName(metric));
      const SearchResult pbks =
          PbksSearch(c.graph, engine.Coreness(), engine.Flat(), metric);
      const TreeNodeId best = searcher.BestAtLeast(metric, 0);
      ASSERT_EQ(best, pbks.best_node);
      if (best == kInvalidNode) continue;
      EXPECT_EQ(std::bit_cast<uint64_t>(searcher.Score(metric, best)),
                std::bit_cast<uint64_t>(pbks.best_score));
    }
  }
}

TEST(EngineTest, LoadRecordsLoadStage) {
  Graph g = ErdosRenyiGnm(200, 600, 9);
  const std::string path = ::testing::TempDir() + "/engine_test_graph.bin";
  ASSERT_TRUE(SaveBinary(g, path).ok());

  testing::StageProbe probe;
  std::unique_ptr<HcdEngine> engine;
  const Status s = HcdEngine::Load(path, {}, &engine);
  probe.Stop();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(engine->graph().NumVertices(), g.NumVertices());
  EXPECT_EQ(engine->graph().NumEdges(), g.NumEdges());
  EXPECT_EQ(probe.Runs("load"), 1u);

  std::unique_ptr<HcdEngine> missing;
  EXPECT_FALSE(
      HcdEngine::Load("/nonexistent/graph.bin", {}, &missing).ok());
}

TEST(EngineTest, LoadStageEnclosesItsSubStages) {
  Graph g = ErdosRenyiGnm(20000, 200000, 4);
  const std::string path = ::testing::TempDir() + "/engine_test_total.txt";
  ASSERT_TRUE(SaveEdgeListText(g, path).ok());

  testing::StageProbe probe;
  std::unique_ptr<HcdEngine> engine;
  Timer timer;
  const Status s = HcdEngine::Load(path, {}, &engine);
  const double wall = timer.Seconds();
  probe.Stop();
  ASSERT_TRUE(s.ok());
  // "load" encloses load.read/parse/remap/build, which run one after the
  // other inside it.
  EXPECT_EQ(probe.Runs("load.parse"), 1u);
  EXPECT_GT(probe.Seconds("load.parse"), 0.0);
  EXPECT_LE(probe.Seconds("load"), wall);
  EXPECT_LE(probe.Seconds("load.read") + probe.Seconds("load.parse") +
                probe.Seconds("load.remap") + probe.Seconds("load.build"),
            probe.Seconds("load"));
  std::remove(path.c_str());
}

TEST(EngineTest, AdoptFlatRejectsASnapshotThatDoesNotFitTheGraph) {
  // CheckSnapshotFits guards AdoptFlat and `hcd_cli serve --snapshot`: the
  // snapshot's kind must match and it must cover exactly the graph.
  const Graph g = RMatGraph500(8, 1500, 3);
  HcdEngine source(&g);
  const std::string path = ::testing::TempDir() + "/engine_test_adopt.forest";
  ASSERT_TRUE(SaveFlatIndex(source.Flat(), path).ok());
  FlatHcdIndex loaded;
  ASSERT_TRUE(MapFlatIndex(path, &loaded).ok());
  std::remove(path.c_str());
  const auto flat = std::make_shared<const FlatHcdIndex>(std::move(loaded));

  HcdEngine truss(&g, {.hierarchy = HierarchyKind::kTruss});
  EXPECT_EQ(truss.AdoptFlat(flat).code(), StatusCode::kInvalidArgument);
  const Graph bigger = RMatGraph500(9, 1500, 3);
  HcdEngine other(&bigger);
  EXPECT_EQ(other.AdoptFlat(flat).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckSnapshotFits(*flat, HierarchyKind::kCore, g.NumVertices() + 1,
                              g.NumEdges())
                .code(),
            StatusCode::kInvalidArgument);
  HcdEngine same(&g);
  ASSERT_TRUE(same.AdoptFlat(flat).ok());
  EXPECT_EQ(&same.Flat(), flat.get());
}

// An adopted core index records every vertex's coreness as the level of
// its node: the engine reads it off, with no "decomposition" stage, and it
// equals BZ's peel (the suite covers empty, isolated-only and mixed graphs).
TEST(EngineTest, AdoptedCoreIndexImpliesCorenessOnEverySuiteGraph) {
  for (const testing::GraphCase& c : testing::StandardGraphSuite()) {
    SCOPED_TRACE(c.name);
    HcdEngine source(&c.graph);
    const auto flat = std::make_shared<const FlatHcdIndex>(source.Flat());
    HcdEngine adopted(&c.graph);
    ASSERT_TRUE(adopted.AdoptFlat(flat).ok());
    testing::StageProbe probe;
    const CoreDecomposition& cd = adopted.Coreness();
    probe.Stop();
    EXPECT_EQ(probe.Runs("decomposition"), 0u);
    const CoreDecomposition bz = BzCoreDecomposition(c.graph);
    EXPECT_EQ(cd.coreness, bz.coreness);
    EXPECT_EQ(cd.k_max, bz.k_max);
  }
}

TEST(TelemetryTest, JsonEscaping) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

}  // namespace
}  // namespace hcd
