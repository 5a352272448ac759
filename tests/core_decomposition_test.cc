#include <gtest/gtest.h>

#include "common/telemetry.h"
#include "core/core_decomposition.h"
#include "core/julienne.h"
#include "core/naive.h"
#include "graph/generators.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

TEST(BzCoreDecomposition, KnownShapes) {
  {
    CoreDecomposition cd = BzCoreDecomposition(CompleteGraph(6));
    EXPECT_EQ(cd.k_max, 5u);
    for (uint32_t c : cd.coreness) EXPECT_EQ(c, 5u);
  }
  {
    CoreDecomposition cd = BzCoreDecomposition(PathGraph(10));
    EXPECT_EQ(cd.k_max, 1u);
  }
  {
    CoreDecomposition cd = BzCoreDecomposition(CycleGraph(10));
    EXPECT_EQ(cd.k_max, 2u);
    for (uint32_t c : cd.coreness) EXPECT_EQ(c, 2u);
  }
  {
    CoreDecomposition cd = BzCoreDecomposition(StarGraph(10));
    EXPECT_EQ(cd.k_max, 1u);
  }
}

TEST(BzCoreDecomposition, PaperFigure1Shells) {
  CoreDecomposition cd = BzCoreDecomposition(PaperFigure1Graph());
  EXPECT_EQ(cd.k_max, 4u);
  std::vector<VertexId> shells = KShellSizes(cd);
  // 6-vertex 4-core, 3+4 vertices of coreness 3, 3 vertices of coreness 2.
  EXPECT_EQ(shells[4], 6u);
  EXPECT_EQ(shells[3], 7u);
  EXPECT_EQ(shells[2], 3u);
  EXPECT_EQ(shells[1], 0u);
  EXPECT_EQ(shells[0], 0u);
}

TEST(BzCoreDecomposition, EmptyGraph) {
  CoreDecomposition cd = BzCoreDecomposition(Graph());
  EXPECT_EQ(cd.k_max, 0u);
  EXPECT_TRUE(cd.coreness.empty());
}

TEST(NaiveCoreDecomposition, IsolatedVerticesHaveCorenessZero) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build(4);
  CoreDecomposition cd = NaiveCoreDecomposition(g);
  EXPECT_EQ(cd.coreness[2], 0u);
  EXPECT_EQ(cd.coreness[3], 0u);
  EXPECT_EQ(cd.coreness[0], 1u);
}

class CoreDecompositionSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(CoreDecompositionSuite, BzMatchesNaiveOracle) {
  const Graph& g = GetParam().graph;
  EXPECT_TRUE(VerifyCoreDecomposition(g, BzCoreDecomposition(g)));
}

TEST_P(CoreDecompositionSuite, PkcMatchesBz) {
  const Graph& g = GetParam().graph;
  CoreDecomposition bz = BzCoreDecomposition(g);
  CoreDecomposition pkc = PkcCoreDecomposition(g);
  EXPECT_EQ(bz.coreness, pkc.coreness);
  EXPECT_EQ(bz.k_max, pkc.k_max);
}

TEST_P(CoreDecompositionSuite, JulienneMatchesBz) {
  const Graph& g = GetParam().graph;
  CoreDecomposition bz = BzCoreDecomposition(g);
  CoreDecomposition jul = JulienneCoreDecomposition(g);
  EXPECT_EQ(bz.coreness, jul.coreness);
  EXPECT_EQ(bz.k_max, jul.k_max);
}

TEST_P(CoreDecompositionSuite, JulienneStableAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  CoreDecomposition base = JulienneCoreDecomposition(g);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(JulienneCoreDecomposition(g).coreness, base.coreness)
        << "threads=" << threads;
  }
}

TEST_P(CoreDecompositionSuite, ApproxGuaranteeHolds) {
  const Graph& g = GetParam().graph;
  CoreDecomposition exact = BzCoreDecomposition(g);
  for (double delta : {0.25, 1.0}) {
    CoreDecomposition approx = ApproxCoreDecomposition(g, delta);
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      // c~ <= c < (1 + delta) * c~ + 1
      EXPECT_LE(approx.coreness[v], exact.coreness[v]) << "vertex " << v;
      EXPECT_LT(static_cast<double>(exact.coreness[v]),
                (1.0 + delta) * approx.coreness[v] + 1.0 + 1e-9)
          << "vertex " << v << " delta " << delta;
    }
  }
}

TEST_P(CoreDecompositionSuite, PkcStableAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  CoreDecomposition base = PkcCoreDecomposition(g);
  for (int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    CoreDecomposition cd = PkcCoreDecomposition(g);
    EXPECT_EQ(cd.coreness, base.coreness) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, CoreDecompositionSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(PkcCoreDecomposition, RandomSweep) {
  for (uint64_t seed : testing::SweepSeeds()) {
    Graph g = ErdosRenyiGnm(400, 1800, seed);
    CoreDecomposition bz = BzCoreDecomposition(g);
    CoreDecomposition pkc = PkcCoreDecomposition(g);
    EXPECT_EQ(bz.coreness, pkc.coreness) << "seed=" << seed;
  }
}

// A skewed graph with a deep core: the first rounds scan all n vertices in
// parallel, later rounds scan a compacted list (rebuilt as it halves) and
// mostly run on one thread, except where a short scan finds a hub-heavy
// frontier. Repeated at 2 and 4 threads so a race in the compaction or in
// the seeding of a frontier has a chance to show.
TEST(PkcCoreDecomposition, CompactedRoundsMatchBzOnSkewedGraph) {
  const Graph g = RMatGraph500(14, 200'000, 7);
  const CoreDecomposition bz = BzCoreDecomposition(g);
  ASSERT_GT(bz.k_max, 50u);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 20; ++rep) {
      testing::StageProbe probe;
      const CoreDecomposition pkc = PkcCoreDecomposition(g);
      probe.Stop();
      ASSERT_GE(probe.Counter("decomposition", "compactions"), 2u);
      ASSERT_EQ(pkc.coreness, bz.coreness)
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(pkc.k_max, bz.k_max);
    }
  }
}

TEST(KShellSizes, SumsToN) {
  Graph g = BarabasiAlbert(300, 4, 17);
  CoreDecomposition cd = BzCoreDecomposition(g);
  std::vector<VertexId> shells = KShellSizes(cd);
  uint64_t total = 0;
  for (VertexId s : shells) total += s;
  EXPECT_EQ(total, g.NumVertices());
}

}  // namespace
}  // namespace hcd
