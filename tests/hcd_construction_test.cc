#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "core/core_decomposition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "common/telemetry.h"
#include "hcd/divide_conquer.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/validate.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

/// Finds the node holding vertex v and checks its level.
void ExpectNodeLevel(const FlatHcdIndex& f, VertexId v, uint32_t level) {
  ASSERT_NE(f.Tid(v), kInvalidNode);
  EXPECT_EQ(f.Level(f.Tid(v)), level);
}

TEST(NaiveHcd, PaperFigure1Structure) {
  Graph g = PaperFigure1Graph();
  CoreDecomposition cd = BzCoreDecomposition(g);
  FlatHcdIndex f = Freeze(NaiveHcdBuild(g, cd));
  ASSERT_EQ(f.NumNodes(), 4u);  // T2, T3.1, T3.2, T4 (Figure 2)

  TreeNodeId t4 = f.Tid(0);           // octahedron vertex
  TreeNodeId t31 = f.Tid(6);          // 3-shell around the octahedron
  TreeNodeId t32 = f.Tid(9);          // 4-clique
  TreeNodeId t2 = f.Tid(13);          // 2-shell path
  EXPECT_EQ(f.Level(t4), 4u);
  EXPECT_EQ(f.Level(t31), 3u);
  EXPECT_EQ(f.Level(t32), 3u);
  EXPECT_NE(t31, t32);
  EXPECT_EQ(f.Level(t2), 2u);

  EXPECT_EQ(f.Parent(t4), t31);
  EXPECT_EQ(f.Parent(t31), t2);
  EXPECT_EQ(f.Parent(t32), t2);
  EXPECT_EQ(f.Parent(t2), kInvalidNode);

  EXPECT_EQ(f.Vertices(t4).size(), 6u);
  EXPECT_EQ(f.Vertices(t31).size(), 3u);
  EXPECT_EQ(f.Vertices(t32).size(), 4u);
  EXPECT_EQ(f.Vertices(t2).size(), 3u);
  EXPECT_EQ(f.CoreSize(t31), 9u);  // S3.1 has 9 vertices (Example 6)
}

TEST(NaiveHcd, RingOfCliquesOneNodePerClique) {
  Graph g = RingOfCliques(5, 4);  // 5 triangles-of-4 at level 3, ring level 1
  CoreDecomposition cd = BzCoreDecomposition(g);
  FlatHcdIndex f = Freeze(NaiveHcdBuild(g, cd));
  EXPECT_TRUE(ValidateHcd(g, cd, f).ok());
  // 5 clique nodes + 1 enclosing node.
  EXPECT_EQ(f.NumNodes(), 6u);
  EXPECT_EQ(testing::Roots(f).size(), 1u);
}

TEST(PlantedHierarchy, MatchesSpecTreeExactly) {
  // Onion with k_max 6: nodes at levels 6,5,4,3,2,1 in a chain.
  Graph g = PlantedHierarchy(OnionSpec(6, 8), 3);
  CoreDecomposition cd = BzCoreDecomposition(g);
  FlatHcdIndex f = Freeze(NaiveHcdBuild(g, cd));
  ASSERT_EQ(f.NumNodes(), 6u);
  const auto order = f.NodesByDescendingLevel();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_EQ(f.Parent(order[i]), order[i + 1]);
  }
  EXPECT_EQ(f.Level(order.front()), 6u);
  EXPECT_EQ(f.Level(order.back()), 1u);
}

TEST(PlantedHierarchy, BranchingSpecNodeCount) {
  // Levels 2,4,6,8,10 with fanout 2: 1+2+4+8+16 = 31 nodes.
  Graph g = PlantedHierarchy(BranchingSpec(2, 10, 2, 2, 5), 4);
  CoreDecomposition cd = BzCoreDecomposition(g);
  FlatHcdIndex f = Freeze(NaiveHcdBuild(g, cd));
  EXPECT_EQ(f.NumNodes(), 31u);
  EXPECT_TRUE(ValidateHcd(g, cd, f).ok());
}

class HcdConstructionSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(HcdConstructionSuite, NaiveOracleSatisfiesInvariants) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  Status s = ValidateHcd(g, cd, Freeze(NaiveHcdBuild(g, cd)));
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST_P(HcdConstructionSuite, LcpsMatchesOracle) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest lcps = LcpsBuild(g, cd);
  Status s = ValidateHcd(g, cd, Freeze(lcps));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(HcdEquals(lcps, Freeze(NaiveHcdBuild(g, cd))));
}

TEST_P(HcdConstructionSuite, PhcdMatchesOracle) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest phcd = PhcdBuild(g, cd);
  Status s = ValidateHcd(g, cd, Freeze(phcd));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(HcdEquals(phcd, Freeze(NaiveHcdBuild(g, cd))));
}

TEST_P(HcdConstructionSuite, DivideAndConquerMatchesOracle) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex oracle = Freeze(NaiveHcdBuild(g, cd));
  for (int partitions : {1, 3, 7}) {
    HcdForest dnc = DivideAndConquerHcd(g, cd, partitions);
    EXPECT_TRUE(HcdEquals(dnc, oracle)) << "partitions=" << partitions;
  }
}

TEST_P(HcdConstructionSuite, PhcdStableAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex base = Freeze(PhcdBuild(g, cd));
  for (int threads : {1, 2, 4, 8}) {
    ThreadCountGuard guard(threads);
    HcdForest f = PhcdBuild(g, cd);
    EXPECT_TRUE(HcdEquals(f, base)) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, HcdConstructionSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(HcdConstruction, RandomSweepAllBuildersAgree) {
  for (uint64_t seed : testing::SweepSeeds()) {
    Graph g = ErdosRenyiGnm(350, 1200, seed);
    CoreDecomposition cd = BzCoreDecomposition(g);
    const FlatHcdIndex oracle = Freeze(NaiveHcdBuild(g, cd));
    EXPECT_TRUE(HcdEquals(LcpsBuild(g, cd), oracle)) << "seed=" << seed;
    EXPECT_TRUE(HcdEquals(PhcdBuild(g, cd), oracle)) << "seed=" << seed;
  }
  for (uint64_t seed : testing::SweepSeeds()) {
    Graph g = BarabasiAlbert(300, 3, seed);
    CoreDecomposition cd = BzCoreDecomposition(g);
    const FlatHcdIndex oracle = Freeze(NaiveHcdBuild(g, cd));
    EXPECT_TRUE(HcdEquals(LcpsBuild(g, cd), oracle)) << "seed=" << seed;
    EXPECT_TRUE(HcdEquals(PhcdBuild(g, cd), oracle)) << "seed=" << seed;
  }
}

TEST(HcdConstruction, SparseFragmentedStress) {
  // Many tiny components with wildly mixed coreness stress LCPS's
  // open-node stack transitions (orphan adoption, sibling closure, seeds).
  for (uint64_t seed = 100; seed < 140; ++seed) {
    Graph g = ErdosRenyiGnm(120, 150, seed);  // below the giant threshold
    CoreDecomposition cd = BzCoreDecomposition(g);
    const FlatHcdIndex oracle = Freeze(NaiveHcdBuild(g, cd));
    EXPECT_TRUE(HcdEquals(LcpsBuild(g, cd), oracle)) << "seed=" << seed;
    EXPECT_TRUE(HcdEquals(PhcdBuild(g, cd), oracle)) << "seed=" << seed;
  }
  // Denser mixtures: cliques dropped into sparse noise.
  for (uint64_t seed = 200; seed < 220; ++seed) {
    GraphBuilder b;
    Rng rng(seed);
    // Three cliques of pseudo-random sizes on disjoint ranges.
    VertexId base = 0;
    for (int c = 0; c < 3; ++c) {
      VertexId size = 3 + static_cast<VertexId>(rng.Uniform(6));
      for (VertexId i = 0; i < size; ++i) {
        for (VertexId j = i + 1; j < size; ++j) b.AddEdge(base + i, base + j);
      }
      base += size;
    }
    // Random sparse noise over 80 vertices including the cliques.
    for (int e = 0; e < 60; ++e) {
      VertexId u = static_cast<VertexId>(rng.Uniform(80));
      VertexId v = static_cast<VertexId>(rng.Uniform(80));
      if (u != v) b.AddEdge(u, v);
    }
    Graph g = std::move(b).Build(80);
    CoreDecomposition cd = BzCoreDecomposition(g);
    const FlatHcdIndex oracle = Freeze(NaiveHcdBuild(g, cd));
    EXPECT_TRUE(HcdEquals(LcpsBuild(g, cd), oracle)) << "seed=" << seed;
    EXPECT_TRUE(HcdEquals(PhcdBuild(g, cd), oracle)) << "seed=" << seed;
  }
}

// The suite graphs are too small for any shell to reach kParallelGrain, so
// this one is what drives the parallel union pass: hub-heavy shells above
// the grain next to thin shells below it, which run on one thread between
// parallel ones. Repeated builds give the races a chance to show.
TEST(HcdConstruction, PhcdRepeatedParallelBuildsMatchLcps) {
  const Graph g = RMatGraph500(14, 200'000, 7);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex lcps_flat = Freeze(LcpsBuild(g, cd));
  const std::vector<VertexId> shell_sizes = KShellSizes(cd);
  const uint64_t shells = static_cast<uint64_t>(
      std::count_if(shell_sizes.begin(), shell_sizes.end(),
                    [](VertexId size) { return size > 0; }));
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 20; ++rep) {
      testing::StageProbe probe;
      const HcdForest phcd = PhcdBuild(g, cd);
      probe.Stop();
      const uint64_t parallel_shells =
          probe.Counter("construction", "parallel_shells");
      ASSERT_GT(parallel_shells, 0u) << "no shell reached the grain";
      ASSERT_LT(parallel_shells, shells) << "every shell ran in parallel";
      ASSERT_TRUE(HcdEquals(phcd, lcps_flat))
          << "threads=" << threads << " rep=" << rep;
      ASSERT_TRUE(HcdEquals(Freeze(phcd), lcps_flat))
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(HcdConstruction, DeepOnionLevels) {
  Graph g = PlantedHierarchy(OnionSpec(20, 22), 9);
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex oracle = Freeze(NaiveHcdBuild(g, cd));
  EXPECT_EQ(oracle.NumNodes(), 20u);
  EXPECT_TRUE(HcdEquals(LcpsBuild(g, cd), oracle));
  EXPECT_TRUE(HcdEquals(PhcdBuild(g, cd), oracle));
  ExpectNodeLevel(oracle, 0, 20u);  // first allocated vertices sit deepest
}

}  // namespace
}  // namespace hcd
