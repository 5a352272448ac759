#include <gtest/gtest.h>

#include <algorithm>

#include "common/telemetry.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/validate.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

struct NucleusPipeline {
  Graph graph;
  EdgeIndexer eidx;
  TriangleIndexer tidx;
};

NucleusPipeline Build(Graph g) {
  NucleusPipeline p;
  p.graph = std::move(g);
  p.eidx = BuildEdgeIndexer(p.graph);
  p.tidx = BuildTriangleIndexer(p.graph, p.eidx);
  return p;
}

TEST(TriangleIndexer, EnumeratesAndLooksUp) {
  NucleusPipeline p = Build(CompleteGraph(5));
  EXPECT_EQ(p.tidx.NumTriangles(), 10u);  // C(5,3)
  // Triangle (0,1,2) must be findable from each of its edges.
  for (auto [a, b, c] : {std::array<VertexId, 3>{0, 1, 2}}) {
    EdgeIdx e = p.eidx.IdOf(p.graph, a, b);
    TriIdx t = p.tidx.IdOf(e, c);
    ASSERT_NE(t, kInvalidTriangle);
    EXPECT_EQ(p.tidx.triangles[t], (std::array<VertexId, 3>{a, b, c}));
  }
  EdgeIdx e01 = p.eidx.IdOf(p.graph, 0, 1);
  EXPECT_EQ(p.tidx.IdOf(e01, 0), kInvalidTriangle);
}

TEST(TriangleIndexer, TriangleFreeGraph) {
  NucleusPipeline p = Build(CycleGraph(8));
  EXPECT_EQ(p.tidx.NumTriangles(), 0u);
}

TEST(NucleusDecomposition, CompleteGraphs) {
  // In K_n, every triangle participates in n-3 4-cliques, and the whole
  // clique is one (n-3)-nucleus.
  for (VertexId n : {4u, 5u, 6u, 7u}) {
    NucleusPipeline p = Build(CompleteGraph(n));
    std::vector<uint32_t> sup =
        ComputeTriangleSupports(p.graph, p.tidx);
    for (uint32_t s : sup) EXPECT_EQ(s, n - 3);
    NucleusDecomposition nd =
        PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
    EXPECT_EQ(nd.k_max, n - 3);
    for (uint32_t t : nd.theta) EXPECT_EQ(t, n - 3);
  }
}

TEST(NucleusDecomposition, LoneTriangleHasThetaZero) {
  NucleusPipeline p = Build(CompleteGraph(3));
  NucleusDecomposition nd = PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  ASSERT_EQ(nd.theta.size(), 1u);
  EXPECT_EQ(nd.theta[0], 0u);
  EXPECT_EQ(nd.k_max, 0u);
}

class NucleusSuite : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(NucleusSuite, PeelMatchesNaiveOracle) {
  const Graph& g = GetParam().graph;
  if (g.NumEdges() > 6000) return;  // oracle cost
  NucleusPipeline p = Build(g);
  NucleusDecomposition naive =
      NaiveNucleusDecomposition(p.graph, p.eidx, p.tidx);
  for (int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    NucleusDecomposition peel =
        PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
    EXPECT_EQ(peel.theta, naive.theta) << "threads=" << threads;
    EXPECT_EQ(peel.k_max, naive.k_max) << "threads=" << threads;
  }
}

TEST_P(NucleusSuite, HierarchyMatchesNaiveOracle) {
  const Graph& g = GetParam().graph;
  if (g.NumEdges() > 20000) return;
  NucleusPipeline p = Build(g);
  NucleusDecomposition nd = PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  NucleusForest parallel = BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd);
  EXPECT_TRUE(HcdEquals(
      parallel, Freeze(NaiveNucleusHierarchy(p.graph, p.eidx, p.tidx, nd))));
}

TEST_P(NucleusSuite, HierarchyStableAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  if (g.NumEdges() > 20000) return;
  NucleusPipeline p = Build(g);
  NucleusDecomposition nd = PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  const FlatHcdIndex base =
      Freeze(BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd));
  for (int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    EXPECT_TRUE(
        HcdEquals(BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd), base))
        << "threads=" << threads;
  }
}

TEST_P(NucleusSuite, EveryTrianglePlacedAtItsTheta) {
  const Graph& g = GetParam().graph;
  if (g.NumEdges() > 20000) return;
  NucleusPipeline p = Build(g);
  NucleusDecomposition nd = PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  NucleusForest forest = BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd);
  uint64_t placed = 0;
  for (TriIdx tri = 0; tri < p.tidx.NumTriangles(); ++tri) {
    const TreeNodeId t = forest.Tid(tri);
    ASSERT_NE(t, kInvalidNode);
    EXPECT_EQ(nd.theta[tri], forest.Level(t));
    ++placed;
  }
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    if (forest.Parent(t) != kInvalidNode) {
      EXPECT_LT(forest.Level(forest.Parent(t)), forest.Level(t));
    }
  }
  EXPECT_EQ(placed, p.tidx.NumTriangles());
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, NucleusSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

// The suite graphs are too small for a triangle shell to reach
// kParallelGrain, so this one drives the parallel pass over triangles: a
// planted branching hierarchy whose deepest nucleus shells are above the
// grain and whose shallower ones, each capturing the cores below it, run
// on one thread after them. Repeated builds give the stale-capture hazard
// (DESIGN.md §13) a chance to show.
TEST(NucleusHierarchy, RepeatedParallelBuildsMatchNaive) {
  const NucleusPipeline p =
      Build(PlantedHierarchy(BranchingSpec(3, 14, 3, 2, 40), 7));
  const NucleusDecomposition nd =
      PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  const FlatHcdIndex oracle =
      Freeze(NaiveNucleusHierarchy(p.graph, p.eidx, p.tidx, nd));
  const uint64_t shells = testing::DistinctLevels(nd.theta);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 20; ++rep) {
      testing::StageProbe probe;
      const NucleusForest forest =
          BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd);
      probe.Stop();
      const uint64_t parallel_shells =
          probe.Counter("nucleus.construction", "parallel_shells");
      ASSERT_GT(parallel_shells, 0u) << "no shell reached the grain";
      ASSERT_LT(parallel_shells, shells) << "every shell ran in parallel";
      ASSERT_TRUE(HcdEquals(forest, oracle))
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// The suite graphs are too small for a peeling sub-round to reach
// kParallelGrain. In this planted hierarchy the large shallow nucleus
// levels peel frontiers above the grain and the deep ones frontiers below
// it. Repeated peels give a race in the sub-rounds (a 4-clique credited to
// two frontier triangles, or lowered after one of its triangles was
// peeled) a chance to show.
TEST(NucleusDecomposition, RepeatedParallelPeelsMatchNaive) {
  const NucleusPipeline p =
      Build(PlantedHierarchy(BranchingSpec(3, 14, 3, 2, 40), 7));
  const NucleusDecomposition naive =
      NaiveNucleusDecomposition(p.graph, p.eidx, p.tidx);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 10; ++rep) {
      testing::StageProbe probe;
      const NucleusDecomposition nd =
          PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
      probe.Stop();
      const uint64_t rounds = probe.Counter("nucleus.decomposition", "rounds");
      const uint64_t parallel_rounds =
          probe.Counter("nucleus.decomposition", "parallel_rounds");
      ASSERT_GT(parallel_rounds, 0u) << "no sub-round reached the grain";
      ASSERT_LT(parallel_rounds, rounds) << "every sub-round ran in parallel";
      ASSERT_EQ(nd.theta, naive.theta)
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(nd.k_max, naive.k_max);
    }
  }
}

TEST(NucleusHierarchy, TwoCliquesSharingAnEdge) {
  // Two K5s sharing one edge: each K5's triangles form a separate
  // 2-nucleus (no 4-clique spans both), with no common ancestor because no
  // lower-theta shell exists.
  GraphBuilder b;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.AddEdge(u, v);
  }
  // Second K5 on {0, 1, 5, 6, 7} (shares edge (0,1)).
  const VertexId second[] = {0, 1, 5, 6, 7};
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) b.AddEdge(second[i], second[j]);
  }
  NucleusPipeline p = Build(std::move(b).Build(8));
  NucleusDecomposition nd = PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  EXPECT_EQ(nd.k_max, 2u);
  NucleusForest forest = BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd);
  uint32_t level2 = 0;
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    level2 += forest.Level(t) == 2;
  }
  EXPECT_EQ(level2, 2u);
  EXPECT_TRUE(HcdEquals(
      forest, Freeze(NaiveNucleusHierarchy(p.graph, p.eidx, p.tidx, nd))));
}

TEST(NucleusHierarchy, NestedCliquesNest) {
  // K7 with a pendant K4 glued on a K7-triangle... simpler: K7 plus an
  // extra vertex adjacent to 4 clique vertices: the K8-minus-edges region
  // has lower theta and should sit below the K7 nucleus.
  GraphBuilder b;
  for (VertexId u = 0; u < 7; ++u) {
    for (VertexId v = u + 1; v < 7; ++v) b.AddEdge(u, v);
  }
  for (VertexId v = 0; v < 4; ++v) b.AddEdge(7, v);
  NucleusPipeline p = Build(std::move(b).Build(8));
  NucleusDecomposition nd = PeelNucleusDecomposition(p.graph, p.eidx, p.tidx);
  NucleusForest forest = BuildNucleusHierarchy(p.graph, p.eidx, p.tidx, nd);
  EXPECT_TRUE(HcdEquals(
      forest, Freeze(NaiveNucleusHierarchy(p.graph, p.eidx, p.tidx, nd))));
  // The K7 triangles have theta 4; vertex-7 triangles have theta 2 (the
  // K6 on {0..3,7} ... they participate in fewer 4-cliques).
  EXPECT_EQ(nd.k_max, 4u);
  // The deepest node's parent chain reaches a root.
  TreeNodeId deepest = 0;
  for (TreeNodeId t = 1; t < forest.NumNodes(); ++t) {
    if (forest.Level(t) > forest.Level(deepest)) deepest = t;
  }
  uint32_t hops = 0;
  for (TreeNodeId t = deepest; t != kInvalidNode; t = forest.Parent(t)) {
    ++hops;
    ASSERT_LT(hops, 100u);
  }
  EXPECT_GE(hops, 2u);
}

}  // namespace
}  // namespace hcd
