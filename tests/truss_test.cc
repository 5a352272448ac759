#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/validate.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

namespace hcd {
namespace {

TEST(EdgeIndexer, MapsBothDirections) {
  Graph g = PaperFigure1Graph();
  EdgeIndexer index = BuildEdgeIndexer(g);
  ASSERT_EQ(index.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const auto nbrs = g.Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeIdx e = index.eid_at[g.AdjOffset(v) + i];
      const auto [a, b] = index.edges[e];
      EXPECT_EQ(std::min(v, nbrs[i]), a);
      EXPECT_EQ(std::max(v, nbrs[i]), b);
      EXPECT_EQ(index.IdOf(g, v, nbrs[i]), e);
      EXPECT_EQ(index.IdOf(g, nbrs[i], v), e);
    }
  }
  EXPECT_EQ(index.IdOf(g, 0, 1), kInvalidEdge);  // octahedron antipodal pair
}

TEST(EdgeIndexerDeathTest, AsymmetricAdjacencyFailsBeforeAnyWrite) {
  // 0 and 1 list 2, and 2 lists nobody: the reverse cursor of 2 would run
  // past its (empty) slice and past the end of eid_at.
  const Graph g(std::vector<EdgeIndex>{0, 1, 2, 2},
                std::vector<VertexId>{2, 2});
  EXPECT_DEATH(BuildEdgeIndexer(g), "asymmetric adjacency");
}

TEST(EdgeSupports, CountTrianglesPerEdge) {
  // Two triangles sharing edge (0,1).
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 3);
  Graph g = std::move(b).Build(4);
  EdgeIndexer index = BuildEdgeIndexer(g);
  std::vector<uint32_t> sup = ComputeEdgeSupports(g, index);
  EXPECT_EQ(sup[index.IdOf(g, 0, 1)], 2u);
  EXPECT_EQ(sup[index.IdOf(g, 0, 2)], 1u);
  EXPECT_EQ(sup[index.IdOf(g, 1, 3)], 1u);
}

TEST(TrussDecomposition, KnownShapes) {
  {
    // K5: every edge in a 5-truss.
    Graph g = CompleteGraph(5);
    EdgeIndexer index = BuildEdgeIndexer(g);
    TrussDecomposition td = PeelTrussDecomposition(g, index);
    EXPECT_EQ(td.k_max, 5u);
    for (uint32_t t : td.trussness) EXPECT_EQ(t, 5u);
  }
  {
    // Triangle-free: everything trussness 2.
    Graph g = CycleGraph(8);
    EdgeIndexer index = BuildEdgeIndexer(g);
    TrussDecomposition td = PeelTrussDecomposition(g, index);
    EXPECT_EQ(td.k_max, 2u);
    for (uint32_t t : td.trussness) EXPECT_EQ(t, 2u);
  }
  {
    // Triangle with a pendant edge.
    GraphBuilder b;
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    b.AddEdge(0, 2);
    b.AddEdge(2, 3);
    Graph g = std::move(b).Build(4);
    EdgeIndexer index = BuildEdgeIndexer(g);
    TrussDecomposition td = PeelTrussDecomposition(g, index);
    EXPECT_EQ(td.k_max, 3u);
    EXPECT_EQ(td.trussness[index.IdOf(g, 0, 1)], 3u);
    EXPECT_EQ(td.trussness[index.IdOf(g, 2, 3)], 2u);
  }
}

class TrussSuite : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(TrussSuite, PeelMatchesNaiveOracle) {
  const Graph& g = GetParam().graph;
  if (g.NumEdges() > 50000) return;  // oracle is slow
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition naive = NaiveTrussDecomposition(g, index);
  for (int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    TrussDecomposition peel = PeelTrussDecomposition(g, index);
    EXPECT_EQ(peel.trussness, naive.trussness) << "threads=" << threads;
    EXPECT_EQ(peel.k_max, naive.k_max) << "threads=" << threads;
  }
}

// Trussness by the definition, recounted from scratch: for k = 3, 4, ...
// sweep the remaining edges, each time counting every edge's triangles
// among them, and drop those with fewer than k - 2 until a sweep drops
// none; the edges left form the k-truss. Shares no code with the oracle,
// which counts supports once and lowers them as triangles are destroyed.
std::vector<uint32_t> TrussnessFromScratch(const Graph& g,
                                           const EdgeIndexer& index) {
  const EdgeIdx m = index.NumEdges();
  std::map<std::pair<VertexId, VertexId>, EdgeIdx> id_of;
  for (EdgeIdx e = 0; e < m; ++e) {
    const auto [u, v] = index.edges[e];
    id_of[{std::min(u, v), std::max(u, v)}] = e;
  }
  std::vector<bool> alive(m, true);
  auto alive_edge = [&](VertexId a, VertexId b) {
    const auto it = id_of.find({std::min(a, b), std::max(a, b)});
    return it != id_of.end() && alive[it->second];
  };
  std::vector<uint32_t> trussness(m, 2);
  EdgeIdx remaining = m;
  for (uint32_t k = 3; remaining > 0; ++k) {
    for (bool removed = true; removed;) {
      removed = false;
      for (EdgeIdx e = 0; e < m; ++e) {
        if (!alive[e]) continue;
        const auto [u, v] = index.edges[e];
        uint32_t support = 0;
        for (VertexId w : g.Neighbors(u)) {
          support += w != v && alive_edge(u, w) && alive_edge(v, w);
        }
        if (support < k - 2) {
          alive[e] = false;
          --remaining;
          removed = true;
        }
      }
    }
    for (EdgeIdx e = 0; e < m; ++e) {
      if (alive[e]) trussness[e] = k;
    }
  }
  return trussness;
}

TEST_P(TrussSuite, NaiveOracleMatchesFromScratchRecount) {
  const Graph& g = GetParam().graph;
  EdgeIndexer index = BuildEdgeIndexer(g);
  const std::vector<uint32_t> expected = TrussnessFromScratch(g, index);
  const TrussDecomposition naive = NaiveTrussDecomposition(g, index);
  EXPECT_EQ(naive.trussness, expected);
  if (!expected.empty()) {
    EXPECT_EQ(naive.k_max,
              *std::max_element(expected.begin(), expected.end()));
  }
}

TEST_P(TrussSuite, HierarchyMatchesNaiveOracle) {
  const Graph& g = GetParam().graph;
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest parallel = BuildTrussHierarchy(g, index, td);
  EXPECT_TRUE(HcdEquals(parallel, Freeze(NaiveTrussHierarchy(g, index, td))));
}

TEST_P(TrussSuite, HierarchyStableAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  const FlatHcdIndex base = Freeze(BuildTrussHierarchy(g, index, td));
  for (int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    EXPECT_TRUE(HcdEquals(BuildTrussHierarchy(g, index, td), base))
        << "threads=" << threads;
  }
}

TEST_P(TrussSuite, HierarchyStructure) {
  const Graph& g = GetParam().graph;
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  // Every edge placed in exactly one node of its trussness level.
  uint64_t placed = 0;
  for (EdgeIdx eid = 0; eid < index.NumEdges(); ++eid) {
    const TreeNodeId t = forest.Tid(eid);
    ASSERT_NE(t, kInvalidNode);
    EXPECT_EQ(td.trussness[eid], forest.Level(t));
    ++placed;
  }
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    TreeNodeId pa = forest.Parent(t);
    if (pa != kInvalidNode) {
      EXPECT_LT(forest.Level(pa), forest.Level(t));
    }
  }
  EXPECT_EQ(placed, index.NumEdges());
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, TrussSuite, ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(TrussHierarchy, RingOfCliquesOneNodePerClique) {
  // Cliques of 5 are separate 5-trusses; bridge edges are trussness-2
  // shells tying everything into one 2-truss.
  Graph g = RingOfCliques(4, 5);
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  EXPECT_EQ(td.k_max, 5u);
  uint32_t clique_nodes = 0;
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    if (forest.Level(t) == 5) ++clique_nodes;
  }
  EXPECT_EQ(clique_nodes, 4u);
}

// The suite graphs are too small for an edge shell to reach
// kParallelGrain, so this one drives the parallel pass over edges: the
// shallow truss shells of an RMAT graph are above the grain and the deep
// ones below it, so thin shells run on one thread between parallel ones.
// Repeated builds give the stale-capture hazard (DESIGN.md §13) a chance
// to show.
TEST(TrussHierarchy, RepeatedParallelBuildsMatchNaive) {
  const Graph g = RMatGraph500(12, 80'000, 7);
  const EdgeIndexer index = BuildEdgeIndexer(g);
  const TrussDecomposition td = PeelTrussDecomposition(g, index);
  const FlatHcdIndex oracle = Freeze(NaiveTrussHierarchy(g, index, td));
  const uint64_t shells = testing::DistinctLevels(td.trussness);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 20; ++rep) {
      testing::StageProbe probe;
      const TrussForest forest = BuildTrussHierarchy(g, index, td);
      probe.Stop();
      const uint64_t parallel_shells =
          probe.Counter("truss.construction", "parallel_shells");
      ASSERT_GT(parallel_shells, 0u) << "no shell reached the grain";
      ASSERT_LT(parallel_shells, shells) << "every shell ran in parallel";
      ASSERT_TRUE(HcdEquals(forest, oracle))
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

// The suite graphs are too small for a peeling sub-round to reach
// kParallelGrain. On this RMAT graph the shallow truss levels peel
// frontiers above the grain and the deep ones frontiers below it, so
// sub-rounds on one thread alternate with parallel ones. Repeated peels
// give a race in the sub-rounds (a clique credited to two frontier edges,
// or lowered after one of its edges was peeled) a chance to show.
TEST(TrussDecomposition, RepeatedParallelPeelsMatchNaive) {
  const Graph g = RMatGraph500(12, 80'000, 7);
  const EdgeIndexer index = BuildEdgeIndexer(g);
  const TrussDecomposition naive = NaiveTrussDecomposition(g, index);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 10; ++rep) {
      testing::StageProbe probe;
      const TrussDecomposition td = PeelTrussDecomposition(g, index);
      probe.Stop();
      const uint64_t rounds = probe.Counter("truss.decomposition", "rounds");
      const uint64_t parallel_rounds =
          probe.Counter("truss.decomposition", "parallel_rounds");
      ASSERT_GT(parallel_rounds, 0u) << "no sub-round reached the grain";
      ASSERT_LT(parallel_rounds, rounds) << "every sub-round ran in parallel";
      ASSERT_EQ(td.trussness, naive.trussness)
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(td.k_max, naive.k_max);
    }
  }
}

TEST(DensestTruss, FindsTheClique) {
  Graph g = RingOfCliques(5, 6);
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  DensestTrussResult best = DensestTruss(index, forest);
  EXPECT_EQ(best.level, 6u);
  EXPECT_EQ(best.community.vertices.size(), 6u);
  EXPECT_DOUBLE_EQ(best.community.AverageDegree(), 5.0);
}

TEST(TrussCommunity, PaperFigure1) {
  Graph g = PaperFigure1Graph();
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  // The 4-clique S3.2 is a 4-truss.
  EXPECT_GE(td.k_max, 4u);
  DensestTrussResult best = DensestTruss(index, forest);
  EXPECT_GE(best.community.AverageDegree(), 3.0);
}

}  // namespace
}  // namespace hcd
