#include <gtest/gtest.h>

#include <algorithm>

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
  TrussDecomposition peel = PeelTrussDecomposition(g, index);
  TrussDecomposition naive = NaiveTrussDecomposition(g, index);
  EXPECT_EQ(peel.trussness, naive.trussness);
  EXPECT_EQ(peel.k_max, naive.k_max);
}

TEST_P(TrussSuite, HierarchyMatchesNaiveOracle) {
  const Graph& g = GetParam().graph;
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest parallel = BuildTrussHierarchy(g, index, td);
  TrussForest oracle = NaiveTrussHierarchy(g, index, td);
  EXPECT_TRUE(HcdEquals(parallel, oracle));
}

TEST_P(TrussSuite, HierarchyStableAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest base = BuildTrussHierarchy(g, index, td);
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
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    for (VertexId eid : forest.Vertices(t)) {
      EXPECT_EQ(td.trussness[eid], forest.Level(t));
      ++placed;
    }
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

TEST(DensestTruss, FindsTheClique) {
  Graph g = RingOfCliques(5, 6);
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  DensestTrussResult best = DensestTruss(g, index, forest);
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
  DensestTrussResult best = DensestTruss(g, index, forest);
  EXPECT_GE(best.community.AverageDegree(), 3.0);
}

}  // namespace
}  // namespace hcd
