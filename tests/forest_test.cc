#include <gtest/gtest.h>

#include <string>

#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "hcd/export.h"
#include "hcd/naive_hcd.h"
#include "hcd/stats.h"
#include "hcd/validate.h"

namespace hcd {
namespace {

HcdForest SmallForest() {
  // Root (level 1) with two children (levels 3 and 2), one grandchild.
  HcdForest f(8);
  TreeNodeId root = f.NewNode(1);
  TreeNodeId a = f.NewNode(3);
  TreeNodeId b = f.NewNode(2);
  TreeNodeId c = f.NewNode(5);
  f.AddVertex(root, 0);
  f.AddVertex(root, 1);
  f.AddVertex(a, 2);
  f.AddVertex(a, 3);
  f.AddVertex(b, 4);
  f.AddVertex(c, 5);
  f.AddVertex(c, 6);
  f.AddVertex(c, 7);
  f.SetParent(a, root);
  f.SetParent(b, root);
  f.SetParent(c, a);
  f.BuildChildren();
  return f;
}

TEST(HcdForest, BasicAccessors) {
  HcdForest f = SmallForest();
  EXPECT_EQ(f.NumNodes(), 4u);
  EXPECT_EQ(f.NumVertices(), 8u);
  EXPECT_EQ(f.Level(0), 1u);
  EXPECT_EQ(f.Parent(0), kInvalidNode);
  EXPECT_EQ(f.Roots().size(), 1u);
  EXPECT_EQ(f.Children(0).size(), 2u);
  EXPECT_EQ(f.Tid(5), 3u);
}

TEST(HcdForest, NodesByDescendingLevel) {
  HcdForest f = SmallForest();
  auto order = f.NodesByDescendingLevel();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(f.Level(order[0]), 5u);
  EXPECT_EQ(f.Level(order[1]), 3u);
  EXPECT_EQ(f.Level(order[2]), 2u);
  EXPECT_EQ(f.Level(order[3]), 1u);
}

TEST(HcdForest, CoreVerticesAndSize) {
  HcdForest f = SmallForest();
  EXPECT_EQ(f.CoreSize(0), 8u);
  EXPECT_EQ(f.CoreSize(1), 5u);  // node a: itself + grandchild c
  EXPECT_EQ(f.CoreSize(3), 3u);
  auto core = f.CoreVertices(1);
  EXPECT_EQ(core.size(), 5u);
}

TEST(ForestStats, SmallForestShape) {
  HcdForest f = SmallForest();
  ForestStats stats = ComputeForestStats(f);
  EXPECT_EQ(stats.num_nodes, 4u);
  EXPECT_EQ(stats.num_roots, 1u);
  EXPECT_EQ(stats.depth, 3u);  // root -> a -> c
  EXPECT_EQ(stats.max_branching, 2u);
  EXPECT_EQ(stats.max_level, 5u);
  EXPECT_EQ(stats.nodes_per_level[1], 1u);
  EXPECT_EQ(stats.nodes_per_level[3], 1u);
  EXPECT_EQ(stats.elements_per_level[5], 3u);
  std::string text = ForestStatsToString(stats);
  EXPECT_NE(text.find("depth         3"), std::string::npos);
}

TEST(ForestStats, OnionDepthEqualsLevels) {
  Graph g = PlantedHierarchy(OnionSpec(9, 10), 4);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f = NaiveHcdBuild(g, cd);
  ForestStats stats = ComputeForestStats(f);
  EXPECT_EQ(stats.depth, 9u);
  EXPECT_EQ(stats.num_roots, 1u);
  EXPECT_EQ(stats.max_branching, 1u);
}

TEST(ForestStats, EmptyForest) {
  ForestStats stats = ComputeForestStats(HcdForest(0));
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(Export, DotContainsAllNodesAndEdges) {
  HcdForest f = SmallForest();
  std::string dot = ForestToDot(f);
  EXPECT_NE(dot.find("digraph hcd"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);
  EXPECT_NE(dot.find("n3 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("k=5"), std::string::npos);
}

TEST(Export, JsonShape) {
  HcdForest f = SmallForest();
  std::string json = ForestToJson(f);
  EXPECT_NE(json.find("\"level\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"parent\": null"), std::string::npos);
  EXPECT_NE(json.find("\"vertices\": [5, 6, 7]"), std::string::npos);
}

TEST(Validate, DetectsWrongLevel) {
  Graph g = CompleteGraph(4);  // all coreness 3
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f(4);
  TreeNodeId t = f.NewNode(2);  // wrong level
  for (VertexId v = 0; v < 4; ++v) f.AddVertex(t, v);
  f.BuildChildren();
  EXPECT_FALSE(ValidateHcd(g, cd, f).ok());
}

TEST(Validate, DetectsSplitCore) {
  Graph g = CompleteGraph(4);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f(4);
  TreeNodeId a = f.NewNode(3);
  TreeNodeId b = f.NewNode(3);
  f.AddVertex(a, 0);
  f.AddVertex(a, 1);
  f.AddVertex(b, 2);
  f.AddVertex(b, 3);
  f.BuildChildren();
  EXPECT_FALSE(ValidateHcd(g, cd, f).ok());  // not maximal
}

TEST(Validate, DetectsMissingVertex) {
  Graph g = CompleteGraph(3);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f(3);
  TreeNodeId t = f.NewNode(2);
  f.AddVertex(t, 0);
  f.AddVertex(t, 1);
  f.BuildChildren();
  EXPECT_FALSE(ValidateHcd(g, cd, f).ok());
}

TEST(HcdEquals, DistinguishesParents) {
  HcdForest a(4);
  TreeNodeId r1 = a.NewNode(1);
  TreeNodeId c1 = a.NewNode(2);
  TreeNodeId g1 = a.NewNode(3);
  a.AddVertex(r1, 0);
  a.AddVertex(c1, 1);
  a.AddVertex(g1, 2);
  a.AddVertex(g1, 3);
  a.SetParent(c1, r1);
  a.SetParent(g1, c1);
  a.BuildChildren();

  HcdForest b(4);
  TreeNodeId r2 = b.NewNode(1);
  TreeNodeId c2 = b.NewNode(2);
  TreeNodeId g2 = b.NewNode(3);
  b.AddVertex(r2, 0);
  b.AddVertex(c2, 1);
  b.AddVertex(g2, 2);
  b.AddVertex(g2, 3);
  b.SetParent(c2, r2);
  b.SetParent(g2, r2);  // different parent
  b.BuildChildren();

  EXPECT_FALSE(HcdEquals(a, b));
  EXPECT_TRUE(HcdEquals(a, a));
}

}  // namespace
}  // namespace hcd
