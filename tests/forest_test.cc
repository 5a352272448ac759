#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "hcd/export.h"
#include "hcd/flat_index.h"
#include "hcd/naive_hcd.h"
#include "hcd/stats.h"
#include "hcd/validate.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

HcdForest SmallForest() {
  // Root (level 1) with two children (levels 3 and 2), one grandchild.
  HcdForest f(8);
  TreeNodeId root = f.NewNode(1);
  TreeNodeId a = f.NewNode(3);
  TreeNodeId b = f.NewNode(2);
  TreeNodeId c = f.NewNode(5);
  f.Place(root, 0);
  f.Place(root, 1);
  f.Place(a, 2);
  f.Place(a, 3);
  f.Place(b, 4);
  f.Place(c, 5);
  f.Place(c, 6);
  f.Place(c, 7);
  f.SetParent(a, root);
  f.SetParent(b, root);
  f.SetParent(c, a);
  return f;
}

TEST(HcdForest, BasicAccessors) {
  HcdForest f = SmallForest();
  EXPECT_EQ(f.NumNodes(), 4u);
  EXPECT_EQ(f.NumVertices(), 8u);
  EXPECT_EQ(f.Level(0), 1u);
  EXPECT_EQ(f.Parent(0), kInvalidNode);
  EXPECT_EQ(f.Parent(3), 1u);
  EXPECT_EQ(f.Tid(5), 3u);
  // The frozen index's preorder intervals give roots and child lists.
  const FlatHcdIndex flat = Freeze(f);
  EXPECT_EQ(testing::Roots(flat).size(), 1u);
  EXPECT_EQ(testing::Children(flat, flat.Tid(0)).size(), 2u);
}

TEST(HcdForest, NodesByDescendingLevel) {
  const FlatHcdIndex f = Freeze(SmallForest());
  auto order = f.NodesByDescendingLevel();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(f.Level(order[0]), 5u);
  EXPECT_EQ(f.Level(order[1]), 3u);
  EXPECT_EQ(f.Level(order[2]), 2u);
  EXPECT_EQ(f.Level(order[3]), 1u);
}

TEST(HcdForest, CoreVerticesAndSize) {
  HcdForest f = SmallForest();
  EXPECT_EQ(CoreVertices(f, 0).size(), 8u);
  // node a: itself + grandchild c, ascending.
  EXPECT_EQ(CoreVertices(f, 1), (std::vector<VertexId>{2, 3, 5, 6, 7}));
  EXPECT_EQ(CoreVertices(f, 2), (std::vector<VertexId>{4}));
  EXPECT_EQ(CoreVertices(f, 3).size(), 3u);
  const FlatHcdIndex flat = Freeze(f);
  EXPECT_EQ(flat.CoreSize(flat.Tid(0)), 8u);
  EXPECT_EQ(flat.CoreSize(flat.Tid(2)), 5u);
  EXPECT_EQ(flat.CoreSize(flat.Tid(5)), 3u);
}

TEST(ForestStats, SmallForestShape) {
  ForestStats stats = ComputeForestStats(Freeze(SmallForest()));
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
  ForestStats stats = ComputeForestStats(Freeze(NaiveHcdBuild(g, cd)));
  EXPECT_EQ(stats.depth, 9u);
  EXPECT_EQ(stats.num_roots, 1u);
  EXPECT_EQ(stats.max_branching, 1u);
}

TEST(ForestStats, EmptyForest) {
  ForestStats stats = ComputeForestStats(Freeze(HcdForest(0)));
  EXPECT_EQ(stats.num_nodes, 0u);
  EXPECT_EQ(stats.depth, 0u);
}

TEST(Export, DotContainsAllNodesAndEdges) {
  // Preorder ids: root 0, a 1, c 2, b 3.
  std::string dot = ForestToDot(Freeze(SmallForest()));
  EXPECT_NE(dot.find("digraph hcd"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);
  EXPECT_NE(dot.find("n2 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("k=5"), std::string::npos);
}

TEST(Export, JsonShape) {
  std::string json = ForestToJson(Freeze(SmallForest()));
  EXPECT_NE(json.find("\"level\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"parent\": null"), std::string::npos);
  EXPECT_NE(json.find("\"vertices\": [5, 6, 7]"), std::string::npos);
}

TEST(Validate, DetectsWrongLevel) {
  Graph g = CompleteGraph(4);  // all coreness 3
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f(4);
  TreeNodeId t = f.NewNode(2);  // wrong level
  for (VertexId v = 0; v < 4; ++v) f.Place(t, v);
  EXPECT_FALSE(ValidateHcd(g, cd, Freeze(f)).ok());
}

TEST(Validate, DetectsSplitCore) {
  Graph g = CompleteGraph(4);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f(4);
  TreeNodeId a = f.NewNode(3);
  TreeNodeId b = f.NewNode(3);
  f.Place(a, 0);
  f.Place(a, 1);
  f.Place(b, 2);
  f.Place(b, 3);
  EXPECT_FALSE(ValidateHcd(g, cd, Freeze(f)).ok());  // not maximal
}

TEST(Validate, DetectsMissingVertex) {
  Graph g = CompleteGraph(3);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest f(3);
  TreeNodeId t = f.NewNode(2);
  f.Place(t, 0);
  f.Place(t, 1);
  EXPECT_FALSE(ValidateHcd(g, cd, Freeze(f)).ok());
}

TEST(HcdEquals, DistinguishesParents) {
  HcdForest a(4);
  TreeNodeId r1 = a.NewNode(1);
  TreeNodeId c1 = a.NewNode(2);
  TreeNodeId g1 = a.NewNode(3);
  a.Place(r1, 0);
  a.Place(c1, 1);
  a.Place(g1, 2);
  a.Place(g1, 3);
  a.SetParent(c1, r1);
  a.SetParent(g1, c1);

  HcdForest b(4);
  TreeNodeId r2 = b.NewNode(1);
  TreeNodeId c2 = b.NewNode(2);
  TreeNodeId g2 = b.NewNode(3);
  b.Place(r2, 0);
  b.Place(c2, 1);
  b.Place(g2, 2);
  b.Place(g2, 3);
  b.SetParent(c2, r2);
  b.SetParent(g2, r2);  // different parent

  EXPECT_FALSE(HcdEquals(a, Freeze(b)));
  EXPECT_TRUE(HcdEquals(a, Freeze(a)));
}

TEST(HcdEquals, DistinguishesElementPartitions) {
  // Same levels and shape, but the two nodes split the elements
  // differently, so tid induces no node bijection.
  HcdForest a(4);
  TreeNodeId a0 = a.NewNode(1);
  TreeNodeId a1 = a.NewNode(1);
  a.Place(a0, 0);
  a.Place(a0, 1);
  a.Place(a1, 2);
  a.Place(a1, 3);

  HcdForest b(4);
  TreeNodeId b0 = b.NewNode(1);
  TreeNodeId b1 = b.NewNode(1);
  b.Place(b0, 0);
  b.Place(b1, 1);
  b.Place(b0, 2);
  b.Place(b1, 3);

  EXPECT_FALSE(HcdEquals(a, Freeze(b)));
  EXPECT_TRUE(HcdEquals(b, Freeze(b)));

  // A node no element names makes the forest unequal to any index.
  a.NewNode(2);
  EXPECT_FALSE(HcdEquals(a, Freeze(a)));
}

}  // namespace
}  // namespace hcd
