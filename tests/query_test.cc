#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/local_core_search.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/query.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

/// Vertex set of the k-core containing `v` (empty when there is none).
std::vector<VertexId> KCoreContaining(const FlatHcdIndex& flat, VertexId v,
                                      uint32_t k) {
  const TreeNodeId node = NodeOfKCoreContaining(flat, v, k);
  if (node == kInvalidNode) return {};
  const std::span<const VertexId> core = flat.CoreVertices(node);
  return {core.begin(), core.end()};
}

/// The same ancestor walk over the builder forest's parent pointers.
TreeNodeId ForestNodeOfKCore(const HcdForest& f, VertexId v, uint32_t k) {
  TreeNodeId node = f.Tid(v);
  if (node == kInvalidNode || f.Level(node) < k) return kInvalidNode;
  while (f.Parent(node) != kInvalidNode && f.Level(f.Parent(node)) >= k) {
    node = f.Parent(node);
  }
  return node;
}

TEST(Query, PaperFigure1) {
  Graph g = PaperFigure1Graph();
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex f = Freeze(PhcdBuild(g, cd));

  // Vertex 0 (octahedron): in the 4-core (6 vertices), the 3-core S3.1
  // (9 vertices) and the whole 2-core.
  EXPECT_EQ(KCoreContaining(f, 0, 4).size(), 6u);
  EXPECT_EQ(KCoreContaining(f, 0, 3).size(), 9u);
  EXPECT_EQ(KCoreContaining(f, 0, 2).size(), 16u);
  EXPECT_TRUE(KCoreContaining(f, 0, 5).empty());

  // Vertex 9 (4-clique S3.2): its 3-core has 4 vertices.
  EXPECT_EQ(KCoreContaining(f, 9, 3).size(), 4u);
  // Vertex 13 (2-shell) is in no 3-core.
  EXPECT_TRUE(KCoreContaining(f, 13, 3).empty());

  EXPECT_EQ(CorenessOf(f, 0), 4u);
  EXPECT_EQ(CorenessOf(f, 13), 2u);

  // 0 and 9 share the 2-core but no 3-core.
  EXPECT_TRUE(InSameKCore(f, 0, 9, 2));
  EXPECT_FALSE(InSameKCore(f, 0, 9, 3));
  EXPECT_TRUE(InSameKCore(f, 0, 6, 3));
}

TEST(Query, MatchesLocalCoreSearchOnSuite) {
  for (const auto& tc : testing::StandardGraphSuite()) {
    if (tc.graph.NumVertices() == 0) continue;
    SCOPED_TRACE(tc.name);
    const Graph& g = tc.graph;
    CoreDecomposition cd = BzCoreDecomposition(g);
    const FlatHcdIndex f = Freeze(NaiveHcdBuild(g, cd));
    // For a sample of vertices, the index answer at k = c(v) must equal the
    // BFS-based local core search.
    for (VertexId v = 0; v < g.NumVertices();
         v += std::max<VertexId>(1, g.NumVertices() / 17)) {
      std::vector<VertexId> via_index =
          KCoreContaining(f, v, cd.coreness[v]);
      std::vector<VertexId> via_bfs = LocalCoreSearch(g, cd, v);
      std::sort(via_index.begin(), via_index.end());
      std::sort(via_bfs.begin(), via_bfs.end());
      EXPECT_EQ(via_index, via_bfs) << "vertex " << v;
    }
  }
}

TEST(FlatQuery, MatchesForestAnswersOnSuite) {
  // The frozen index must answer as the builder forest's own arrays do on
  // every graph regime: same coreness, same k-core vertex set (as a set —
  // Freeze renumbers nodes in preorder).
  for (const auto& tc : testing::StandardGraphSuite()) {
    SCOPED_TRACE(tc.name);
    const Graph& g = tc.graph;
    CoreDecomposition cd = BzCoreDecomposition(g);
    HcdForest f = PhcdBuild(g, cd);
    const FlatHcdIndex flat = Freeze(f);
    for (VertexId v = 0; v < g.NumVertices();
         v += std::max<VertexId>(1, g.NumVertices() / 13)) {
      const uint32_t coreness = f.Level(f.Tid(v));
      EXPECT_EQ(CorenessOf(flat, v), coreness) << "vertex " << v;
      for (uint32_t k : {1u, 2u, coreness, coreness + 1}) {
        const TreeNodeId node = NodeOfKCoreContaining(flat, v, k);
        const TreeNodeId forest_node = ForestNodeOfKCore(f, v, k);
        EXPECT_EQ(node == kInvalidNode, forest_node == kInvalidNode)
            << "vertex " << v << " k " << k;
        if (node == kInvalidNode || forest_node == kInvalidNode) continue;
        std::vector<VertexId> via_flat = KCoreContaining(flat, v, k);
        std::sort(via_flat.begin(), via_flat.end());
        EXPECT_EQ(via_flat, CoreVertices(f, forest_node))
            << "vertex " << v << " k " << k;
      }
    }
    // InSameKCore agrees on a few pairs.
    for (VertexId u = 0; u + 1 < g.NumVertices() && u < 8; ++u) {
      for (uint32_t k : {1u, 2u, 3u}) {
        const TreeNodeId nu = ForestNodeOfKCore(f, u, k);
        EXPECT_EQ(InSameKCore(flat, u, u + 1, k),
                  nu != kInvalidNode && nu == ForestNodeOfKCore(f, u + 1, k))
            << "pair " << u << " k " << k;
      }
    }
  }
}

TEST(FlatQuery, ContainingAllIntersectsTheWalks) {
  Graph g = PaperFigure1Graph();
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(PhcdBuild(g, cd));

  // Empty input names no core.
  EXPECT_EQ(NodeOfKCoreContainingAll(flat, {}, 2), kInvalidNode);

  // A single vertex reduces to the one-vertex walk.
  const std::vector<VertexId> just_zero = {0};
  EXPECT_EQ(NodeOfKCoreContainingAll(flat, just_zero, 4),
            NodeOfKCoreContaining(flat, 0, 4));

  // Vertices 0 and 9 share the 2-core but no 3-core (paper figure 1).
  const std::vector<VertexId> zero_and_nine = {0, 9};
  const TreeNodeId shared2 = NodeOfKCoreContainingAll(flat, zero_and_nine, 2);
  ASSERT_NE(shared2, kInvalidNode);
  EXPECT_EQ(flat.Level(shared2), 2u);
  EXPECT_EQ(NodeOfKCoreContainingAll(flat, zero_and_nine, 3), kInvalidNode);

  // 0 and 6 share a 3-core; the shared node is the one both walks reach.
  const std::vector<VertexId> zero_and_six = {0, 6};
  const TreeNodeId shared3 = NodeOfKCoreContainingAll(flat, zero_and_six, 3);
  ASSERT_NE(shared3, kInvalidNode);
  EXPECT_EQ(shared3, NodeOfKCoreContaining(flat, 0, 3));
  EXPECT_EQ(shared3, NodeOfKCoreContaining(flat, 6, 3));

  // Any vertex outside every k-core poisons the whole set.
  const std::vector<VertexId> with_shell = {0, 13};
  EXPECT_EQ(NodeOfKCoreContainingAll(flat, with_shell, 3), kInvalidNode);
}

TEST(Query, AncestorWalkLevels) {
  Graph g = PlantedHierarchy(OnionSpec(8, 6), 2);
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex f = Freeze(PhcdBuild(g, cd));
  // A deepest vertex is in every k-core for k = 1..8, each strictly larger.
  VertexId deep = 0;
  ASSERT_EQ(cd.coreness[deep], 8u);
  size_t prev = 0;
  for (uint32_t k = 8; k >= 1; --k) {
    auto core = KCoreContaining(f, deep, k);
    EXPECT_GT(core.size(), prev);
    prev = core.size();
  }
  EXPECT_EQ(prev, g.NumVertices());
}

}  // namespace
}  // namespace hcd
