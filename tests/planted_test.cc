#include <gtest/gtest.h>

#include <string>

#include "core/core_decomposition.h"
#include "core/naive.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/validate.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

/// Counts the nodes of a spec tree and the expected shell total.
void SpecStats(const CoreSpec& spec, uint32_t* nodes, uint64_t* vertices) {
  ++*nodes;
  *vertices += spec.shell_size;
  for (const CoreSpec& child : spec.children) {
    SpecStats(child, nodes, vertices);
  }
}

/// Recursively checks that `forest` contains, under `parent_node`, exactly
/// one node matching `spec` (level and shell size), with matching subtree.
void CheckSpecSubtree(const FlatHcdIndex& forest, const CoreSpec& spec,
                      TreeNodeId node, TreeNodeId expected_parent) {
  ASSERT_NE(node, kInvalidNode);
  EXPECT_EQ(forest.Level(node), spec.level);
  EXPECT_EQ(forest.Vertices(node).size(), spec.shell_size);
  EXPECT_EQ(forest.Parent(node), expected_parent);
  std::vector<TreeNodeId> children = testing::Children(forest, node);
  ASSERT_EQ(children.size(), spec.children.size());
  // Children of a spec node are built in order and occupy increasing vertex
  // id ranges; match them by their smallest contained vertex.
  std::sort(children.begin(), children.end(),
            [&forest](TreeNodeId a, TreeNodeId b) {
              VertexId ma = *std::min_element(forest.Vertices(a).begin(),
                                              forest.Vertices(a).end());
              VertexId mb = *std::min_element(forest.Vertices(b).begin(),
                                              forest.Vertices(b).end());
              return ma < mb;
            });
  // Spec children were materialized depth-first in order, before the shell,
  // so sorting child subtrees by minimum vertex id recovers spec order...
  // except the min vertex of a child subtree is its own first-built
  // descendant; ordering by allocation is still monotone across siblings.
  for (size_t i = 0; i < spec.children.size(); ++i) {
    CheckSpecSubtree(forest, spec.children[i], children[i], node);
  }
}

struct PlantedCase {
  std::string name;
  CoreSpec spec;
};

std::vector<PlantedCase> PlantedCases() {
  std::vector<PlantedCase> cases;
  for (uint32_t k_max : {3u, 5u, 9u, 14u}) {
    for (VertexId shell : {4u, 9u}) {
      PlantedCase c;
      c.name = "onion_k" + std::to_string(k_max) + "_s" + std::to_string(shell);
      c.spec = OnionSpec(k_max, shell);
      cases.push_back(std::move(c));
    }
  }
  for (uint32_t fanout : {1u, 2u, 3u}) {
    PlantedCase c;
    c.name = "branch_f" + std::to_string(fanout);
    c.spec = BranchingSpec(3, 12, 3, fanout, 6);
    cases.push_back(std::move(c));
  }
  // Hand-built asymmetric spec: level-2 shell wrapping a level-5 circulant
  // and a level-3 shell that itself wraps a level-7 clique.
  {
    PlantedCase c;
    c.name = "asymmetric";
    CoreSpec deep{7, 8, {}};
    CoreSpec mid{3, 5, {std::move(deep)}};
    CoreSpec leaf{5, 6, {}};
    c.spec = CoreSpec{2, 4, {std::move(mid), std::move(leaf)}};
    cases.push_back(std::move(c));
  }
  return cases;
}

class PlantedSuite : public ::testing::TestWithParam<PlantedCase> {};

TEST_P(PlantedSuite, HcdMatchesSpecTree) {
  const CoreSpec& spec = GetParam().spec;
  for (uint64_t seed : {1ull, 42ull}) {
    Graph g = PlantedHierarchy(spec, seed);
    CoreDecomposition cd = BzCoreDecomposition(g);
    ASSERT_TRUE(VerifyCoreDecomposition(g, cd));
    const HcdForest phcd = PhcdBuild(g, cd);
    const FlatHcdIndex forest = Freeze(phcd);
    ASSERT_TRUE(ValidateHcd(g, cd, forest).ok());
    EXPECT_TRUE(HcdEquals(phcd, Freeze(NaiveHcdBuild(g, cd))));

    uint32_t expected_nodes = 0;
    uint64_t expected_vertices = 0;
    SpecStats(spec, &expected_nodes, &expected_vertices);
    ASSERT_EQ(forest.NumNodes(), expected_nodes);
    ASSERT_EQ(g.NumVertices(), expected_vertices);

    const std::vector<TreeNodeId> roots = testing::Roots(forest);
    ASSERT_EQ(roots.size(), 1u);
    CheckSpecSubtree(forest, spec, roots[0], kInvalidNode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, PlantedSuite, ::testing::ValuesIn(PlantedCases()),
    [](const ::testing::TestParamInfo<PlantedCase>& info) {
      return info.param.name;
    });

TEST(PlantedForestGraph, IndependentComponentsKeepTheirHierarchies) {
  Graph g = PlantedForest({OnionSpec(4, 6), OnionSpec(7, 8)}, 3);
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex f = Freeze(PhcdBuild(g, cd));
  EXPECT_TRUE(ValidateHcd(g, cd, f).ok());
  EXPECT_EQ(testing::Roots(f).size(), 2u);
  // 4 levels + 7 levels of onion nodes.
  EXPECT_EQ(f.NumNodes(), 4u + 7u);
}

}  // namespace
}  // namespace hcd
