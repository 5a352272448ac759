// Tests for the frozen flat representation: Freeze equivalence against the
// builder forest, the preorder/CSR structural invariants, Adopt's
// validation of every invariant, the element domains (kind-tagged
// truss/nucleus freezes) and the search tables, and snapshots of every
// kind: bit-identical round trips, corrupt files (the retired HCDFOR01-04
// magics included) and a seeded mutation fuzz.

#include "hcd/flat_index.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mapped_file.h"
#include "common/random.h"

#include "core/core_decomposition.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/query.h"
#include "hcd/serialize.h"
#include "hcd/validate.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"
#include "parallel/omp_utils.h"
#include "search/search_index.h"
#include "tests/test_util.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

namespace hcd {
namespace {

std::vector<VertexId> Sorted(std::span<const VertexId> s) {
  std::vector<VertexId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

class FlatIndexSuite : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(FlatIndexSuite, FreezeMatchesForestNodeByNode) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest forest = NaiveHcdBuild(g, cd);
  const FlatHcdIndex flat = Freeze(forest);

  ASSERT_EQ(flat.NumNodes(), forest.NumNodes());
  ASSERT_EQ(flat.NumVertices(), forest.NumVertices());
  EXPECT_TRUE(HcdEquals(forest, flat));
  if (g.NumVertices() > 0) {
    EXPECT_TRUE(ValidateHcd(g, cd, flat).ok());
  }

  // The forest side, read from its three arrays: each node's own elements
  // (ascending), its child count, and the roots.
  std::vector<std::vector<VertexId>> own(forest.NumNodes());
  for (VertexId v = 0; v < forest.NumVertices(); ++v) {
    if (forest.Tid(v) != kInvalidNode) own[forest.Tid(v)].push_back(v);
  }
  std::vector<size_t> num_children(forest.NumNodes(), 0);
  size_t num_roots = 0;
  for (TreeNodeId ft = 0; ft < forest.NumNodes(); ++ft) {
    if (forest.Parent(ft) == kInvalidNode) {
      ++num_roots;
    } else {
      ++num_children[forest.Parent(ft)];
    }
  }

  // Cross-representation per-node equality via representative vertices.
  ASSERT_EQ(testing::Roots(flat).size(), num_roots);
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    ASSERT_FALSE(flat.Vertices(t).empty());
    const VertexId rep = flat.Vertices(t).front();
    const TreeNodeId ft = forest.Tid(rep);
    EXPECT_EQ(flat.Level(t), forest.Level(ft));
    // Freeze places each node's elements in ascending id order.
    EXPECT_EQ(std::vector<VertexId>(flat.Vertices(t).begin(),
                                    flat.Vertices(t).end()),
              own[ft]);
    const std::vector<VertexId> core = CoreVertices(forest, ft);
    EXPECT_EQ(flat.CoreSize(t), core.size());
    EXPECT_EQ(Sorted(flat.CoreVertices(t)), core);
    EXPECT_EQ(testing::Children(flat, t).size(), num_children[ft]);
    const TreeNodeId pa = flat.Parent(t);
    const TreeNodeId fpa = forest.Parent(ft);
    ASSERT_EQ(pa == kInvalidNode, fpa == kInvalidNode);
    if (pa != kInvalidNode) {
      EXPECT_EQ(flat.Level(pa), forest.Level(fpa));
      EXPECT_EQ(forest.Tid(flat.Vertices(pa).front()), fpa);
    }
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(flat.Tid(v) == kInvalidNode, forest.Tid(v) == kInvalidNode);
  }
}

TEST_P(FlatIndexSuite, PreorderInvariantsHold) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(NaiveHcdBuild(g, cd));
  const FlatHcdIndex::Data& d = flat.data();
  std::vector<size_t> num_children(flat.NumNodes(), 0);
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    if (flat.Parent(t) != kInvalidNode) ++num_children[flat.Parent(t)];
  }

  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    // CoreVertices is a true O(1) view into the packed vertex array,
    // starting at the node's own vertices.
    const std::span<const VertexId> core = flat.CoreVertices(t);
    EXPECT_EQ(core.data(), d.vertices.data() + d.vertex_offsets[t]);
    EXPECT_EQ(core.size(), flat.CoreSize(t));
    // ... and equals the union of the subtree's own vertex spans.
    uint64_t subtree_verts = 0;
    for (TreeNodeId s = t; s < t + flat.SubtreeNodes(t); ++s) {
      subtree_verts += flat.Vertices(s).size();
      EXPECT_LT(flat.Level(t), s == t ? flat.Level(s) + 1 : flat.Level(s));
    }
    EXPECT_EQ(core.size(), subtree_verts);
    // The nodes at the preorder subtree boundaries (t + 1, then one
    // subtree after the other) are exactly the nodes whose parent is t.
    const std::vector<TreeNodeId> children = testing::Children(flat, t);
    EXPECT_EQ(children.size(), num_children[t]);
    for (TreeNodeId c : children) EXPECT_EQ(flat.Parent(c), t);
  }

  // Descending-level groups: a partition of the nodes, strictly descending
  // level between groups, ascending ids within.
  size_t covered = 0;
  uint32_t prev_level = 0;
  for (size_t gi = 0; gi < flat.NumLevelGroups(); ++gi) {
    const std::span<const TreeNodeId> group = flat.LevelGroup(gi);
    ASSERT_FALSE(group.empty());
    if (gi > 0) {
      EXPECT_LT(flat.Level(group.front()), prev_level);
    }
    prev_level = flat.Level(group.front());
    for (size_t i = 0; i < group.size(); ++i) {
      EXPECT_EQ(flat.Level(group[i]), prev_level);
      if (i > 0) {
        EXPECT_LT(group[i - 1], group[i]);
      }
    }
    covered += group.size();
  }
  EXPECT_EQ(covered, flat.NumNodes());
}

TEST_P(FlatIndexSuite, AdoptAcceptsFreezeOutput) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(NaiveHcdBuild(g, cd));
  FlatHcdIndex adopted;
  ASSERT_TRUE(FlatHcdIndex::Adopt(flat.data(), &adopted).ok());
  EXPECT_TRUE(HcdEquals(flat, adopted));
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, FlatIndexSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(FlatIndex, FreezeStableAcrossThreadCounts) {
  Graph g = BarabasiAlbert(600, 4, 9);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest forest = PhcdBuild(g, cd);
  const FlatHcdIndex base = Freeze(forest);
  for (int threads : {1, 3, 8}) {
    ThreadCountGuard guard(threads);
    const FlatHcdIndex flat = Freeze(forest);
    // Preorder numbering is deterministic, so the arrays match exactly.
    EXPECT_EQ(flat.data().levels, base.data().levels);
    EXPECT_EQ(flat.data().parents, base.data().parents);
    EXPECT_EQ(flat.data().vertices, base.data().vertices);
    EXPECT_EQ(flat.data().tid, base.data().tid);
  }
}

TEST(FlatIndex, FreezeSortsOutOfOrderPlacements) {
  // LCPS creates nodes in search order and places elements as it visits
  // them, so neither node ids nor placements follow element ids. Freeze
  // still lists each node's elements in ascending id order.
  HcdForest forest(9);
  const TreeNodeId deep = forest.NewNode(3);
  const TreeNodeId root = forest.NewNode(1);
  const TreeNodeId side = forest.NewNode(2);
  for (VertexId v : {7u, 2u, 5u}) forest.Place(deep, v);
  for (VertexId v : {8u, 0u, 4u}) forest.Place(root, v);
  for (VertexId v : {6u, 1u, 3u}) forest.Place(side, v);
  forest.SetParent(deep, root);
  forest.SetParent(side, root);

  const FlatHcdIndex flat = Freeze(forest);
  ASSERT_EQ(flat.NumNodes(), 3u);
  EXPECT_TRUE(HcdEquals(forest, flat));
  const auto elements = [&](VertexId v) {
    const std::span<const VertexId> own = flat.Vertices(flat.Tid(v));
    return std::vector<VertexId>(own.begin(), own.end());
  };
  EXPECT_EQ(elements(7), (std::vector<VertexId>{2, 5, 7}));
  EXPECT_EQ(elements(8), (std::vector<VertexId>{0, 4, 8}));
  EXPECT_EQ(elements(6), (std::vector<VertexId>{1, 3, 6}));
}

TEST(FlatIndex, EmptyForest) {
  const FlatHcdIndex flat = Freeze(HcdForest(0));
  EXPECT_EQ(flat.NumNodes(), 0u);
  EXPECT_EQ(flat.NumVertices(), 0u);
  EXPECT_EQ(flat.NumLevelGroups(), 0u);
  EXPECT_TRUE(testing::Roots(flat).empty());
  FlatHcdIndex adopted;
  EXPECT_TRUE(FlatHcdIndex::Adopt(flat.data(), &adopted).ok());
}

// ---------------------------------------------------------------------------
// Adopt rejects every class of structural violation.

FlatHcdIndex::Data ValidData() {
  Graph g = PlantedHierarchy(BranchingSpec(2, 8, 2, 2, 4), 17);
  CoreDecomposition cd = BzCoreDecomposition(g);
  return Freeze(NaiveHcdBuild(g, cd)).data();
}

void ExpectAdoptCorruption(FlatHcdIndex::Data d, const char* what) {
  FlatHcdIndex out;
  Status s = FlatHcdIndex::Adopt(std::move(d), &out);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << what << ": " << s.ToString();
}

/// The first two children of the first node that has two, or an empty
/// vector.
std::vector<TreeNodeId> SiblingPair(const FlatHcdIndex::Data& d) {
  for (TreeNodeId t = 0; t < d.levels.size(); ++t) {
    const TreeNodeId end = t + d.subtree_nodes[t];
    if (t + 1 < end && t + 1 + d.subtree_nodes[t + 1] < end) {
      return {t + 1, t + 1 + d.subtree_nodes[t + 1]};
    }
  }
  return {};
}

TEST(FlatIndexAdopt, RejectsEveryInvariantViolation) {
  const FlatHcdIndex::Data valid = ValidData();
  ASSERT_GE(valid.levels.size(), 3u);

  {
    FlatHcdIndex::Data d = valid;
    d.parents.pop_back();
    ExpectAdoptCorruption(std::move(d), "section size mismatch");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.vertex_offsets[1] = d.vertex_offsets.back() + 10;  // non-monotone + OOB
    ExpectAdoptCorruption(std::move(d), "offsets not monotone");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.subtree_nodes[0] = static_cast<TreeNodeId>(d.levels.size()) + 1;
    ExpectAdoptCorruption(std::move(d), "subtree out of range");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.parents[1] = 2;  // parent after child in preorder
    ExpectAdoptCorruption(std::move(d), "preorder inversion");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.levels[0] = d.levels[1] + 1;  // parent level >= child level
    ExpectAdoptCorruption(std::move(d), "level inversion");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.tid[d.vertices.front()] = static_cast<TreeNodeId>(d.levels.size()) + 7;
    ExpectAdoptCorruption(std::move(d), "tid out of range");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.vertices[0] = d.num_vertices + 1;
    ExpectAdoptCorruption(std::move(d), "vertex id out of range");
  }
  {
    FlatHcdIndex::Data d = valid;
    std::swap(d.desc_level_order[0],
              d.desc_level_order[d.desc_level_order.size() - 1]);
    ExpectAdoptCorruption(std::move(d), "level order not canonical");
  }
  {
    // A node re-parented to its grandparent: the grandparent encloses it,
    // but its old parent is the innermost subtree that does.
    FlatHcdIndex::Data d = valid;
    TreeNodeId t = 0;
    while (t < d.levels.size() &&
           (d.parents[t] == kInvalidNode ||
            d.parents[d.parents[t]] == kInvalidNode)) {
      ++t;
    }
    ASSERT_LT(t, d.levels.size()) << "fixture needs a node of depth 3";
    d.parents[t] = d.parents[d.parents[t]];
    ExpectAdoptCorruption(std::move(d), "parent not innermost (parents)");
  }
  {
    // The reverse: parents untouched, and a first child's subtree grown
    // over its next sibling, which now lies inside it.
    FlatHcdIndex::Data d = valid;
    const std::vector<TreeNodeId> siblings = SiblingPair(d);
    ASSERT_EQ(siblings.size(), 2u) << "fixture needs a node with 2 children";
    d.subtree_nodes[siblings[0]] += d.subtree_nodes[siblings[1]];
    ExpectAdoptCorruption(std::move(d), "parent not innermost (subtrees)");
  }
  {
    // A subtree shrunk to its root: its first child falls outside it.
    FlatHcdIndex::Data d = valid;
    ASSERT_GT(d.subtree_nodes[0], 1u);
    d.subtree_nodes[0] = 1;
    ExpectAdoptCorruption(std::move(d), "descendant outside its subtree");
  }
  {
    // Two trees; the first root's subtree overruns the second root.
    Graph g = PlantedForest({OnionSpec(3, 5), OnionSpec(4, 5)}, 8);
    FlatHcdIndex::Data d =
        Freeze(NaiveHcdBuild(g, BzCoreDecomposition(g))).data();
    ASSERT_LT(d.subtree_nodes[0], d.levels.size());
    FlatHcdIndex adopted;
    ASSERT_TRUE(FlatHcdIndex::Adopt(d, &adopted).ok());
    ++d.subtree_nodes[0];
    ExpectAdoptCorruption(std::move(d), "root overruns the next root");
  }
  {
    FlatHcdIndex::Data d = valid;
    // An intermediate offset past num_nodes passes the front/back check but
    // must be rejected before it indexes desc_level_order out of bounds.
    const uint32_t num_nodes = static_cast<uint32_t>(d.levels.size());
    d.level_group_offsets = {0, num_nodes + 0xFFFFFF, num_nodes};
    ExpectAdoptCorruption(std::move(d), "level group offset out of range");
  }
  {
    // Worst case for the offset validation: a single-level index, so every
    // in-range prefix of the oversized group is level-homogeneous and
    // nothing but the upfront offset check stands between Adopt and reading
    // desc_level_order far past its end (ASan-visible without the fix).
    FlatHcdIndex::Data d;
    d.num_vertices = 0;
    d.levels = {0};
    d.parents = {kInvalidNode};
    d.subtree_nodes = {1};
    d.vertex_offsets = {0, 0};
    d.desc_level_order = {0};
    d.level_group_offsets = {0, 0x01000000u, 1};
    ExpectAdoptCorruption(std::move(d), "offset past single-level order");
  }
  {
    FlatHcdIndex::Data d = valid;
    // A vertex duplicated inside one span while another vertex of the same
    // span goes missing: every slot's tid still matches and the placed
    // totals still balance, so only per-vertex tracking catches it.
    size_t t = 0;
    while (t < d.levels.size() &&
           d.vertex_offsets[t + 1] - d.vertex_offsets[t] < 2) {
      ++t;
    }
    ASSERT_LT(t, d.levels.size()) << "fixture needs a node with >= 2 vertices";
    d.vertices[d.vertex_offsets[t] + 1] = d.vertices[d.vertex_offsets[t]];
    ExpectAdoptCorruption(std::move(d), "duplicate vertex placement");
  }
}

// ---------------------------------------------------------------------------
// Element domains: kind-tagged freezes and Adopt's element validation.

FlatHcdIndex FreezeTrussOf(const Graph& g) {
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  return FreezeTruss(g, index, forest);
}

FlatHcdIndex FreezeNucleusOf(const Graph& g) {
  EdgeIndexer eidx = BuildEdgeIndexer(g);
  TriangleIndexer tidx = BuildTriangleIndexer(g, eidx);
  NucleusDecomposition nd = PeelNucleusDecomposition(g, eidx, tidx);
  NucleusForest forest = BuildNucleusHierarchy(g, eidx, tidx, nd);
  return FreezeNucleus(g, tidx, forest);
}

TEST(FlatIndexElements, TrussFreezeCarriesKindAndMembers) {
  Graph g = PlantedHierarchy(OnionSpec(5, 8), 3);
  EdgeIndexer index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, index);
  TrussForest forest = BuildTrussHierarchy(g, index, td);
  const FlatHcdIndex flat = FreezeTruss(g, index, forest);

  EXPECT_EQ(flat.kind(), HierarchyKind::kTruss);
  EXPECT_EQ(flat.arity(), 2u);
  EXPECT_EQ(flat.NumElements(), index.NumEdges());
  EXPECT_EQ(flat.NumGraphVertices(), g.NumVertices());
  for (VertexId e = 0; e < flat.NumElements(); ++e) {
    const std::span<const VertexId> m = flat.ElementMembers(e);
    ASSERT_EQ(m.size(), 2u);
    EXPECT_EQ(m[0], index.edges[e].first);
    EXPECT_EQ(m[1], index.edges[e].second);
    EXPECT_LT(m[0], m[1]);
  }
  // The tree itself is the plain Freeze of the same forest.
  EXPECT_TRUE(HcdEquals(forest, flat));
  FlatHcdIndex adopted;
  ASSERT_TRUE(FlatHcdIndex::Adopt(flat.data(), &adopted).ok());
  EXPECT_EQ(adopted.kind(), HierarchyKind::kTruss);
}

TEST(FlatIndexElements, NucleusFreezeCarriesKindAndMembers) {
  Graph g = PlantedHierarchy(OnionSpec(5, 7), 13);
  EdgeIndexer eidx = BuildEdgeIndexer(g);
  TriangleIndexer tidx = BuildTriangleIndexer(g, eidx);
  NucleusDecomposition nd = PeelNucleusDecomposition(g, eidx, tidx);
  NucleusForest forest = BuildNucleusHierarchy(g, eidx, tidx, nd);
  const FlatHcdIndex flat = FreezeNucleus(g, tidx, forest);

  EXPECT_EQ(flat.kind(), HierarchyKind::kNucleus);
  EXPECT_EQ(flat.arity(), 3u);
  EXPECT_EQ(flat.NumElements(), tidx.NumTriangles());
  EXPECT_EQ(flat.NumGraphVertices(), g.NumVertices());
  for (VertexId t = 0; t < flat.NumElements(); ++t) {
    const std::span<const VertexId> m = flat.ElementMembers(t);
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m[0], tidx.triangles[t][0]);
    EXPECT_EQ(m[1], tidx.triangles[t][1]);
    EXPECT_EQ(m[2], tidx.triangles[t][2]);
    EXPECT_LT(m[0], m[1]);
    EXPECT_LT(m[1], m[2]);
  }
  FlatHcdIndex adopted;
  ASSERT_TRUE(FlatHcdIndex::Adopt(flat.data(), &adopted).ok());
}

FlatHcdIndex::Data ValidTrussData() {
  return FreezeTrussOf(PlantedHierarchy(OnionSpec(5, 8), 3)).data();
}

TEST(FlatIndexAdopt, RejectsElementDomainViolations) {
  const FlatHcdIndex::Data valid = ValidTrussData();
  ASSERT_EQ(valid.kind, HierarchyKind::kTruss);
  ASSERT_GE(valid.element_members.size(), 4u);

  {
    FlatHcdIndex::Data d = valid;
    d.kind = static_cast<HierarchyKind>(7);
    ExpectAdoptCorruption(std::move(d), "invalid kind value");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.kind = HierarchyKind::kCore;  // core carries no members
    ExpectAdoptCorruption(std::move(d), "core with element members");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.kind = HierarchyKind::kNucleus;  // arity 3 vs 2*n members
    ExpectAdoptCorruption(std::move(d), "kind/member-count mismatch");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.element_members.pop_back();
    ExpectAdoptCorruption(std::move(d), "member count not arity*n");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.element_members[0] = d.num_graph_vertices;  // out of graph range
    ExpectAdoptCorruption(std::move(d), "member out of graph range");
  }
  {
    FlatHcdIndex::Data d = valid;
    std::swap(d.element_members[0], d.element_members[1]);
    ExpectAdoptCorruption(std::move(d), "members not ascending");
  }
  // And the core-side invariants the extension added.
  {
    FlatHcdIndex::Data d = ValidData();
    d.element_members = {0, 1};
    ExpectAdoptCorruption(std::move(d), "core index with members");
  }
  {
    FlatHcdIndex::Data d = ValidData();
    d.num_graph_vertices = d.num_vertices + 1;
    ExpectAdoptCorruption(std::move(d), "core graph/element domain split");
  }
}

// ---------------------------------------------------------------------------
// Search tables: Adopt's checks.

/// A core index of `g` with its search tables built from the graph.
FlatHcdIndex TabledCoreOf(const Graph& g) {
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const auto flat =
      std::make_shared<const FlatHcdIndex>(Freeze(NaiveHcdBuild(g, cd)));
  return *BuildSearchTables(g, cd, flat);
}

/// A truss / nucleus index of `g` with its search tables.
FlatHcdIndex TabledTrussOf(const Graph& g) {
  return *BuildElementSearchTables(
      std::make_shared<const FlatHcdIndex>(FreezeTrussOf(g)), g.NumEdges());
}

FlatHcdIndex TabledNucleusOf(const Graph& g) {
  return *BuildElementSearchTables(
      std::make_shared<const FlatHcdIndex>(FreezeNucleusOf(g)), g.NumEdges());
}

bool SameSearchTables(const FlatHcdIndex& a, const FlatHcdIndex& b) {
  const FlatHcdIndex::Data& x = a.data();
  const FlatHcdIndex::Data& y = b.data();
  if (x.search_tables != y.search_tables ||
      x.num_graph_edges != y.num_graph_edges ||
      x.primaries.size() != y.primaries.size() ||
      x.best_nodes != y.best_nodes) {
    return false;
  }
  // memcmp may not take the null data() of an empty section.
  return x.primaries.empty() ||
         std::memcmp(x.primaries.data(), y.primaries.data(),
                     x.primaries.size() * sizeof(PrimaryValues)) == 0;
}

TEST(FlatIndexAdopt, RejectsSearchTableViolations) {
  const Graph g = PlantedHierarchy(BranchingSpec(2, 8, 2, 2, 4), 17);
  const FlatHcdIndex tabled = TabledCoreOf(g);
  const FlatHcdIndex::Data& valid = tabled.data();
  ASSERT_TRUE(valid.search_tables);
  const size_t table_len = valid.best_nodes.size() / kNumBestTables;
  ASSERT_GE(table_len, 3u);
  {
    FlatHcdIndex adopted;
    ASSERT_TRUE(FlatHcdIndex::Adopt(valid, &adopted).ok());
    EXPECT_TRUE(SameSearchTables(adopted, tabled));
  }
  // The lowest-level node, and the top entry of the first table: the only
  // nodes of the largest level qualify there.
  TreeNodeId shallow = 0;
  for (TreeNodeId t = 0; t < tabled.NumNodes(); ++t) {
    if (tabled.Level(t) < tabled.Level(shallow)) shallow = t;
  }
  ASSERT_LT(tabled.Level(shallow), table_len - 1);
  {
    FlatHcdIndex::Data d = valid;
    d.primaries.pop_back();
    ExpectAdoptCorruption(std::move(d), "primary row count");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.best_nodes.pop_back();
    ExpectAdoptCorruption(std::move(d), "best table length");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.best_nodes = std::vector<TreeNodeId>(
        valid.best_nodes.begin(), valid.best_nodes.end() - kNumBestTables);
    ExpectAdoptCorruption(std::move(d), "best tables one level short");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.best_nodes[4] = tabled.NumNodes();
    ExpectAdoptCorruption(std::move(d), "best entry out of range");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.best_nodes[table_len - 1] = shallow;
    ExpectAdoptCorruption(std::move(d), "best entry below its level");
  }
  {
    FlatHcdIndex::Data d = valid;
    d.search_tables = false;
    ExpectAdoptCorruption(std::move(d), "table sections without tables");
  }
  {
    FlatHcdIndex::Data d = ValidTrussData();
    d.search_tables = true;
    ExpectAdoptCorruption(std::move(d), "table flag without truss rows");
  }
  // A truss index carries one table, over density.
  const FlatHcdIndex truss = TabledTrussOf(g);
  const FlatHcdIndex::Data& truss_valid = truss.data();
  ASSERT_TRUE(truss_valid.search_tables);
  ASSERT_FALSE(truss_valid.best_nodes.empty());
  {
    FlatHcdIndex adopted;
    ASSERT_TRUE(FlatHcdIndex::Adopt(truss_valid, &adopted).ok());
    EXPECT_TRUE(SameSearchTables(adopted, truss));
  }
  {
    FlatHcdIndex::Data d = truss_valid;
    std::vector<TreeNodeId> nine;
    for (size_t i = 0; i < kNumBestTables; ++i) {
      nine.insert(nine.end(), truss_valid.best_nodes.begin(),
                  truss_valid.best_nodes.end());
    }
    d.best_nodes = std::move(nine);
    ExpectAdoptCorruption(std::move(d), "nine tables on a truss index");
  }
  {
    FlatHcdIndex::Data d = truss_valid;
    d.best_nodes[0] = truss.NumNodes();
    ExpectAdoptCorruption(std::move(d), "truss best entry out of range");
  }
  {
    FlatHcdIndex::Data d = truss_valid;
    d.primaries.pop_back();
    ExpectAdoptCorruption(std::move(d), "truss primary row count");
  }
}

// ---------------------------------------------------------------------------
// Snapshots: one format for every kind, bit-identical round trips.

std::vector<char> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<char> bytes(static_cast<size_t>(std::ftell(f)));
  std::rewind(f);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Writes `bytes` to `path` and expects MapFlatIndex to reject them with
/// Status::Corruption.
void ExpectSnapshotCorrupt(const std::string& path,
                           const std::vector<char>& bytes, const char* what) {
  WriteAll(path, bytes);
  FlatHcdIndex loaded;
  const Status s = MapFlatIndex(path, &loaded);
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << what << ": " << s.ToString();
}

/// Header word i of a snapshot image.
uint64_t HeaderWordOf(const std::vector<char>& bytes, size_t i) {
  uint64_t w;
  std::memcpy(&w, bytes.data() + i * sizeof(uint64_t), sizeof(w));
  return w;
}

// The snapshot header's words, in file order.
enum : size_t {
  kWordMagic,
  kWordKind,
  kWordGraphVertices,
  kWordElements,
  kWordNodes,
  kWordPlaced,
  kWordLevelGroups,
  kWordSearchTables,
  kWordGraphEdges,
  kWordBestNodes,
  kHeaderWords,
};

constexpr uint64_t kMagicV5 = 0x484344464f523035ULL;  // "HCDFOR05"

// The snapshot's sections, in file order.
enum Section : size_t {
  kLevels,
  kParents,
  kSubtreeNodes,
  kVertexOffsets,
  kVertices,
  kTid,
  kDescLevelOrder,
  kLevelGroupOffsets,
  kElementMembers,
  kPrimaries,
  kBestNodes,
  kNumSections,
};

/// Byte range [begin, end) of one section of a saved snapshot, padding
/// excluded.
struct SectionRange {
  size_t begin = 0;
  size_t end = 0;
};

/// The section ranges, indexed by Section, of the snapshot SaveFlatIndex
/// writes for `index`. Sections a kind does not have are empty.
std::vector<SectionRange> SnapshotLayout(const FlatHcdIndex& index) {
  const FlatHcdIndex::Data& d = index.data();
  const std::vector<size_t> bytes = {
      d.levels.size() * sizeof(uint32_t),
      d.parents.size() * sizeof(TreeNodeId),
      d.subtree_nodes.size() * sizeof(TreeNodeId),
      d.vertex_offsets.size() * sizeof(uint32_t),
      d.vertices.size() * sizeof(VertexId),
      d.tid.size() * sizeof(TreeNodeId),
      d.desc_level_order.size() * sizeof(TreeNodeId),
      d.level_group_offsets.size() * sizeof(uint32_t),
      d.element_members.size() * sizeof(VertexId),
      d.primaries.size() * sizeof(PrimaryValues),
      d.best_nodes.size() * sizeof(TreeNodeId)};
  std::vector<SectionRange> sections;
  size_t offset = kHeaderWords * sizeof(uint64_t);
  for (size_t b : bytes) {
    sections.push_back({offset, offset + b});
    offset += (b + 7) / 8 * 8;
  }
  return sections;
}

void ExpectRoundTrip(const FlatHcdIndex& flat, const char* tag) {
  const std::string path1 =
      ::testing::TempDir() + "/flat_rt_" + tag + "_1.bin";
  const std::string path2 =
      ::testing::TempDir() + "/flat_rt_" + tag + "_2.bin";
  ASSERT_TRUE(SaveFlatIndex(flat, path1).ok());
  FlatHcdIndex loaded;
  ASSERT_TRUE(MapFlatIndex(path1, &loaded).ok());
  EXPECT_TRUE(HcdEquals(flat, loaded));
  EXPECT_EQ(loaded.kind(), flat.kind());
  EXPECT_EQ(loaded.NumGraphVertices(), flat.NumGraphVertices());
  EXPECT_EQ(loaded.data().subtree_nodes, flat.data().subtree_nodes);
  EXPECT_EQ(loaded.data().element_members, flat.data().element_members);
  EXPECT_TRUE(SameSearchTables(loaded, flat));
  ASSERT_TRUE(SaveFlatIndex(loaded, path2).ok());
  EXPECT_EQ(ReadAll(path1), ReadAll(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(FlatIndexSnapshot, CoreRoundTripIsBitIdentical) {
  Graph g = RMatGraph500(9, 4000, 23);
  CoreDecomposition cd = PkcCoreDecomposition(g);
  ExpectRoundTrip(Freeze(PhcdBuild(g, cd)), "core");
}

TEST(FlatIndexSnapshot, TrussRoundTripIsBitIdentical) {
  ExpectRoundTrip(FreezeTrussOf(RMatGraph500(8, 2000, 5)), "truss");
}

TEST(FlatIndexSnapshot, NucleusRoundTripIsBitIdentical) {
  ExpectRoundTrip(FreezeNucleusOf(PlantedHierarchy(OnionSpec(4, 7), 11)),
                  "nucleus");
}

TEST(FlatIndexSnapshot, TabledElementRoundTripsAreBitIdentical) {
  ExpectRoundTrip(TabledTrussOf(RMatGraph500(8, 2000, 5)), "truss_tables");
  ExpectRoundTrip(TabledNucleusOf(PlantedHierarchy(OnionSpec(4, 7), 11)),
                  "nucleus_tables");
}

// Every kind, with and without tables, shares one magic and one header;
// the kind tag and the table flag tell them apart.
TEST(FlatIndexSnapshot, EveryKindWritesOneFormat) {
  const Graph g = PlantedHierarchy(OnionSpec(4, 6), 19);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex indexes[] = {
      Freeze(NaiveHcdBuild(g, cd)), TabledCoreOf(g),   FreezeTrussOf(g),
      FreezeNucleusOf(g),           TabledTrussOf(g), TabledNucleusOf(g)};
  const std::string path = ::testing::TempDir() + "/flat_one_format.bin";
  for (const FlatHcdIndex& flat : indexes) {
    ASSERT_TRUE(SaveFlatIndex(flat, path).ok());
    const std::vector<char> bytes = ReadAll(path);
    ASSERT_GE(bytes.size(), kHeaderWords * sizeof(uint64_t));
    EXPECT_EQ(HeaderWordOf(bytes, kWordMagic), kMagicV5);
    EXPECT_EQ(HeaderWordOf(bytes, kWordKind),
              static_cast<uint64_t>(flat.kind()));
    EXPECT_EQ(HeaderWordOf(bytes, kWordSearchTables),
              flat.HasSearchTables() ? 1u : 0u);
    EXPECT_EQ(HeaderWordOf(bytes, kWordNodes), flat.NumNodes());
  }
  std::remove(path.c_str());
}

TEST(FlatIndexSnapshot, TablesShareTheForestAndFollowItsSections) {
  const Graph g = RMatGraph500(9, 4000, 23);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const auto flat =
      std::make_shared<const FlatHcdIndex>(Freeze(NaiveHcdBuild(g, cd)));
  const auto tabled = BuildSearchTables(g, cd, flat);
  // The forest sections are the base index's own bytes, not copies.
  EXPECT_EQ(tabled->data().levels.data(), flat->data().levels.data());
  EXPECT_EQ(tabled->data().vertices.data(), flat->data().vertices.data());
  EXPECT_EQ(tabled->data().tid.data(), flat->data().tid.data());
  EXPECT_FALSE(tabled->mapped());
  EXPECT_FALSE(flat->HasSearchTables());
  EXPECT_TRUE(tabled->HasSearchTables());
  EXPECT_EQ(tabled->NumGraphEdges(), g.NumEdges());
  EXPECT_TRUE(HcdEquals(*tabled, *flat));

  const std::string path1 = ::testing::TempDir() + "/flat_tables_1.bin";
  const std::string path2 = ::testing::TempDir() + "/flat_tables_2.bin";
  const std::string path_forest =
      ::testing::TempDir() + "/flat_tables_base.bin";
  ASSERT_TRUE(SaveFlatIndex(*tabled, path1).ok());
  const std::vector<char> bytes = ReadAll(path1);
  EXPECT_EQ(HeaderWordOf(bytes, kWordSearchTables), 1u);
  EXPECT_EQ(HeaderWordOf(bytes, kWordGraphEdges), g.NumEdges());
  // The forest without tables writes the same header bar the table words,
  // then the same sections; the file with tables adds the tables after
  // them.
  ASSERT_TRUE(SaveFlatIndex(*flat, path_forest).ok());
  const std::vector<char> forest = ReadAll(path_forest);
  ASSERT_GT(bytes.size(), forest.size());
  const size_t table_words = kWordSearchTables * sizeof(uint64_t);
  const size_t header_bytes = kHeaderWords * sizeof(uint64_t);
  EXPECT_TRUE(
      std::equal(forest.begin(), forest.begin() + table_words, bytes.begin()));
  EXPECT_TRUE(std::equal(forest.begin() + header_bytes, forest.end(),
                         bytes.begin() + header_bytes));

  FlatHcdIndex loaded;
  ASSERT_TRUE(MapFlatIndex(path1, &loaded).ok());
  EXPECT_TRUE(HcdEquals(*tabled, loaded));
  EXPECT_TRUE(SameSearchTables(*tabled, loaded));
  ASSERT_TRUE(SaveFlatIndex(loaded, path2).ok());
  EXPECT_EQ(ReadAll(path2), bytes);
  std::remove(path1.c_str());
  std::remove(path2.c_str());
  std::remove(path_forest.c_str());
}

TEST(FlatSnapshotTables, AGraphOfAnotherEdgeCountIsRejected) {
  const Graph g = RMatGraph500(8, 2000, 3);
  HcdEngine source(&g);
  const std::string path = ::testing::TempDir() + "/flat_tables_edges.bin";
  ASSERT_TRUE(
      SaveFlatIndex(*source.Snapshot().state()->shared_flat(), path).ok());
  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
  std::remove(path.c_str());
  const auto flat = std::make_shared<const FlatHcdIndex>(std::move(mapped));
  ASSERT_TRUE(flat->HasSearchTables());

  // Same vertices, one edge fewer.
  std::vector<Edge> edges = g.Edges();
  edges.pop_back();
  GraphBuilder builder;
  for (const Edge& e : edges) builder.AddEdge(e.first, e.second);
  const Graph fewer = std::move(builder).Build(g.NumVertices());
  ASSERT_EQ(fewer.NumVertices(), g.NumVertices());
  HcdEngine other(&fewer);
  EXPECT_EQ(other.AdoptFlat(flat).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CheckSnapshotFits(*flat, HierarchyKind::kCore, g.NumVertices(),
                              g.NumEdges() + 1)
                .code(),
            StatusCode::kInvalidArgument);
  HcdEngine same(&g);
  ASSERT_TRUE(same.AdoptFlat(flat).ok());
  EXPECT_EQ(same.Snapshot().state()->shared_flat(), flat);

  // A truss index's tables record the edge count too.
  const auto truss = std::make_shared<const FlatHcdIndex>(TabledTrussOf(g));
  const EngineOptions truss_options{.hierarchy = HierarchyKind::kTruss};
  HcdEngine other_truss(&fewer, truss_options);
  EXPECT_EQ(other_truss.AdoptFlat(truss).code(),
            StatusCode::kInvalidArgument);
  HcdEngine same_truss(&g, truss_options);
  ASSERT_TRUE(same_truss.AdoptFlat(truss).ok());
  EXPECT_EQ(&same_truss.Searcher().flat(), truss.get());
}

// A file without tables: an engine that adopts one builds them (a core
// engine when it seals, a truss engine in Searcher()), and they equal the
// ones a file with tables carries.
TEST(FlatSnapshotTables, ForestOnlyFilesLoadAndBuildTheirTables) {
  const Graph g = RMatGraph500(8, 2000, 7);
  HcdEngine source(&g);
  const std::string forest_only =
      ::testing::TempDir() + "/flat_forest_only.bin";
  ASSERT_TRUE(SaveFlatIndex(source.Flat(), forest_only).ok());
  FlatHcdIndex loaded;
  ASSERT_TRUE(MapFlatIndex(forest_only, &loaded).ok());
  EXPECT_FALSE(loaded.HasSearchTables());
  HcdEngine engine(&g);
  ASSERT_TRUE(
      engine.AdoptFlat(std::make_shared<const FlatHcdIndex>(std::move(loaded)))
          .ok());
  const FlatHcdIndex& sealed = *engine.Snapshot().state()->shared_flat();
  EXPECT_TRUE(sealed.HasSearchTables());
  EXPECT_TRUE(
      SameSearchTables(sealed, *source.Snapshot().state()->shared_flat()));

  // A forest-only truss file, as builds wrote before element indexes
  // carried tables: Searcher() builds them over the adopted forest, equal
  // to a build's, and keeps serving the mapped forest sections.
  const EngineOptions truss{.hierarchy = HierarchyKind::kTruss};
  HcdEngine truss_source(&g, truss);
  ASSERT_TRUE(SaveFlatIndex(truss_source.Flat(), forest_only).ok());
  FlatHcdIndex truss_loaded;
  ASSERT_TRUE(MapFlatIndex(forest_only, &truss_loaded).ok());
  EXPECT_FALSE(truss_loaded.HasSearchTables());
  HcdEngine truss_engine(&g, truss);
  ASSERT_TRUE(truss_engine
                  .AdoptFlat(std::make_shared<const FlatHcdIndex>(
                      std::move(truss_loaded)))
                  .ok());
  const FlatHcdIndex& served = truss_engine.Searcher().flat();
  EXPECT_TRUE(served.HasSearchTables());
  EXPECT_TRUE(served.data().levels.mapped());
  EXPECT_EQ(&truss_engine.Flat(), &served);
  EXPECT_TRUE(SameSearchTables(served, truss_source.Searcher().flat()));
  std::remove(forest_only.c_str());
}

// ---------------------------------------------------------------------------
// Corrupt snapshots of every kind fail with Corruption.

enum class SnapshotKind {
  kCore,
  kCoreTables,
  kTruss,
  kNucleus,
  kTrussTables,
  kNucleusTables
};

struct SnapshotCase {
  const char* name;
  SnapshotKind kind;
};

class FlatSnapshotCorruption : public ::testing::TestWithParam<SnapshotCase> {
 protected:
  void SetUp() override {
    const Graph branching = PlantedHierarchy(BranchingSpec(2, 8, 2, 2, 4), 41);
    switch (GetParam().kind) {
      case SnapshotKind::kCore:
        index_ =
            Freeze(NaiveHcdBuild(branching, BzCoreDecomposition(branching)));
        break;
      case SnapshotKind::kCoreTables:
        index_ = TabledCoreOf(branching);
        break;
      case SnapshotKind::kTruss:
        index_ = FreezeTrussOf(PlantedHierarchy(OnionSpec(4, 7), 11));
        break;
      case SnapshotKind::kNucleus:
        index_ = FreezeNucleusOf(branching);
        break;
      case SnapshotKind::kTrussTables:
        index_ = TabledTrussOf(PlantedHierarchy(OnionSpec(4, 7), 11));
        break;
      case SnapshotKind::kNucleusTables:
        index_ = TabledNucleusOf(branching);
        break;
    }
    // The tampering cases need a node with a child and two levels.
    ASSERT_GT(index_.SubtreeNodes(0), 1u);
    ASSERT_GE(index_.NumLevelGroups(), 2u);
    path_ = ::testing::TempDir() + "/flat_corrupt_" + GetParam().name +
            ".bin";
    ASSERT_TRUE(SaveFlatIndex(index_, path_).ok());
    bytes_ = ReadAll(path_);
    sections_ = SnapshotLayout(index_);
    ASSERT_EQ((sections_.back().end + 7) / 8 * 8, bytes_.size());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` and expects the loader to reject them as Corruption.
  void ExpectCorrupt(const std::vector<char>& bytes, const char* what) {
    ExpectSnapshotCorrupt(path_, bytes, what);
  }

  uint64_t HeaderWord(size_t i) const { return HeaderWordOf(bytes_, i); }

  std::vector<char> WithHeaderWord(size_t i, uint64_t value) const {
    std::vector<char> bytes = bytes_;
    std::memcpy(bytes.data() + i * sizeof(uint64_t), &value, sizeof(value));
    return bytes;
  }

  /// The image with 32-bit entry i of `section` set to `value`.
  std::vector<char> WithEntry(Section section, size_t i,
                              uint32_t value) const {
    std::vector<char> bytes = bytes_;
    std::memcpy(bytes.data() + sections_[section].begin + i * sizeof(value),
                &value, sizeof(value));
    return bytes;
  }

  bool Elements() const { return index_.kind() != HierarchyKind::kCore; }

  FlatHcdIndex index_;
  std::string path_;
  std::vector<char> bytes_;
  std::vector<SectionRange> sections_;
};

TEST_P(FlatSnapshotCorruption, Truncation) {
  std::vector<char> bytes = bytes_;
  bytes.resize(bytes.size() - 8);
  ExpectCorrupt(bytes, "dropped tail");
  // A cut inside each section (the element members and the tables
  // included) fails the size check before anything is aliased.
  for (const SectionRange& r : sections_) {
    if (r.end - r.begin < 8) continue;
    bytes = bytes_;
    bytes.resize(r.begin + 4);
    ExpectCorrupt(bytes, "cut inside a section");
  }
  bytes.resize(kHeaderWords * sizeof(uint64_t));
  ExpectCorrupt(bytes, "sections missing entirely");
  bytes.resize(32);
  ExpectCorrupt(bytes, "mid-header truncation");
}

TEST_P(FlatSnapshotCorruption, BadMagic) {
  ExpectCorrupt(WithHeaderWord(kWordMagic, 0x4242424242424242ULL),
                "bad magic");
}

// The v1 builder stream and the per-kind v2-v4 layouts are retired: their
// magics are just bad ones.
TEST_P(FlatSnapshotCorruption, RetiredMagicsAreRejected) {
  for (uint64_t magic : {0x484344464f523031ULL, 0x484344464f523032ULL,
                         0x484344464f523033ULL, 0x484344464f523034ULL}) {
    ExpectCorrupt(WithHeaderWord(kWordMagic, magic), "retired magic");
  }
}

TEST_P(FlatSnapshotCorruption, HeaderCountsDisagreeWithFileSize) {
  // Each tampered count changes the expected file size (or trips the
  // header plausibility checks) and must be rejected before allocation.
  ExpectCorrupt(WithHeaderWord(kWordNodes, HeaderWord(kWordNodes) + 1),
                "num_nodes + 1");
  ExpectCorrupt(WithHeaderWord(kWordPlaced, HeaderWord(kWordPlaced) + 1),
                "num_placed + 1");
  ExpectCorrupt(
      WithHeaderWord(kWordLevelGroups, HeaderWord(kWordLevelGroups) + 1),
      "num_level_groups + 1");
  ExpectCorrupt(WithHeaderWord(kWordNodes, 1ULL << 40), "absurd num_nodes");
  ExpectCorrupt(WithHeaderWord(kWordSearchTables, 2), "table flag not 0/1");
  ExpectCorrupt(WithHeaderWord(kWordSearchTables,
                               1 - HeaderWord(kWordSearchTables)),
                "table flag flipped");
}

TEST_P(FlatSnapshotCorruption, WrongKindTag) {
  // Out-of-range values are garbage, and every other kind disagrees with
  // the element member section (arity), with the tables, or both.
  ExpectCorrupt(WithHeaderWord(kWordKind, 3), "kind out of range");
  ExpectCorrupt(WithHeaderWord(kWordKind, 0xFFFFFFFFFFFFFFFFULL),
                "kind garbage");
  ExpectCorrupt(WithHeaderWord(kWordKind, uint64_t{1} << 32),
                "kind beyond 32 bits");
  for (HierarchyKind kind : {HierarchyKind::kCore, HierarchyKind::kTruss,
                             HierarchyKind::kNucleus}) {
    if (kind == index_.kind()) continue;
    ExpectCorrupt(WithHeaderWord(kWordKind, static_cast<uint64_t>(kind)),
                  "another kind");
  }
}

TEST_P(FlatSnapshotCorruption, ElementCountAndGraphMismatch) {
  // The element count sizes tid (and the member section); the graph vertex
  // count bounds every member id, and equals the element count for core.
  ExpectCorrupt(WithHeaderWord(kWordElements, HeaderWord(kWordElements) + 1),
                "element count + 1");
  ExpectCorrupt(WithHeaderWord(kWordGraphVertices, 1),
                "graph smaller than its elements");
  ExpectCorrupt(WithHeaderWord(kWordGraphVertices, 1ULL << 40),
                "absurd graph vertex count");
  if (!Elements()) {
    ExpectCorrupt(WithHeaderWord(kWordGraphVertices,
                                 HeaderWord(kWordElements) + 1),
                  "core graph/element domain split");
  }
}

TEST_P(FlatSnapshotCorruption, TamperedSectionsFailAdopt) {
  const uint32_t num_nodes = static_cast<uint32_t>(HeaderWord(kWordNodes));
  // parents[1] points at a later node: preorder inversion.
  ExpectCorrupt(WithEntry(kParents, 1, 2), "preorder inversion");
  // subtree_nodes[0] shrunk to 1: node 1 falls outside its parent's
  // subtree.
  ExpectCorrupt(WithEntry(kSubtreeNodes, 0, 1), "subtree shrunk");
  // tid[v] of a placed vertex: out-of-range node id.
  ExpectCorrupt(WithEntry(kTid, index_.data().vertices[0], num_nodes + 9),
                "tid out of range");
  // level_group_offsets[1] hoisted far past num_nodes: front/back entries
  // and the file size are untouched, so the snapshot passes every header
  // check and the upfront offset validation in Adopt is what rejects it.
  ExpectCorrupt(WithEntry(kLevelGroupOffsets, 1, num_nodes + 0xFFFFFF),
                "level group offset out of range");
}

TEST_P(FlatSnapshotCorruption, TamperedMembersFailAdopt) {
  if (!Elements()) GTEST_SKIP() << "a core snapshot has no member section";
  // Swap the first two members of element 0: every header count and the
  // file size stay valid, so only Adopt's ascending-members check stands
  // between the file and the serve path.
  const std::span<const VertexId> m = index_.ElementMembers(0);
  ASSERT_LT(m[0], m[1]);
  std::vector<char> bytes = WithEntry(kElementMembers, 0, m[1]);
  std::memcpy(bytes.data() + sections_[kElementMembers].begin + 4, &m[0],
              sizeof(VertexId));
  ExpectCorrupt(bytes, "members not ascending");
  ExpectCorrupt(WithEntry(kElementMembers, 1, index_.NumGraphVertices()),
                "member out of graph range");
}

TEST_P(FlatSnapshotCorruption, BestEntriesOutOfRangeOrBelowTheirLevel) {
  if (!index_.HasSearchTables()) GTEST_SKIP() << "no search tables";
  const size_t tables = NumBestTables(index_.kind());
  const size_t table_len = HeaderWord(kWordBestNodes) / tables;
  const uint32_t num_nodes = static_cast<uint32_t>(HeaderWord(kWordNodes));
  ExpectCorrupt(WithEntry(kBestNodes, 0, num_nodes),
                "best entry out of range");
  ExpectCorrupt(WithEntry(kBestNodes, 3, kInvalidNode), "best entry invalid");
  TreeNodeId shallow = 0;
  for (TreeNodeId t = 0; t < index_.NumNodes(); ++t) {
    if (index_.Level(t) < index_.Level(shallow)) shallow = t;
  }
  ASSERT_LT(index_.Level(shallow), table_len - 1);
  ExpectCorrupt(WithEntry(kBestNodes, tables * table_len - 1, shallow),
                "best entry below its level");
}

TEST_P(FlatSnapshotCorruption, WrongTableLength) {
  if (!index_.HasSearchTables()) {
    // Without tables, nonzero table counts are table sections without
    // tables.
    ExpectCorrupt(WithHeaderWord(kWordGraphEdges, 5), "edges without tables");
    ExpectCorrupt(WithHeaderWord(kWordBestNodes, kNumBestTables),
                  "best entries without tables");
    return;
  }
  // Header plausibility: the entry count splits into NumBestTables(kind)
  // tables of max level + 1 entries, and an index with nodes has entries.
  const uint64_t num_best = HeaderWord(kWordBestNodes);
  ExpectCorrupt(WithHeaderWord(kWordBestNodes, num_best + 1),
                "one entry too many");
  ExpectCorrupt(WithHeaderWord(kWordBestNodes, 0),
                "no tables for a non-empty index");
  ExpectCorrupt(WithHeaderWord(kWordBestNodes, uint64_t{1} << 62),
                "absurd table count");
  // One level fewer per table, with the file cut to match: every size
  // check passes, and Adopt's length check is what rejects it.
  const uint64_t shorter = num_best - NumBestTables(index_.kind());
  std::vector<char> bytes = WithHeaderWord(kWordBestNodes, shorter);
  bytes.resize(sections_[kBestNodes].begin +
               (shorter * sizeof(TreeNodeId) + 7) / 8 * 8);
  ExpectCorrupt(bytes, "tables one level short");
}

/// Copies of `image`, a saved snapshot of `index`, each with the last
/// padding byte of one padded section set. The writer pads with zeros, so
/// an index loaded from such a file would re-save to other bytes.
std::vector<std::vector<char>> WithNonzeroPadding(
    const FlatHcdIndex& index, const std::vector<char>& image) {
  std::vector<std::vector<char>> copies;
  for (const SectionRange& r : SnapshotLayout(index)) {
    if (r.end % 8 == 0) continue;
    copies.push_back(image);
    copies.back()[(r.end + 7) / 8 * 8 - 1] = 1;
  }
  EXPECT_FALSE(copies.empty()) << "fixture needs a padded section";
  return copies;
}

TEST_P(FlatSnapshotCorruption, NonzeroPaddingIsRejected) {
  for (const std::vector<char>& bytes : WithNonzeroPadding(index_, bytes_)) {
    ExpectCorrupt(bytes, "nonzero padding");
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryKind, FlatSnapshotCorruption,
    ::testing::Values(SnapshotCase{"core", SnapshotKind::kCore},
                      SnapshotCase{"core_tables", SnapshotKind::kCoreTables},
                      SnapshotCase{"truss", SnapshotKind::kTruss},
                      SnapshotCase{"nucleus", SnapshotKind::kNucleus},
                      SnapshotCase{"truss_tables", SnapshotKind::kTrussTables},
                      SnapshotCase{"nucleus_tables",
                                   SnapshotKind::kNucleusTables}),
    [](const ::testing::TestParamInfo<SnapshotCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Mapped snapshots: a mapped index equals the index that was saved, section
// by section. The saved index comes from Freeze (and BuildSearchTables), so
// the compare does not run through the loader's own code.

/// Saves `built`, maps it back, and asserts the mapped index is `built`
/// bit for bit: every section element-equal, the search tables equal, the
/// queries agree, and re-saving the mapped index reproduces the file.
void ExpectMapMatchesSaved(const FlatHcdIndex& built, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/flat_map_" + tag + ".bin";
  ASSERT_TRUE(SaveFlatIndex(built, path).ok());

  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok()) << tag;
  EXPECT_TRUE(mapped.mapped()) << tag;

  const FlatHcdIndex::Data& a = built.data();
  const FlatHcdIndex::Data& b = mapped.data();
  EXPECT_EQ(a.kind, b.kind) << tag;
  EXPECT_EQ(a.num_vertices, b.num_vertices) << tag;
  EXPECT_EQ(a.num_graph_vertices, b.num_graph_vertices) << tag;
  EXPECT_EQ(a.element_members, b.element_members) << tag;
  EXPECT_EQ(a.levels, b.levels) << tag;
  EXPECT_EQ(a.parents, b.parents) << tag;
  EXPECT_EQ(a.subtree_nodes, b.subtree_nodes) << tag;
  EXPECT_EQ(a.vertex_offsets, b.vertex_offsets) << tag;
  EXPECT_EQ(a.vertices, b.vertices) << tag;
  EXPECT_EQ(a.tid, b.tid) << tag;
  EXPECT_EQ(a.desc_level_order, b.desc_level_order) << tag;
  EXPECT_EQ(a.level_group_offsets, b.level_group_offsets) << tag;
  EXPECT_TRUE(SameSearchTables(built, mapped)) << tag;
  EXPECT_TRUE(HcdEquals(built, mapped)) << tag;

  const std::string resaved = path + ".resaved";
  ASSERT_TRUE(SaveFlatIndex(mapped, resaved).ok()) << tag;
  EXPECT_EQ(ReadAll(path), ReadAll(resaved)) << tag;
  std::remove(resaved.c_str());
  std::remove(path.c_str());
}

class MappedSnapshotSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(MappedSnapshotSuite, MapEqualsTheSavedIndexForEveryKind) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  ExpectMapMatchesSaved(Freeze(NaiveHcdBuild(g, cd)),
                        std::string(GetParam().name) + "_core");
  ExpectMapMatchesSaved(TabledCoreOf(g),
                        std::string(GetParam().name) + "_core_tables");
  ExpectMapMatchesSaved(FreezeTrussOf(g),
                        std::string(GetParam().name) + "_truss");
  ExpectMapMatchesSaved(FreezeNucleusOf(g),
                        std::string(GetParam().name) + "_nucleus");
  ExpectMapMatchesSaved(TabledTrussOf(g),
                        std::string(GetParam().name) + "_truss_tables");
  ExpectMapMatchesSaved(TabledNucleusOf(g),
                        std::string(GetParam().name) + "_nucleus_tables");
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, MappedSnapshotSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Seeded mutation fuzz: damaged snapshots of every kind either fail with
// Corruption or load an index that is exactly what the bytes say.

/// One mutation of a snapshot image: bit flips, a truncation, an edited
/// header count word, one section's bytes spliced over another's, or one
/// 32-bit section entry moved by a small step.
std::vector<char> MutateSnapshot(const std::vector<char>& image,
                                 const std::vector<SectionRange>& sections,
                                 Rng& rng) {
  std::vector<char> out = image;
  std::vector<SectionRange> filled;
  for (const SectionRange& r : sections) {
    if (r.end > r.begin) filled.push_back(r);
  }
  switch (rng.Uniform(5)) {
    case 0:  // one to three bit flips anywhere
      for (uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        out[rng.Uniform(out.size())] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      break;
    case 1:  // truncation
      out.resize(rng.Uniform(out.size()));
      break;
    case 2: {  // a count word (not the magic) by a small step, or any value
      const size_t at = (1 + rng.Uniform(kHeaderWords - 1)) * sizeof(uint64_t);
      uint64_t word;
      std::memcpy(&word, out.data() + at, sizeof(word));
      const uint64_t step = 1 + rng.Uniform(3);
      word = rng.Uniform(4) == 0   ? rng.Next64()
             : rng.Uniform(2) == 0 ? word + step
                                   : word - step;
      std::memcpy(out.data() + at, &word, sizeof(word));
      break;
    }
    case 3: {  // a prefix of one section copied over another's
      if (filled.size() < 2) break;
      const SectionRange& from = filled[rng.Uniform(filled.size())];
      const SectionRange& to = filled[rng.Uniform(filled.size())];
      const size_t len = std::min(from.end - from.begin, to.end - to.begin);
      std::memmove(out.data() + to.begin, image.data() + from.begin, len);
      break;
    }
    case 4: {  // one entry of one section moved by a small step
      if (filled.empty()) break;
      const SectionRange& r = filled[rng.Uniform(filled.size())];
      const size_t at = r.begin + 4 * rng.Uniform((r.end - r.begin) / 4);
      uint32_t entry;
      std::memcpy(&entry, out.data() + at, sizeof(entry));
      entry += rng.Uniform(2) == 0 ? 1 + rng.Uniform(2) : -1 - rng.Uniform(2);
      std::memcpy(out.data() + at, &entry, sizeof(entry));
      break;
    }
  }
  return out;
}

/// Queries a loaded index the way the server does: every vertex's k-core
/// at its own level and at level 1, and with search tables every
/// best-node entry under every metric, scored, and for an element index
/// the global best's community materialized.
void WalkLoadedIndex(const std::shared_ptr<const FlatHcdIndex>& shared) {
  const FlatHcdIndex& index = *shared;
  for (VertexId v = 0; v < index.NumVertices(); ++v) {
    const TreeNodeId tid = index.Tid(v);
    if (tid == kInvalidNode) {
      ASSERT_EQ(NodeOfKCoreContaining(index, v, 1), kInvalidNode);
      continue;
    }
    ASSERT_EQ(NodeOfKCoreContaining(index, v, index.Level(tid)), tid);
    if (index.Level(tid) >= 1) {
      ASSERT_LT(NodeOfKCoreContaining(index, v, 1), index.NumNodes());
    }
  }
  if (!index.HasSearchTables()) return;
  const SearchIndex search(shared);
  const uint32_t table_len = static_cast<uint32_t>(
      index.data().best_nodes.size() / NumBestTables(index.kind()));
  for (Metric metric : kAllMetrics) {
    for (uint32_t k = 0; k < table_len; ++k) {
      const TreeNodeId best = search.BestAtLeast(metric, k);
      ASSERT_LT(best, index.NumNodes());
      ASSERT_GE(index.Level(best), k);
      (void)search.Score(metric, best);
    }
    ASSERT_EQ(search.BestAtLeast(metric, table_len), kInvalidNode);
  }
  if (index.kind() != HierarchyKind::kCore && table_len > 0) {
    SearchWorkspace ws;
    std::vector<VertexId> members;
    CommunityOf(index, search.BestAtLeast(kAllMetrics[0], 0), &ws, &members);
    ASSERT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const VertexId v : members) ASSERT_LT(v, index.NumGraphVertices());
  }
}

TEST(FlatSnapshotFuzz, MutatedSnapshotsFailCleanlyOrResaveToTheSameBytes) {
  constexpr int kMutationsPerImage = 200;
  const std::string path = ::testing::TempDir() + "/flat_fuzz.bin";
  const std::string resaved = ::testing::TempDir() + "/flat_fuzz_resaved.bin";
  Rng rng(20261019);
  int rejected = 0;
  int loaded = 0;
  for (const testing::GraphCase& c : testing::StandardGraphSuite()) {
    const std::string name = c.name;
    if (name != "ring_of_cliques" && name != "rmat" && name != "onion") {
      continue;
    }
    const Graph& g = c.graph;
    const FlatHcdIndex images[] = {
        Freeze(NaiveHcdBuild(g, BzCoreDecomposition(g))),
        TabledCoreOf(g),
        FreezeTrussOf(g),
        FreezeNucleusOf(g),
        TabledTrussOf(g),
        TabledNucleusOf(g),
    };
    for (const FlatHcdIndex& built : images) {
      SCOPED_TRACE(name + " kind " + HierarchyKindName(built.kind()) +
                   (built.HasSearchTables() ? " with tables" : ""));
      ASSERT_TRUE(SaveFlatIndex(built, path).ok());
      const std::vector<char> image = ReadAll(path);
      const std::vector<SectionRange> sections = SnapshotLayout(built);
      ASSERT_EQ((sections.back().end + 7) / 8 * 8, image.size());
      for (int i = 0; i < kMutationsPerImage; ++i) {
        const std::vector<char> mutated =
            MutateSnapshot(image, sections, rng);
        WriteAll(path, mutated);
        FlatHcdIndex index;
        const Status s = MapFlatIndex(path, &index);
        if (!s.ok()) {
          ++rejected;
          ASSERT_EQ(s.code(), StatusCode::kCorruption)
              << "mutation " << i << ": " << s.ToString();
          continue;
        }
        ++loaded;
        ASSERT_TRUE(SaveFlatIndex(index, resaved).ok());
        const std::vector<char> again = ReadAll(resaved);
        const size_t differ =
            std::mismatch(again.begin(), again.end(), mutated.begin(),
                          mutated.end())
                .first -
            again.begin();
        ASSERT_EQ(again, mutated)
            << "mutation " << i << " re-saves differently from byte " << differ;
        WalkLoadedIndex(std::make_shared<const FlatHcdIndex>(std::move(index)));
        ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "mutation " << i;
      }
    }
  }
  // The mutator does break files, and what it leaves intact still loads.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(FlatSnapshotMapped, SurvivesSourceFileUnlink) {
  // POSIX keeps mapped pages alive after the last directory entry goes;
  // a mapped index must stay fully queryable once the file is deleted.
  const Graph g = PlantedHierarchy(BranchingSpec(2, 6, 2, 2, 3), 9);
  const FlatHcdIndex built = Freeze(NaiveHcdBuild(g, BzCoreDecomposition(g)));
  const std::string path = ::testing::TempDir() + "/flat_map_unlink.bin";
  ASSERT_TRUE(SaveFlatIndex(built, path).ok());

  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_TRUE(HcdEquals(built, mapped));
}

TEST(FlatSnapshotMapped, SurvivesASmallerSaveOverItsFile) {
  // A server maps its snapshot while a rebuild saves a new one to the same
  // path. The save must replace the file, not rewrite it in place: the
  // mapping keeps the old bytes, and none of its pages lies past the end
  // of a shorter new file (touching one would raise SIGBUS).
  const Graph big = ErdosRenyiGnm(3000, 15000, 31);
  const Graph small = PathGraph(6);
  const FlatHcdIndex big_flat =
      Freeze(NaiveHcdBuild(big, BzCoreDecomposition(big)));
  const FlatHcdIndex small_flat =
      Freeze(NaiveHcdBuild(small, BzCoreDecomposition(small)));
  const std::string path = ::testing::TempDir() + "/flat_map_resave.bin";
  ASSERT_TRUE(SaveFlatIndex(big_flat, path).ok());

  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
  ASSERT_TRUE(SaveFlatIndex(small_flat, path).ok());
  EXPECT_TRUE(HcdEquals(big_flat, mapped));

  FlatHcdIndex remapped;
  ASSERT_TRUE(MapFlatIndex(path, &remapped).ok());
  EXPECT_TRUE(HcdEquals(small_flat, remapped));
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "temporary file left behind";
  std::remove(path.c_str());
}

TEST(FlatSnapshotSave, FailedSaveKeepsTheOldFileAndNoTemporary) {
  const Graph g = PathGraph(6);
  const FlatHcdIndex flat = Freeze(NaiveHcdBuild(g, BzCoreDecomposition(g)));
  const std::string path = ::testing::TempDir() + "/flat_save_fail.bin";
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  ASSERT_TRUE(SaveFlatIndex(flat, path).ok());
  const std::vector<char> before = ReadAll(path);

  // The temporary file cannot be created: the old file stays as it was.
  const Graph other = PathGraph(9);
  const FlatHcdIndex other_flat =
      Freeze(NaiveHcdBuild(other, BzCoreDecomposition(other)));
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  EXPECT_FALSE(SaveFlatIndex(other_flat, path).ok());
  EXPECT_EQ(ReadAll(path), before);
  ASSERT_EQ(::rmdir(tmp.c_str()), 0);

  // The rename fails (the target is a directory): the written temporary
  // file is removed again.
  const std::string dir = ::testing::TempDir() + "/flat_save_fail_dir";
  const std::string dir_tmp = dir + ".tmp." + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0700), 0);
  EXPECT_FALSE(SaveFlatIndex(flat, dir).ok());
  EXPECT_NE(::access(dir_tmp.c_str(), F_OK), 0);
  ASSERT_EQ(::rmdir(dir.c_str()), 0);
  std::remove(path.c_str());
}

TEST(FlatSnapshotMapped, ConcurrentReadersShareOneMapping) {
  // One mapping, many readers: traversals and vertex-span scans from
  // several threads against the same shared immutable pages. Runs under
  // TSan in CI; any write into the mapped region or unsynchronized
  // bookkeeping in ArrayRef/MappedFile shows up here.
  const Graph g = PlantedHierarchy(BranchingSpec(2, 8, 2, 2, 4), 29);
  const FlatHcdIndex built = Freeze(NaiveHcdBuild(g, BzCoreDecomposition(g)));
  const std::string path = ::testing::TempDir() + "/flat_map_threads.bin";
  ASSERT_TRUE(SaveFlatIndex(built, path).ok());

  auto mapped = std::make_shared<FlatHcdIndex>();
  ASSERT_TRUE(MapFlatIndex(path, mapped.get()).ok());
  ASSERT_TRUE(mapped->mapped());

  constexpr int kThreads = 4;
  std::atomic<uint64_t> checksum{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([mapped, &checksum] {
      uint64_t local = 0;
      for (TreeNodeId node = 0; node < mapped->NumNodes(); ++node) {
        local += mapped->Level(node);
        for (const VertexId v : mapped->CoreVertices(node)) local += v;
      }
      for (VertexId v = 0; v < mapped->NumVertices(); ++v) {
        local += mapped->Tid(v);
      }
      checksum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (std::thread& r : readers) r.join();

  uint64_t expect = 0;
  for (TreeNodeId node = 0; node < built.NumNodes(); ++node) {
    expect += built.Level(node);
    for (const VertexId v : built.CoreVertices(node)) expect += v;
  }
  for (VertexId v = 0; v < built.NumVertices(); ++v) expect += built.Tid(v);
  EXPECT_EQ(checksum.load(), kThreads * expect);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hcd
