// Tests for the frozen flat representation: Freeze equivalence against the
// builder forest, the preorder/CSR structural invariants, Adopt's
// validation of every invariant, v2 snapshot round-trips (bit-identical),
// corrupt-v2 rejection (the retired v1 magic included), and the element
// domains (kind-tagged truss/nucleus freezes, v3 snapshots, corrupt-v3
// rejection).

#include "hcd/flat_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mapped_file.h"

#include "core/core_decomposition.h"
#include "graph/generators.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/serialize.h"
#include "hcd/validate.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"
#include "parallel/omp_utils.h"
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

  // Cross-representation per-node equality via representative vertices.
  ASSERT_EQ(flat.Roots().size(), forest.Roots().size());
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    ASSERT_FALSE(flat.Vertices(t).empty());
    const VertexId rep = flat.Vertices(t).front();
    const TreeNodeId ft = forest.Tid(rep);
    EXPECT_EQ(flat.Level(t), forest.Level(ft));
    EXPECT_EQ(Sorted(flat.Vertices(t)), Sorted(forest.Vertices(ft)));
    EXPECT_EQ(flat.CoreSize(t), forest.CoreSize(ft));
    EXPECT_EQ(Sorted(flat.CoreVertices(t)),
              Sorted(forest.CoreVertices(ft)));
    EXPECT_EQ(flat.Children(t).size(), forest.Children(ft).size());
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
    // Children sit exactly at the preorder subtree boundaries.
    TreeNodeId expected = t + 1;
    for (TreeNodeId c : flat.Children(t)) {
      EXPECT_EQ(c, expected);
      EXPECT_EQ(flat.Parent(c), t);
      expected = c + flat.SubtreeNodes(c);
    }
    EXPECT_EQ(expected, t + flat.SubtreeNodes(t));
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

TEST(FlatIndex, MoveFreezeReleasesForest) {
  Graph g = PlantedHierarchy(OnionSpec(5, 8), 2);
  CoreDecomposition cd = BzCoreDecomposition(g);
  HcdForest forest = NaiveHcdBuild(g, cd);
  const FlatHcdIndex expect = Freeze(forest);
  const FlatHcdIndex flat = Freeze(std::move(forest));
  EXPECT_TRUE(HcdEquals(expect, flat));
  EXPECT_EQ(forest.NumNodes(), 0u);  // builder arrays released
}

TEST(FlatIndex, EmptyForest) {
  const FlatHcdIndex flat = Freeze(HcdForest(0));
  EXPECT_EQ(flat.NumNodes(), 0u);
  EXPECT_EQ(flat.NumVertices(), 0u);
  EXPECT_EQ(flat.NumLevelGroups(), 0u);
  EXPECT_TRUE(flat.Roots().empty());
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
    FlatHcdIndex::Data d = valid;
    d.roots[0] = 1;
    ExpectAdoptCorruption(std::move(d), "roots array mismatch");
  }
  {
    FlatHcdIndex::Data d = valid;
    // Break the children <-> subtree bijection without touching parents.
    d.children[0] = d.children.size() > 1 ? d.children[1] : d.children[0] + 1;
    ExpectAdoptCorruption(std::move(d), "children not at boundaries");
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
    d.child_offsets = {0, 0};
    d.vertex_offsets = {0, 0};
    d.roots = {0};
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
// v2 snapshots: bit-identical round trip, corrupt files.

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

TEST(FlatIndexSnapshot, V2RoundTripIsBitIdentical) {
  Graph g = RMatGraph500(9, 4000, 23);
  CoreDecomposition cd = PkcCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(PhcdBuild(g, cd));

  const std::string path1 = ::testing::TempDir() + "/flat_rt1.bin";
  const std::string path2 = ::testing::TempDir() + "/flat_rt2.bin";
  ASSERT_TRUE(SaveFlatIndex(flat, path1).ok());
  FlatHcdIndex loaded;
  ASSERT_TRUE(LoadFlatIndex(path1, &loaded).ok());
  EXPECT_TRUE(HcdEquals(flat, loaded));
  EXPECT_EQ(loaded.data().subtree_nodes, flat.data().subtree_nodes);
  ASSERT_TRUE(SaveFlatIndex(loaded, path2).ok());
  EXPECT_EQ(ReadAll(path1), ReadAll(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

class FlatSnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    Graph g = PlantedHierarchy(BranchingSpec(2, 8, 2, 2, 4), 41);
    CoreDecomposition cd = BzCoreDecomposition(g);
    index_ = Freeze(NaiveHcdBuild(g, cd));
    path_ = ::testing::TempDir() + "/flat_corrupt.bin";
    ASSERT_TRUE(SaveFlatIndex(index_, path_).ok());
    bytes_ = ReadAll(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes `bytes` and expects Corruption from BOTH loaders: the copying
  /// fread path and the zero-copy mmap path share the header / size
  /// validation and the Adopt funnel, so every corruption fixture must be
  /// rejected identically by each.
  void ExpectCorrupt(const std::vector<char>& bytes, const char* what) {
    WriteAll(path_, bytes);
    FlatHcdIndex loaded;
    Status s = LoadFlatIndex(path_, &loaded);
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << "read: " << what << ": " << s.ToString();
    FlatHcdIndex mapped;
    s = MapFlatIndex(path_, &mapped);
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << "mmap: " << what << ": " << s.ToString();
  }

  uint64_t HeaderWord(size_t i) const {
    uint64_t w;
    std::memcpy(&w, bytes_.data() + i * sizeof(uint64_t), sizeof(w));
    return w;
  }

  std::vector<char> WithHeaderWord(size_t i, uint64_t value) const {
    std::vector<char> bytes = bytes_;
    std::memcpy(bytes.data() + i * sizeof(uint64_t), &value, sizeof(value));
    return bytes;
  }

  FlatHcdIndex index_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(FlatSnapshotCorruption, Truncation) {
  std::vector<char> bytes = bytes_;
  bytes.resize(bytes.size() - 8);
  ExpectCorrupt(bytes, "dropped tail");
  bytes.resize(32);  // mid-header
  ExpectCorrupt(bytes, "mid-header truncation");
}

TEST_F(FlatSnapshotCorruption, BadMagic) {
  ExpectCorrupt(WithHeaderWord(0, 0x4242424242424242ULL), "bad magic");
}

// The v1 builder-stream format is retired: its magic is just a bad one.
TEST_F(FlatSnapshotCorruption, RetiredV1MagicIsRejected) {
  ExpectCorrupt(WithHeaderWord(0, 0x484344464f523031ULL), "v1 magic");
}

TEST_F(FlatSnapshotCorruption, HeaderCountsDisagreeWithFileSize) {
  // Each tampered count changes the expected file size (or trips the
  // header plausibility checks) and must be rejected before allocation.
  ExpectCorrupt(WithHeaderWord(2, HeaderWord(2) + 1), "num_nodes + 1");
  ExpectCorrupt(WithHeaderWord(5, HeaderWord(5) + 1), "num_placed + 1");
  ExpectCorrupt(WithHeaderWord(3, HeaderWord(3) + 1), "num_roots + 1");
  ExpectCorrupt(WithHeaderWord(2, 1ULL << 40), "absurd num_nodes");
  ExpectCorrupt(WithHeaderWord(7, 1), "nonzero reserved word");
}

TEST_F(FlatSnapshotCorruption, TamperedSectionsFailAdopt) {
  const uint64_t num_nodes = HeaderWord(2);
  auto padded = [](uint64_t count) {
    return (count * sizeof(uint32_t) + 7) / 8 * 8;
  };
  const size_t header_bytes = 8 * sizeof(uint64_t);

  {
    // parents[1] (section 2, element 1): point it at a later node —
    // preorder inversion.
    std::vector<char> bytes = bytes_;
    const size_t off = header_bytes + padded(num_nodes) + 1 * sizeof(uint32_t);
    const uint32_t bad_parent = 2;
    std::memcpy(bytes.data() + off, &bad_parent, sizeof(bad_parent));
    ExpectCorrupt(bytes, "preorder inversion");
  }
  {
    // tid[0] (the 8th section): out-of-range node id. Sections before tid
    // are levels, parents, subtree_nodes, child_offsets, children,
    // vertex_offsets, vertices.
    std::vector<char> bytes = bytes_;
    const size_t tid_off = header_bytes + 3 * padded(num_nodes) +
                           padded(num_nodes + 1) + padded(HeaderWord(4)) +
                           padded(num_nodes + 1) + padded(HeaderWord(5));
    const uint32_t bad_tid = static_cast<uint32_t>(num_nodes) + 9;
    std::memcpy(bytes.data() + tid_off, &bad_tid, sizeof(bad_tid));
    ExpectCorrupt(bytes, "tid out of range");
  }
  {
    // level_group_offsets[1] (the 10th section) hoisted far past num_nodes:
    // front/back entries and the file size are untouched, so the snapshot
    // passes every header check and the upfront offset validation in Adopt
    // is what rejects it.
    ASSERT_GE(HeaderWord(6), 2u) << "fixture needs >= 2 level groups";
    std::vector<char> bytes = bytes_;
    const size_t group_off = header_bytes + 4 * padded(num_nodes) +
                             2 * padded(num_nodes + 1) +
                             padded(HeaderWord(4)) + padded(HeaderWord(5)) +
                             padded(HeaderWord(1)) + 1 * sizeof(uint32_t);
    const uint32_t bad_offset = static_cast<uint32_t>(num_nodes) + 0xFFFFFF;
    std::memcpy(bytes.data() + group_off, &bad_offset, sizeof(bad_offset));
    ExpectCorrupt(bytes, "level group offset out of range");
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
// v3 snapshots: bit-identical round trips, core stays v2, corrupt files.

void ExpectV3RoundTrip(const FlatHcdIndex& flat, const char* tag) {
  const std::string path1 =
      ::testing::TempDir() + "/flat_v3_" + tag + "_1.bin";
  const std::string path2 =
      ::testing::TempDir() + "/flat_v3_" + tag + "_2.bin";
  ASSERT_TRUE(SaveFlatIndex(flat, path1).ok());
  FlatHcdIndex loaded;
  ASSERT_TRUE(LoadFlatIndex(path1, &loaded).ok());
  EXPECT_TRUE(HcdEquals(flat, loaded));
  EXPECT_EQ(loaded.kind(), flat.kind());
  EXPECT_EQ(loaded.NumGraphVertices(), flat.NumGraphVertices());
  EXPECT_EQ(loaded.data().element_members, flat.data().element_members);
  ASSERT_TRUE(SaveFlatIndex(loaded, path2).ok());
  EXPECT_EQ(ReadAll(path1), ReadAll(path2));
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(FlatIndexSnapshot, V3TrussRoundTripIsBitIdentical) {
  ExpectV3RoundTrip(FreezeTrussOf(RMatGraph500(8, 2000, 5)), "truss");
}

TEST(FlatIndexSnapshot, V3NucleusRoundTripIsBitIdentical) {
  ExpectV3RoundTrip(FreezeNucleusOf(PlantedHierarchy(OnionSpec(4, 7), 11)),
                    "nucleus");
}

TEST(FlatIndexSnapshot, CoreSnapshotsStayV2) {
  Graph g = PlantedHierarchy(OnionSpec(4, 6), 19);
  CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(NaiveHcdBuild(g, cd));
  const std::string path = ::testing::TempDir() + "/flat_still_v2.bin";
  ASSERT_TRUE(SaveFlatIndex(flat, path).ok());
  const std::vector<char> bytes = ReadAll(path);
  uint64_t magic = 0;
  ASSERT_GE(bytes.size(), sizeof(magic));
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  EXPECT_EQ(magic, 0x484344464f523032ULL);  // "HCDFOR02"
  std::remove(path.c_str());
}

class FlatSnapshotV3Corruption : public ::testing::Test {
 protected:
  void SetUp() override {
    index_ = FreezeTrussOf(PlantedHierarchy(OnionSpec(4, 7), 11));
    path_ = ::testing::TempDir() + "/flat_v3_corrupt.bin";
    ASSERT_TRUE(SaveFlatIndex(index_, path_).ok());
    bytes_ = ReadAll(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Rejection parity: both the copying and the mmap loader must refuse.
  void ExpectCorrupt(const std::vector<char>& bytes, const char* what) {
    WriteAll(path_, bytes);
    FlatHcdIndex loaded;
    Status s = LoadFlatIndex(path_, &loaded);
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << "read: " << what << ": " << s.ToString();
    FlatHcdIndex mapped;
    s = MapFlatIndex(path_, &mapped);
    EXPECT_EQ(s.code(), StatusCode::kCorruption)
        << "mmap: " << what << ": " << s.ToString();
  }

  uint64_t HeaderWord(size_t i) const {
    uint64_t w;
    std::memcpy(&w, bytes_.data() + i * sizeof(uint64_t), sizeof(w));
    return w;
  }

  std::vector<char> WithHeaderWord(size_t i, uint64_t value) const {
    std::vector<char> bytes = bytes_;
    std::memcpy(bytes.data() + i * sizeof(uint64_t), &value, sizeof(value));
    return bytes;
  }

  FlatHcdIndex index_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(FlatSnapshotV3Corruption, WrongKindTag) {
  // v3 header word 1 is the kind. kCore is non-canonical in v3 (the
  // writer emits v2 for core), out-of-range values are garbage, and a
  // plausible-but-wrong kind disagrees with the member count (arity).
  ExpectCorrupt(WithHeaderWord(1, 0), "v3 tagged kCore");
  ExpectCorrupt(WithHeaderWord(1, 7), "kind out of range");
  ExpectCorrupt(WithHeaderWord(1, 0xFFFFFFFFFFFFFFFFULL), "kind garbage");
  ExpectCorrupt(WithHeaderWord(1, 2), "kind/arity mismatch");
}

TEST_F(FlatSnapshotV3Corruption, ElementCountAndGraphMismatch) {
  // num_element_members (word 9) must equal arity * n and match the file
  // size; num_graph_vertices (word 2) bounds every member id.
  ExpectCorrupt(WithHeaderWord(9, HeaderWord(9) + 1), "member count + 1");
  ExpectCorrupt(WithHeaderWord(9, HeaderWord(9) - 2), "member count - 2");
  ExpectCorrupt(WithHeaderWord(2, 1), "graph smaller than members");
  ExpectCorrupt(WithHeaderWord(10, 1), "nonzero reserved word");
  ExpectCorrupt(WithHeaderWord(11, 1), "nonzero reserved word 2");
}

TEST_F(FlatSnapshotV3Corruption, TruncatedElementSection) {
  std::vector<char> bytes = bytes_;
  bytes.resize(bytes.size() - 8);  // drop the tail of element_members
  ExpectCorrupt(bytes, "truncated element section");
  bytes.resize(12 * sizeof(uint64_t));  // header only
  ExpectCorrupt(bytes, "sections missing entirely");
  bytes.resize(40);  // mid-header
  ExpectCorrupt(bytes, "mid-header truncation");
}

TEST_F(FlatSnapshotV3Corruption, TamperedMembersFailAdopt) {
  // Swap the two endpoints of edge 0 in the trailing element section:
  // every header count and the file size stay valid, so only Adopt's
  // ascending-members check stands between the file and the serve path.
  const uint64_t num_members = HeaderWord(9);
  ASSERT_GE(num_members, 2u);
  std::vector<char> bytes = bytes_;
  const size_t padded_members =
      (num_members * sizeof(uint32_t) + 7) / 8 * 8;
  const size_t members_off = bytes.size() - padded_members;
  uint32_t a, b;
  std::memcpy(&a, bytes.data() + members_off, sizeof(a));
  std::memcpy(&b, bytes.data() + members_off + sizeof(a), sizeof(b));
  ASSERT_LT(a, b);
  std::memcpy(bytes.data() + members_off, &b, sizeof(b));
  std::memcpy(bytes.data() + members_off + sizeof(b), &a, sizeof(a));
  ExpectCorrupt(bytes, "members not ascending");
}

// ---------------------------------------------------------------------------
// Mapped snapshots: MapFlatIndex must be observably identical to
// LoadFlatIndex everywhere except storage ownership.

/// Saves `built`, loads it back through both loaders, and asserts the two
/// results are bit-identical: every section element-equal, queries agree,
/// and re-serializing the mapped index reproduces the input bytes.
void ExpectMapMatchesRead(const FlatHcdIndex& built, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/flat_map_" + tag + ".bin";
  ASSERT_TRUE(SaveFlatIndex(built, path).ok());

  FlatHcdIndex read_loaded;
  FlatHcdIndex mapped;
  ASSERT_TRUE(LoadFlatIndex(path, &read_loaded).ok()) << tag;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok()) << tag;
  EXPECT_FALSE(read_loaded.mapped()) << tag;
  EXPECT_TRUE(mapped.mapped()) << tag;

  const FlatHcdIndex::Data& a = read_loaded.data();
  const FlatHcdIndex::Data& b = mapped.data();
  EXPECT_EQ(a.kind, b.kind) << tag;
  EXPECT_EQ(a.num_vertices, b.num_vertices) << tag;
  EXPECT_EQ(a.num_graph_vertices, b.num_graph_vertices) << tag;
  EXPECT_EQ(a.element_members, b.element_members) << tag;
  EXPECT_EQ(a.levels, b.levels) << tag;
  EXPECT_EQ(a.parents, b.parents) << tag;
  EXPECT_EQ(a.subtree_nodes, b.subtree_nodes) << tag;
  EXPECT_EQ(a.child_offsets, b.child_offsets) << tag;
  EXPECT_EQ(a.children, b.children) << tag;
  EXPECT_EQ(a.vertex_offsets, b.vertex_offsets) << tag;
  EXPECT_EQ(a.vertices, b.vertices) << tag;
  EXPECT_EQ(a.tid, b.tid) << tag;
  EXPECT_EQ(a.desc_level_order, b.desc_level_order) << tag;
  EXPECT_EQ(a.level_group_offsets, b.level_group_offsets) << tag;
  EXPECT_EQ(a.roots, b.roots) << tag;
  EXPECT_TRUE(HcdEquals(read_loaded, mapped)) << tag;

  const std::string resaved = path + ".resaved";
  ASSERT_TRUE(SaveFlatIndex(mapped, resaved).ok()) << tag;
  EXPECT_EQ(ReadAll(path), ReadAll(resaved)) << tag;
  std::remove(resaved.c_str());
  std::remove(path.c_str());
}

class MappedSnapshotSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(MappedSnapshotSuite, MapBitIdenticalToReadForEveryKind) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  ExpectMapMatchesRead(Freeze(NaiveHcdBuild(g, cd)),
                       std::string(GetParam().name) + "_core");
  ExpectMapMatchesRead(FreezeTrussOf(g),
                       std::string(GetParam().name) + "_truss");
  ExpectMapMatchesRead(FreezeNucleusOf(g),
                       std::string(GetParam().name) + "_nucleus");
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, MappedSnapshotSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return std::string(info.param.name);
    });

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
