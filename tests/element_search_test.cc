// Freeze/serve equivalence for the element domains: the search tables of
// a truss or nucleus index, read through SearchIndex and CommunityOf, must
// be bit-identical node for node to the builder-forest oracles
// (TrussCommunityOf, NucleusCommunityOf, DensestTruss) on every suite
// graph, the level queries ExecuteQuery answers from the per-level table
// must match a naive scan whatever the metric, and the whole index must
// stay bit-stable under concurrent readers (the TSan job's target).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/nucleus_hierarchy.h"
#include "nucleus/triangle_index.h"
#include "search/search_index.h"
#include "server/server.h"
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

/// Builder-side and frozen-side truss artifacts over one graph; the frozen
/// index carries its search tables.
struct TrussFixture {
  EdgeIndexer index;
  TrussForest forest;
  std::shared_ptr<const FlatHcdIndex> flat;
};

TrussFixture MakeTruss(const Graph& g) {
  TrussFixture fx;
  fx.index = BuildEdgeIndexer(g);
  TrussDecomposition td = PeelTrussDecomposition(g, fx.index);
  fx.forest = BuildTrussHierarchy(g, fx.index, td);
  fx.flat = BuildElementSearchTables(
      std::make_shared<const FlatHcdIndex>(
          FreezeTruss(g, fx.index, fx.forest)),
      g.NumEdges());
  return fx;
}

struct NucleusFixture {
  EdgeIndexer eidx;
  TriangleIndexer tidx;
  NucleusForest forest;
  std::shared_ptr<const FlatHcdIndex> flat;
};

NucleusFixture MakeNucleus(const Graph& g) {
  NucleusFixture fx;
  fx.eidx = BuildEdgeIndexer(g);
  fx.tidx = BuildTriangleIndexer(g, fx.eidx);
  NucleusDecomposition nd = PeelNucleusDecomposition(g, fx.eidx, fx.tidx);
  fx.forest = BuildNucleusHierarchy(g, fx.eidx, fx.tidx, nd);
  fx.flat = BuildElementSearchTables(
      std::make_shared<const FlatHcdIndex>(
          FreezeNucleus(g, fx.tidx, fx.forest)),
      g.NumEdges());
  return fx;
}

/// A builder oracle's community in kind-neutral form.
struct OracleCommunity {
  std::vector<VertexId> vertices;
  uint64_t elements = 0;
  double density = 0.0;
};

OracleCommunity TrussOracle(const TrussFixture& fx, TreeNodeId ft) {
  const TrussCommunity c = TrussCommunityOf(fx.index, fx.forest, ft);
  return {c.vertices, c.num_edges, c.AverageDegree()};
}

OracleCommunity NucleusOracle(const NucleusFixture& fx, TreeNodeId ft) {
  const NucleusCommunity c = NucleusCommunityOf(fx.tidx, fx.forest, ft);
  return {c.vertices, c.num_triangles, c.Density()};
}

/// A truss or nucleus node's score: its community's density, whatever the
/// metric.
constexpr Metric kDensity = Metric::kAverageDegree;

/// Every node of `index` against `oracle` on its builder counterpart: the
/// same elements, member vertices (CommunityOf, the row's n_s) and element
/// count (CoreSize), and a bit-identical density.
template <typename Oracle>
void ExpectNodesMatchBuilderOracle(const SearchIndex& index,
                                   const HcdForest& forest, Oracle oracle) {
  const FlatHcdIndex& flat = index.flat();
  ASSERT_EQ(flat.NumNodes(), forest.NumNodes());
  SearchWorkspace ws;  // reused across nodes: exercises epoch stamping
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    // Map the frozen node to its builder counterpart through a shared
    // element: preorder renumbers nodes, so ids do not line up directly.
    ASSERT_FALSE(flat.Vertices(t).empty());
    const TreeNodeId ft = forest.Tid(flat.Vertices(t).front());
    ASSERT_NE(ft, kInvalidNode);
    ASSERT_EQ(Sorted(flat.CoreVertices(t)), CoreVertices(forest, ft));

    const OracleCommunity want = oracle(ft);
    std::vector<VertexId> got;
    CommunityOf(flat, t, &ws, &got);
    EXPECT_EQ(got, want.vertices) << "node " << t;
    EXPECT_EQ(index.Primary()[t].n_s, want.vertices.size());
    EXPECT_EQ(flat.CoreSize(t), want.elements);
    EXPECT_EQ(std::bit_cast<uint64_t>(index.Score(kDensity, t)),
              std::bit_cast<uint64_t>(want.density))
        << "node " << t;
  }
}

class ElementSearchSuite
    : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(ElementSearchSuite, TrussIndexMatchesBuilderOracle) {
  const TrussFixture fx = MakeTruss(GetParam().graph);
  const SearchIndex index(fx.flat);
  EXPECT_EQ(index.flat().kind(), HierarchyKind::kTruss);
  ExpectNodesMatchBuilderOracle(
      index, fx.forest, [&](TreeNodeId ft) { return TrussOracle(fx, ft); });
}

TEST_P(ElementSearchSuite, DensestTrussMatchesBuilderOracle) {
  const TrussFixture fx = MakeTruss(GetParam().graph);
  const SearchIndex index(fx.flat);
  const FlatHcdIndex& flat = *fx.flat;
  const TreeNodeId best = index.BestAtLeast(kDensity, 0);
  const DensestTrussResult oracle = DensestTruss(fx.index, fx.forest);
  ASSERT_EQ(best == kInvalidNode, oracle.node == kInvalidNode);
  if (best == kInvalidNode) return;

  // The frozen node holding the oracle winner's own edges.
  EdgeIdx edge = 0;
  while (fx.forest.Tid(edge) != oracle.node) ++edge;
  const TreeNodeId mapped = flat.Tid(edge);
  EXPECT_EQ(flat.Level(mapped), oracle.level);
  // Equal-density ties are common (disjoint copies of one shape). The
  // oracle takes the first builder node and the index the first preorder
  // node (LevelQueriesMatchNaiveScan pins that order), so the oracle's
  // winner must tie the index's, which precedes it.
  EXPECT_EQ(std::bit_cast<uint64_t>(index.Score(kDensity, best)),
            std::bit_cast<uint64_t>(oracle.community.AverageDegree()));
  EXPECT_EQ(index.Score(kDensity, mapped), index.Score(kDensity, best));
  EXPECT_LE(best, mapped);
}

/// Every k in [0, max level + 1]: ExecuteQuery's level answer must be the
/// naive scan's densest node of level >= k (first node wins ties), with a
/// bit-identical score.
void ExpectLevelQueriesMatchNaiveScan(const SearchIndex& index) {
  const FlatHcdIndex& flat = index.flat();
  uint32_t max_level = 0;
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    max_level = std::max(max_level, flat.Level(t));
  }
  server::QueryRequest request;
  request.hierarchy = flat.kind();
  for (uint32_t k = 0; k <= max_level + 1; ++k) {
    // Naive reference: best density among nodes of level >= k, first node
    // winning ties.
    TreeNodeId expect = kInvalidNode;
    for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
      if (flat.Level(t) < k) continue;
      if (expect == kInvalidNode ||
          index.Score(kDensity, t) > index.Score(kDensity, expect)) {
        expect = t;
      }
    }
    request.k = k;
    const server::QueryOutcome got =
        server::ExecuteQuery(nullptr, &index, 0, request);
    ASSERT_EQ(got.found, expect != kInvalidNode) << "k=" << k;
    if (got.found) {
      EXPECT_EQ(got.node, expect) << "k=" << k;
      EXPECT_EQ(std::bit_cast<uint64_t>(got.score),
                std::bit_cast<uint64_t>(index.Score(kDensity, expect)))
          << "k=" << k;
      EXPECT_EQ(got.level, flat.Level(expect));
      EXPECT_EQ(got.core_size, flat.CoreSize(expect));
    }
  }
}

TEST_P(ElementSearchSuite, LevelQueriesMatchNaiveScan) {
  const Graph& g = GetParam().graph;
  ExpectLevelQueriesMatchNaiveScan(SearchIndex(MakeTruss(g).flat));
  ExpectLevelQueriesMatchNaiveScan(SearchIndex(MakeNucleus(g).flat));
}

// The wire's metric byte runs over every metric, and an element index has
// one table: every metric must give the same node and score, at every
// level, for global, level and element-set requests alike.
TEST_P(ElementSearchSuite, EveryMetricGivesTheSameAnswer) {
  const Graph& g = GetParam().graph;
  for (const std::shared_ptr<const FlatHcdIndex>& flat :
       {MakeTruss(g).flat, MakeNucleus(g).flat}) {
    SCOPED_TRACE(HierarchyKindName(flat->kind()));
    const SearchIndex index(flat);
    uint32_t max_level = 0;
    for (TreeNodeId t = 0; t < flat->NumNodes(); ++t) {
      max_level = std::max(max_level, flat->Level(t));
    }
    server::QueryRequest request;
    request.hierarchy = flat->kind();
    for (uint32_t k = 0; k <= max_level + 1; ++k) {
      for (const bool by_element : {false, true}) {
        request.k = k;
        request.vertices.clear();
        if (by_element && flat->NumElements() > 0) request.vertices = {0};
        request.metric = kAllMetrics[0];
        const server::QueryOutcome want =
            server::ExecuteQuery(nullptr, &index, 0, request);
        for (const Metric metric : kAllMetrics) {
          request.metric = metric;
          const server::QueryOutcome got =
              server::ExecuteQuery(nullptr, &index, 0, request);
          EXPECT_EQ(got.found, want.found) << MetricName(metric) << " k=" << k;
          EXPECT_EQ(got.node, want.node) << MetricName(metric) << " k=" << k;
          EXPECT_EQ(std::bit_cast<uint64_t>(got.score),
                    std::bit_cast<uint64_t>(want.score))
              << MetricName(metric) << " k=" << k;
          EXPECT_EQ(index.BestAtLeast(metric, k),
                    index.BestAtLeast(kAllMetrics[0], k));
        }
      }
    }
  }
}

TEST_P(ElementSearchSuite, NucleusIndexMatchesBuilderOracle) {
  const NucleusFixture fx = MakeNucleus(GetParam().graph);
  const SearchIndex index(fx.flat);
  EXPECT_EQ(index.flat().kind(), HierarchyKind::kNucleus);
  ExpectNodesMatchBuilderOracle(
      index, fx.forest, [&](TreeNodeId ft) { return NucleusOracle(fx, ft); });
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, ElementSearchSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(ElementSearch, CommunityOfAppendsAfterExistingContent) {
  Graph g = RingOfCliques(4, 5);
  const TrussFixture fx = MakeTruss(g);
  ASSERT_GT(fx.flat->NumNodes(), 0u);

  SearchWorkspace ws;
  std::vector<VertexId> out = {777, 3};
  CommunityOf(*fx.flat, 0, &ws, &out);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], 777u);  // pre-existing prefix untouched
  EXPECT_EQ(out[1], 3u);
  EXPECT_TRUE(std::is_sorted(out.begin() + 2, out.end()));
  EXPECT_EQ(out.size() - 2, fx.flat->Primaries()[0].n_s);
}

TEST(ElementSearch, EmptyHierarchyAnswersNotFound) {
  // An edgeless graph has no edges, so its truss forest has no nodes.
  const TrussFixture empty = MakeTruss(Graph());
  const SearchIndex index(empty.flat);
  EXPECT_EQ(index.BestAtLeast(kDensity, 0), kInvalidNode);
  EXPECT_EQ(index.BestAtLeast(kDensity, 3), kInvalidNode);
  server::QueryRequest request;
  request.hierarchy = HierarchyKind::kTruss;
  EXPECT_FALSE(server::ExecuteQuery(nullptr, &index, 0, request).found);
  SearchWorkspace ws;
  std::vector<VertexId> out;
  CommunityOf(*empty.flat, kInvalidNode, &ws, &out);
  EXPECT_TRUE(out.empty());
}

// Sweep: randomized graphs, frozen truss serve vs builder oracle end to
// end (the randomized half of the freeze/serve equivalence requirement).
TEST(ElementSearch, RandomizedSweepMatchesOracles) {
  for (const uint64_t seed : testing::SweepSeeds()) {
    SCOPED_TRACE(seed);
    const TrussFixture fx = MakeTruss(ErdosRenyiGnm(160, 900, seed));
    ExpectNodesMatchBuilderOracle(
        SearchIndex(fx.flat), fx.forest,
        [&](TreeNodeId ft) { return TrussOracle(fx, ft); });
  }
}

// Concurrent readers: many threads over one const index, each with its own
// workspace, every answer bit-identical to the serial baseline. This is
// the test the TSan job runs to certify the QuerySnapshot-grade contract.
TEST(ElementSearch, ConcurrentReadersBitIdentical) {
  Graph g = BarabasiAlbert(500, 6, 77);
  const TrussFixture fx = MakeTruss(g);
  const SearchIndex index(fx.flat);
  const FlatHcdIndex& flat = *fx.flat;
  const TreeNodeId num_nodes = flat.NumNodes();
  ASSERT_GT(num_nodes, 0u);

  constexpr int kQueries = 256;
  struct Answer {
    server::QueryOutcome outcome;
    std::vector<VertexId> community;
  };
  auto run_query = [&](int q, SearchWorkspace* ws) {
    Answer a;
    server::QueryRequest request;
    request.hierarchy = HierarchyKind::kTruss;
    if (q % 2 == 0) {
      request.k = static_cast<uint32_t>(q) % 8;
      a.outcome = server::ExecuteQuery(nullptr, &index, 0, request);
      CommunityOf(flat, a.outcome.node, ws, &a.community);
    } else {
      const TreeNodeId t =
          static_cast<TreeNodeId>((uint64_t{2654435761u} * q) % num_nodes);
      CommunityOf(flat, t, ws, &a.community);
    }
    return a;
  };

  std::vector<Answer> baseline(kQueries);
  {
    SearchWorkspace ws;
    for (int q = 0; q < kQueries; ++q) baseline[q] = run_query(q, &ws);
  }

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      SearchWorkspace ws;
      for (int q = i; q < kQueries; ++q) {  // staggered start per thread
        const Answer a = run_query(q, &ws);
        const Answer& b = baseline[q];
        const bool same =
            a.outcome.found == b.outcome.found &&
            a.outcome.node == b.outcome.node &&
            a.outcome.level == b.outcome.level &&
            a.outcome.core_size == b.outcome.core_size &&
            a.outcome.score == b.outcome.score && a.community == b.community;
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace hcd
