#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>

#include "common/trace.h"
#include "core/core_decomposition.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/naive_hcd.h"
#include "hcd/serialize.h"
#include "parallel/omp_utils.h"
#include "search/best_k.h"
#include "search/bks.h"
#include "search/brute.h"
#include "search/pbks.h"
#include "search/search_index.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

struct Pipeline {
  Graph graph;
  CoreDecomposition cd;
  FlatHcdIndex flat;
};

Pipeline Build(const Graph& g) {
  Pipeline p;
  p.graph = g;
  p.cd = BzCoreDecomposition(p.graph);
  p.flat = Freeze(NaiveHcdBuild(p.graph, p.cd));
  return p;
}

/// `p.flat` with its search tables built from the graph.
std::shared_ptr<const FlatHcdIndex> Tabled(const Pipeline& p) {
  return BuildSearchTables(p.graph, p.cd,
                           std::make_shared<const FlatHcdIndex>(p.flat));
}

void ExpectPrimaryEqual(std::span<const PrimaryValues> got,
                        const std::vector<PrimaryValues>& want, bool type_b) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    if (type_b) {
      EXPECT_EQ(got[i].n_s, want[i].n_s);
      EXPECT_EQ(got[i].triangles, want[i].triangles);
      EXPECT_EQ(got[i].triplets, want[i].triplets);
    } else {
      EXPECT_EQ(got[i].n_s, want[i].n_s);
      EXPECT_EQ(got[i].edges2, want[i].edges2);
      EXPECT_EQ(got[i].boundary, want[i].boundary);
    }
  }
}

class PbksSuite : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(PbksSuite, TypeAPrimaryMatchesBruteForce) {
  Pipeline p = Build(GetParam().graph);
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  ExpectPrimaryEqual(PbksTypeAPrimary(p.graph, p.cd, p.flat, pre),
                     BruteNodePrimaryValues(p.graph, p.flat),
                     /*type_b=*/false);
}

// The Definition 4 rank and the orientation rank: the type-B tallies must
// not depend on which coreness-major order orients the triangle pass.
std::vector<VertexRank> BothRanks(const Pipeline& p) {
  std::vector<VertexRank> ranks;
  ranks.push_back(ComputeVertexRank(p.cd));
  ranks.push_back(ComputeOrientationRank(p.graph, p.cd));
  return ranks;
}

TEST_P(PbksSuite, TypeBPrimaryMatchesBruteForce) {
  Pipeline p = Build(GetParam().graph);
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  const auto want = BruteNodePrimaryValues(p.graph, p.flat);
  for (const VertexRank& vr : BothRanks(p)) {
    ExpectPrimaryEqual(PbksTypeBPrimary(p.graph, p.cd, p.flat, vr, pre), want,
                       /*type_b=*/true);
  }
}

TEST_P(PbksSuite, BksPrimaryMatchesBruteForce) {
  Pipeline p = Build(GetParam().graph);
  const auto index = BuildBksIndex(p.graph, p.cd);
  const auto want = BruteNodePrimaryValues(p.graph, p.flat);
  for (const VertexRank& vr : BothRanks(p)) {
    ExpectPrimaryEqual(BksTypeAPrimary(p.graph, p.cd, p.flat, index, vr),
                       want, /*type_b=*/false);
    ExpectPrimaryEqual(BksTypeBPrimary(p.graph, p.cd, p.flat, index, vr),
                       want, /*type_b=*/true);
  }
}

TEST_P(PbksSuite, PbksAndBksAgreeOnEveryMetric) {
  Pipeline p = Build(GetParam().graph);
  for (Metric metric : kAllMetrics) {
    SCOPED_TRACE(MetricName(metric));
    SearchResult pbks = PbksSearch(p.graph, p.cd, p.flat, metric);
    SearchResult bks = BksSearch(p.graph, p.cd, p.flat, metric);
    ASSERT_EQ(pbks.scores.size(), bks.scores.size());
    for (size_t i = 0; i < pbks.scores.size(); ++i) {
      EXPECT_NEAR(pbks.scores[i], bks.scores[i], 1e-9) << "node " << i;
    }
    EXPECT_NEAR(pbks.best_score, bks.best_score, 1e-9);
  }
}

// Triangle density divides Delta(S) by the C(n(S), 3) vertex triples, so
// it is the one type-B score that also needs n(S) in the type-B table.
TEST_P(PbksSuite, TriangleDensityMatchesBruteForce) {
  Pipeline p = Build(GetParam().graph);
  const GraphGlobals globals{p.graph.NumVertices(), p.graph.NumEdges()};
  const auto want = BruteNodePrimaryValues(p.graph, p.flat);
  const SearchResult pbks =
      PbksSearch(p.graph, p.cd, p.flat, Metric::kTriangleDensity);
  const SearchResult bks =
      BksSearch(p.graph, p.cd, p.flat, Metric::kTriangleDensity);
  ASSERT_EQ(pbks.scores.size(), want.size());
  ASSERT_EQ(bks.scores.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const double expect =
        EvaluateMetric(Metric::kTriangleDensity, want[i], globals);
    EXPECT_EQ(pbks.scores[i], expect) << "node " << i;
    EXPECT_EQ(bks.scores[i], expect) << "node " << i;
  }
}

// The search tables orient type-B by the orientation rank and tally
// type-A per node into one row; the row must equal the one-thread
// Definition 4 rank passes field for field at every thread count.
TEST_P(PbksSuite, SearchIndexTablesMatchDefinition4Rank) {
  Pipeline p = Build(GetParam().graph);
  std::vector<PrimaryValues> want_a;
  std::vector<PrimaryValues> want_b;
  {
    ThreadCountGuard guard(1);
    const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
    want_a = PbksTypeAPrimary(p.graph, p.cd, p.flat, pre);
    want_b = PbksTypeBPrimary(p.graph, p.cd, p.flat, ComputeVertexRank(p.cd),
                              pre);
  }
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadCountGuard guard(threads);
    const auto tabled = Tabled(p);
    const SearchIndex sidx(tabled);
    ExpectPrimaryEqual(sidx.Primary(), want_a, /*type_b=*/false);
    ExpectPrimaryEqual(sidx.Primary(), want_b, /*type_b=*/true);
  }
}

void ExpectRowsEqual(std::span<const PrimaryValues> got,
                     std::span<const PrimaryValues> want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_EQ(got[i].n_s, want[i].n_s);
    EXPECT_EQ(got[i].edges2, want[i].edges2);
    EXPECT_EQ(got[i].boundary, want[i].boundary);
    EXPECT_EQ(got[i].triangles, want[i].triangles);
    EXPECT_EQ(got[i].triplets, want[i].triplets);
  }
}

// The `offset_bytes` arg of the one `pbks.triangles` span `build` records.
template <typename Build>
uint64_t OffsetBytesOf(const Build& build) {
  Tracer tracer;
  tracer.Install();
  build();
  tracer.Uninstall();
  for (const TraceSpanRecord& record : tracer.CollectSpans()) {
    if (record.span.name != "pbks.triangles") continue;
    for (const TraceArg& arg : record.span.args) {
      if (arg.key == "offset_bytes") return arg.value;
    }
  }
  ADD_FAILURE() << "no pbks.triangles span with offset_bytes";
  return 0;
}

// The search-table build reads the adjacency twice: one scan tallies
// type A, the triplets and the oriented out-degrees, and the second fills
// the oriented rows. Its rows must be bit-equal to the separate passes
// (type A from the coreness counts, type B over the orientation rank) and
// to BKS at 1, 2 and 4 threads, and a build forced onto 64-bit row
// offsets must give the same rows as the 32-bit one it picks itself.
TEST_P(PbksSuite, FusedScanMatchesSeparatePassesAndBks) {
  Pipeline p = Build(GetParam().graph);
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  const VertexRank vr = ComputeOrientationRank(p.graph, p.cd);
  std::vector<PrimaryValues> want = PbksTypeAPrimary(p.graph, p.cd, p.flat,
                                                     pre);
  const std::vector<PrimaryValues> type_b =
      PbksTypeBPrimary(p.graph, p.cd, p.flat, vr, pre);
  for (size_t i = 0; i < want.size(); ++i) {
    want[i].triangles = type_b[i].triangles;
    want[i].triplets = type_b[i].triplets;
  }
  const BksIndex bks = BuildBksIndex(p.graph, p.cd);
  std::vector<PrimaryValues> bks_rows =
      BksTypeAPrimary(p.graph, p.cd, p.flat, bks, vr);
  const std::vector<PrimaryValues> bks_b =
      BksTypeBPrimary(p.graph, p.cd, p.flat, bks, vr);
  for (size_t i = 0; i < bks_rows.size(); ++i) {
    bks_rows[i].triangles = bks_b[i].triangles;
    bks_rows[i].triplets = bks_b[i].triplets;
  }
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadCountGuard guard(threads);
    const auto tabled = Tabled(p);
    ExpectRowsEqual(SearchIndex(tabled).Primary(), want);
    ExpectRowsEqual(SearchIndex(tabled).Primary(), bks_rows);
    std::vector<PrimaryValues> narrow;
    std::vector<PrimaryValues> wide;
    EXPECT_EQ(OffsetBytesOf([&] {
                narrow = PbksPrimaryWithOffsets<uint32_t>(p.graph, p.cd,
                                                          p.flat);
              }),
              4u);
    EXPECT_EQ(OffsetBytesOf([&] {
                wide = PbksPrimaryWithOffsets<uint64_t>(p.graph, p.cd, p.flat);
              }),
              8u);
    ExpectRowsEqual(narrow, want);
    ExpectRowsEqual(wide, narrow);
  }
}

// A snapshot with search tables carries them; mapped, they must score
// every node under every metric bit-identically to tables built from the
// graph, and to the one-shot type-A / type-B passes, and answer
// BestAtLeast alike for every k.
TEST_P(PbksSuite, MappedTablesScoreLikeTablesBuiltFromTheGraph) {
  Pipeline p = Build(GetParam().graph);
  const auto built = Tabled(p);
  const std::string path =
      ::testing::TempDir() + "/pbks_tables_" + GetParam().name + ".snap";
  ASSERT_TRUE(SaveFlatIndex(*built, path).ok());
  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
  std::remove(path.c_str());
  ASSERT_TRUE(mapped.HasSearchTables());
  const SearchIndex want(built);
  const SearchIndex got(
      std::make_shared<const FlatHcdIndex>(std::move(mapped)));
  uint32_t top = 0;
  for (TreeNodeId t = 0; t < p.flat.NumNodes(); ++t) {
    top = std::max(top, p.flat.Level(t));
  }
  for (const Metric metric : kAllMetrics) {
    SCOPED_TRACE(MetricName(metric));
    const SearchResult oneshot = PbksSearch(p.graph, p.cd, p.flat, metric);
    for (TreeNodeId t = 0; t < p.flat.NumNodes(); ++t) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got.Score(metric, t)),
                std::bit_cast<uint64_t>(want.Score(metric, t)))
          << "node " << t;
      ASSERT_EQ(std::bit_cast<uint64_t>(got.Score(metric, t)),
                std::bit_cast<uint64_t>(oneshot.scores[t]))
          << "node " << t;
    }
    for (uint32_t k = 0; k <= top + 1; ++k) {
      ASSERT_EQ(got.BestAtLeast(metric, k), want.BestAtLeast(metric, k))
          << "k=" << k;
    }
  }
}

TEST_P(PbksSuite, StableAcrossThreadCounts) {
  Pipeline p = Build(GetParam().graph);
  SearchResult base_a = PbksSearch(p.graph, p.cd, p.flat,
                                   Metric::kConductance);
  SearchResult base_b = PbksSearch(p.graph, p.cd, p.flat,
                                   Metric::kClusteringCoefficient);
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    SearchResult a = PbksSearch(p.graph, p.cd, p.flat, Metric::kConductance);
    SearchResult b =
        PbksSearch(p.graph, p.cd, p.flat, Metric::kClusteringCoefficient);
    EXPECT_EQ(a.scores, base_a.scores);
    EXPECT_EQ(b.scores, base_b.scores);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, PbksSuite, ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

TEST(Pbks, PaperExample2BestAverageDegreeIsS31) {
  // Figure 1 / Example 2: S3.1 has the highest average degree 40/9 ~ 4.44.
  Pipeline p = Build(PaperFigure1Graph());
  SearchResult r = PbksSearch(p.graph, p.cd, p.flat, Metric::kAverageDegree);
  ASSERT_NE(r.best_node, kInvalidNode);
  EXPECT_EQ(p.flat.Level(r.best_node), 3u);
  EXPECT_EQ(p.flat.CoreVertices(r.best_node).size(), 9u);
  EXPECT_NEAR(r.best_score, 40.0 / 9.0, 1e-12);
}

TEST(Pbks, SearchIndexAgreesWithOneShot) {
  Pipeline p = Build(BarabasiAlbert(250, 4, 21));
  const auto tabled = Tabled(p);
  const SearchIndex sidx(tabled);
  for (Metric metric : kAllMetrics) {
    SCOPED_TRACE(MetricName(metric));
    const SearchResult hit =
        ScoreNodes(p.flat, metric, sidx.Primary(), sidx.globals());
    SearchResult oneshot = PbksSearch(p.graph, p.cd, p.flat, metric);
    EXPECT_EQ(hit.scores, oneshot.scores);
    EXPECT_EQ(hit.best_node, oneshot.best_node);
    EXPECT_EQ(hit.best_score, oneshot.best_score);
  }
  // CoreVertices of the best node round-trips through the frozen index.
  const SearchResult hit = ScoreNodes(p.flat, Metric::kAverageDegree,
                                      sidx.Primary(), sidx.globals());
  auto core = p.flat.CoreVertices(hit.best_node);
  EXPECT_EQ(core.size(), p.flat.CoreSize(hit.best_node));
}

TEST(Pbks, WholeGraphScoresMatchDirectComputation) {
  // A connected graph's lowest node accumulates the entire component;
  // verify against globally computed values on a clique.
  Pipeline p = Build(CompleteGraph(8));
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  auto vals = PbksTypeAPrimary(p.graph, p.cd, p.flat, pre);
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_EQ(vals[0].n_s, 8u);
  EXPECT_EQ(vals[0].edges2, 2u * 28u);
  EXPECT_EQ(vals[0].boundary, 0u);
  const auto vr = ComputeVertexRank(p.cd);
  auto valsb = PbksTypeBPrimary(p.graph, p.cd, p.flat, vr, pre);
  EXPECT_EQ(valsb[0].triangles, 56u);  // C(8,3)
  EXPECT_EQ(valsb[0].triplets, 8u * 21u);  // 8 * C(7,2)
}

// The suite graphs have at most 512 vertices, so the triangle pass's dynamic
// schedule (chunks of 16 vertices) hands out at most 32 chunks. This
// hub-heavy graph gives it 1,024, with very uneven out-degrees, and repeated
// runs give the per-vertex atomic updates on shared tree nodes a chance to
// race.
TEST(Pbks, TypeBMatchesBksOnSkewedGraph) {
  const Graph g = RMatGraph500(14, 200'000, 7);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(LcpsBuild(g, cd));
  const auto pre = PreprocessCorenessCounts(g, cd);
  const auto vr = ComputeVertexRank(cd);
  const auto want = BksTypeBPrimary(g, cd, flat, BuildBksIndex(g, cd), vr);
  ASSERT_GT(cd.k_max, 50u);
  ASSERT_TRUE(std::any_of(want.begin(), want.end(), [](const auto& pv) {
    return pv.triangles > 0;
  }));
  for (int threads : {1, 2, 4}) {
    ThreadCountGuard guard(threads);
    for (int rep = 0; rep < 10; ++rep) {
      const auto got = PbksTypeBPrimary(g, cd, flat, vr, pre);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].triangles, want[i].triangles)
            << "node " << i << " threads=" << threads << " rep=" << rep;
        ASSERT_EQ(got[i].triplets, want[i].triplets)
            << "node " << i << " threads=" << threads << " rep=" << rep;
      }
    }
  }
}

// The `key` arg of the `pbks.triangles` span recorded by one
// PbksTypeBPrimary call under `vr`, whose tallies must equal `want`.
uint64_t TriangleSpanArg(const Pipeline& p, const VertexRank& vr,
                         const std::vector<PrimaryValues>& want,
                         const std::string& key) {
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  Tracer tracer;
  tracer.Install();
  ExpectPrimaryEqual(PbksTypeBPrimary(p.graph, p.cd, p.flat, vr, pre), want,
                     /*type_b=*/true);
  tracer.Uninstall();
  for (const TraceSpanRecord& record : tracer.CollectSpans()) {
    if (record.span.name != "pbks.triangles") continue;
    for (const TraceArg& arg : record.span.args) {
      if (arg.key == key) return arg.value;
    }
  }
  ADD_FAILURE() << "no pbks.triangles span with " << key;
  return 0;
}

// A windmill: kBlades triangles sharing the hub, vertex 0, and every
// vertex at coreness 2. Definition 4 ranks the hub first, so all its
// 2 * kBlades edges leave it; the orientation rank ranks it last, so no
// vertex keeps more than two out-edges. The tallies do not change.
TEST(Pbks, OrientationRankBoundsTheWindmillHub) {
  constexpr VertexId kBlades = 200;
  GraphBuilder b;
  for (VertexId i = 0; i < kBlades; ++i) {
    b.AddEdge(0, 2 * i + 1);
    b.AddEdge(0, 2 * i + 2);
    b.AddEdge(2 * i + 1, 2 * i + 2);
  }
  const Pipeline p = Build(std::move(b).Build(2 * kBlades + 1));
  ASSERT_TRUE(std::all_of(p.cd.coreness.begin(), p.cd.coreness.end(),
                          [](uint32_t c) { return c == 2; }));
  const auto want = BruteNodePrimaryValues(p.graph, p.flat);
  ASSERT_EQ(want.size(), 1u);
  EXPECT_EQ(want[0].triangles, kBlades);
  const std::vector<VertexRank> ranks = BothRanks(p);
  for (const VertexRank& vr : ranks) {
    ExpectPrimaryEqual(BksTypeBPrimary(p.graph, p.cd, p.flat,
                                       BuildBksIndex(p.graph, p.cd), vr),
                       want, /*type_b=*/true);
  }
  EXPECT_EQ(TriangleSpanArg(p, ranks[0], want, "max_out_degree"),
            2 * kBlades);
  EXPECT_LE(TriangleSpanArg(p, ranks[1], want, "max_out_degree"), 2u);
}

// PBKS = BKS = brute on the type-B fields under both ranks at 1, 2 and 4
// threads. Returns the `dense_vertices` of the orientation-rank pass.
uint64_t ExpectTypeBMatchesOracles(const Pipeline& p) {
  const auto want = BruteNodePrimaryValues(p.graph, p.flat);
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  const BksIndex bks = BuildBksIndex(p.graph, p.cd);
  const std::vector<VertexRank> ranks = BothRanks(p);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadCountGuard guard(threads);
    for (const VertexRank& vr : ranks) {
      ExpectPrimaryEqual(PbksTypeBPrimary(p.graph, p.cd, p.flat, vr, pre),
                         want, /*type_b=*/true);
      ExpectPrimaryEqual(BksTypeBPrimary(p.graph, p.cd, p.flat, bks, vr), want,
                         /*type_b=*/true);
    }
  }
  return TriangleSpanArg(p, ranks[1], want, "dense_vertices");
}

// K_t on vertices 0..t-1 (t > 5) and a cycle of 8t + 64 fringe vertices,
// each also joined to two clique vertices. Every fringe vertex has degree
// and coreness 4 and closes a triangle with its two clique neighbours, and
// more where cycle neighbours share a clique vertex; the clique is the top
// shell. The fringe is too sparse to join the dense suffix, so the suffix
// is exactly the clique.
Graph CliqueWithFringe(VertexId t) {
  const VertexId ring = 8 * t + 64;
  GraphBuilder b;
  for (VertexId u = 0; u < t; ++u) {
    for (VertexId v = u + 1; v < t; ++v) b.AddEdge(u, v);
  }
  for (VertexId i = 0; i < ring; ++i) {
    const VertexId a = i % t;
    b.AddEdge(t + i, a);
    b.AddEdge(t + i, (a + 1 + i % (t - 1)) % t);
    b.AddEdge(t + i, t + (i + 1) % ring);
  }
  return std::move(b).Build(t + ring);
}

// Dense suffixes of 2, 63, 64, 65 and 128 bit rows: one word short, one
// full word, one bit into a second word, two full words.
TEST(Pbks, DenseSuffixAtWordEdges) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  const Pipeline edge = Build(std::move(b).Build(18));  // K_2 + 16 isolated
  EXPECT_EQ(ExpectTypeBMatchesOracles(edge), 2u);
  for (VertexId t : {63u, 64u, 65u, 128u}) {
    SCOPED_TRACE("t=" + std::to_string(t));
    const Pipeline p = Build(CliqueWithFringe(t));
    ASSERT_EQ(p.cd.k_max, t - 1);
    EXPECT_EQ(ExpectTypeBMatchesOracles(p), t);
  }
}

TEST(Pbks, CliqueIsDenseThroughout) {
  const Pipeline p = Build(CompleteGraph(100));
  EXPECT_EQ(ExpectTypeBMatchesOracles(p), 100u);
  EXPECT_EQ(BruteNodePrimaryValues(p.graph, p.flat)[0].triangles,
            100u * 99u * 98u / 6u);
}

TEST(Pbks, PathHasNoDenseSuffix) {
  EXPECT_EQ(ExpectTypeBMatchesOracles(Build(PathGraph(200))), 0u);
}

// RMAT scale 12 with a 150-clique planted on vertices spread over the id
// range: the clique is the top shell, and the suffix reaches part of the
// way down the RMAT shells.
Graph RMatWithPlantedClique() {
  constexpr VertexId kClique = 150;
  const Graph rmat = RMatGraph500(12, 16'000, 3);
  GraphBuilder b;
  b.AddEdges(rmat.Edges());
  for (VertexId i = 0; i < kClique; ++i) {
    for (VertexId j = i + 1; j < kClique; ++j) {
      b.AddEdge(i * 27 % rmat.NumVertices(), j * 27 % rmat.NumVertices());
    }
  }
  return std::move(b).Build(rmat.NumVertices());
}

// The dense suffix is the largest suffix of whole shells whose T rows and
// E internal edges satisfy T^2 <= 32 E.
TEST(Pbks, PlantedCliqueGivesAPartialDenseSuffix) {
  const Pipeline p = Build(RMatWithPlantedClique());
  ASSERT_EQ(p.cd.k_max, 149u);
  const uint64_t dense = ExpectTypeBMatchesOracles(p);
  EXPECT_GT(dense, 0u);
  EXPECT_LT(dense, p.graph.NumVertices());
  const VertexId n = p.graph.NumVertices();
  const VertexRank vr = ComputeOrientationRank(p.graph, p.cd);
  const auto fits = [&](VertexId begin) {
    uint64_t edges = 0;
    for (const auto& [u, v] : p.graph.Edges()) {
      edges += vr.rank[u] >= begin && vr.rank[v] >= begin;
    }
    return uint64_t{n - begin} * (n - begin) <= 32 * edges;
  };
  const VertexId begin = n - static_cast<VertexId>(dense);
  ASSERT_NE(std::find(vr.shell_start.begin(), vr.shell_start.end(), begin),
            vr.shell_start.end());
  EXPECT_TRUE(fits(begin));
  for (VertexId s : vr.shell_start) {
    if (s < begin) {
      EXPECT_FALSE(fits(s)) << "shell start " << s;
    }
  }
}

TEST(Pbks, PlantedCliqueBestKMatchesBruteForce) {
  const Graph g = RMatWithPlantedClique();
  const CoreDecomposition cd = BzCoreDecomposition(g);
  // K_k = {v : c(v) >= k}; the levels above the RMAT shells all hold
  // just the clique, so a repeated member count reuses the last oracle.
  std::vector<PrimaryValues> want(cd.k_max + 1);
  size_t last_size = 0;
  for (uint32_t k = 0; k <= cd.k_max; ++k) {
    std::vector<VertexId> members;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (cd.coreness[v] >= k) members.push_back(v);
    }
    want[k] = k > 0 && members.size() == last_size
                  ? want[k - 1]
                  : BrutePrimaryValues(g, members);
    last_size = members.size();
  }
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadCountGuard guard(threads);
    const BestKResult r = FindBestK(g, cd, Metric::kClusteringCoefficient);
    ASSERT_EQ(r.per_k.size(), want.size());
    for (uint32_t k = 0; k <= cd.k_max; ++k) {
      SCOPED_TRACE("k=" + std::to_string(k));
      EXPECT_EQ(r.per_k[k].n_s, want[k].n_s);
      EXPECT_EQ(r.per_k[k].edges2, want[k].edges2);
      EXPECT_EQ(r.per_k[k].boundary, want[k].boundary);
      EXPECT_EQ(r.per_k[k].triangles, want[k].triangles);
      EXPECT_EQ(r.per_k[k].triplets, want[k].triplets);
    }
  }
}

TEST(Preprocess, CountsAreExact) {
  Pipeline p = Build(PaperFigure1Graph());
  const auto pre = PreprocessCorenessCounts(p.graph, p.cd);
  for (VertexId v = 0; v < p.graph.NumVertices(); ++v) {
    VertexId gt = 0;
    VertexId eq = 0;
    for (VertexId u : p.graph.Neighbors(v)) {
      gt += p.cd.coreness[u] > p.cd.coreness[v];
      eq += p.cd.coreness[u] == p.cd.coreness[v];
    }
    EXPECT_EQ(pre.greater[v], gt);
    EXPECT_EQ(pre.equal[v], eq);
    EXPECT_EQ(pre.Less(p.graph, v), p.graph.Degree(v) - gt - eq);
  }
}

TEST(Bks, SortedAdjacencyIsCorenessDescending) {
  Pipeline p = Build(BarabasiAlbert(150, 3, 2));
  BksIndex index = BuildBksIndex(p.graph, p.cd);
  for (VertexId v = 0; v < p.graph.NumVertices(); ++v) {
    auto base = p.graph.AdjOffset(v);
    for (VertexId j = 0; j + 1 < p.graph.Degree(v); ++j) {
      EXPECT_GE(p.cd.coreness[index.sorted_adj[base + j]],
                p.cd.coreness[index.sorted_adj[base + j + 1]]);
    }
  }
}

}  // namespace
}  // namespace hcd
