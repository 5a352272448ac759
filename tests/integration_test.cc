#include <gtest/gtest.h>

#include <utility>

#include "core/core_decomposition.h"
#include "core/naive.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
#include "hcd/serialize.h"
#include "hcd/validate.h"
#include "parallel/omp_utils.h"
#include "search/bks.h"
#include "search/densest.h"
#include "search/pbks.h"
#include "search/search_index.h"

namespace hcd {
namespace {

/// End-to-end: the parallel pipeline (PKC -> PHCD -> PBKS) and the serial
/// pipeline (BZ -> LCPS -> BKS) must produce identical decompositions,
/// hierarchies and scores on nontrivial graphs.
TEST(Integration, ParallelAndSerialPipelinesAgree) {
  struct Case {
    const char* name;
    Graph graph;
  };
  std::vector<Case> cases;
  cases.push_back({"ba_large", BarabasiAlbert(3000, 5, 101)});
  cases.push_back({"rmat_large", RMatGraph500(12, 30000, 102)});
  cases.push_back({"gnm_large", ErdosRenyiGnm(2000, 12000, 103)});
  cases.push_back(
      {"planted_large", PlantedHierarchy(BranchingSpec(3, 15, 3, 3, 12), 104)});

  for (auto& tc : cases) {
    SCOPED_TRACE(tc.name);
    const Graph& g = tc.graph;

    CoreDecomposition serial_cd = BzCoreDecomposition(g);
    CoreDecomposition parallel_cd = PkcCoreDecomposition(g);
    ASSERT_EQ(serial_cd.coreness, parallel_cd.coreness);

    const HcdForest serial_f = LcpsBuild(g, serial_cd);
    const HcdForest parallel_f = PhcdBuild(g, parallel_cd);
    const FlatHcdIndex serial_i = Freeze(serial_f);
    const FlatHcdIndex parallel_i = Freeze(parallel_f);
    ASSERT_TRUE(ValidateHcd(g, serial_cd, serial_i).ok());
    ASSERT_TRUE(ValidateHcd(g, parallel_cd, parallel_i).ok());
    ASSERT_TRUE(HcdEquals(serial_f, parallel_i));
    ASSERT_TRUE(HcdEquals(serial_i, parallel_i));

    for (Metric metric : kAllMetrics) {
      SCOPED_TRACE(MetricName(metric));
      SearchResult pbks = PbksSearch(g, parallel_cd, parallel_i, metric);
      SearchResult bks = BksSearch(g, serial_cd, serial_i, metric);
      ASSERT_EQ(pbks.scores.size(), bks.scores.size());
      for (size_t i = 0; i < pbks.scores.size(); ++i) {
        // Node ids coincide because the frozen indexes are structurally
        // equal and preorder numbering is deterministic; compare via scores
        // of the node holding the same representative vertex to stay robust.
        VertexId rep = parallel_i.Vertices(static_cast<TreeNodeId>(i)).front();
        TreeNodeId in_serial = serial_i.Tid(rep);
        EXPECT_NEAR(pbks.scores[i], bks.scores[in_serial], 1e-9);
      }
      EXPECT_NEAR(pbks.best_score, bks.best_score, 1e-9);
    }
  }
}

TEST(Integration, PipelineUnderVaryingThreads) {
  Graph g = BarabasiAlbert(1500, 4, 7);
  CoreDecomposition base_cd = PkcCoreDecomposition(g);
  const FlatHcdIndex base_i = Freeze(PhcdBuild(g, base_cd));
  SearchResult base_r = PbksSearch(g, base_cd, base_i, Metric::kModularity);
  for (int threads : {1, 3, 8}) {
    ThreadCountGuard guard(threads);
    CoreDecomposition cd = PkcCoreDecomposition(g);
    EXPECT_EQ(cd.coreness, base_cd.coreness);
    const HcdForest f = PhcdBuild(g, cd);
    EXPECT_TRUE(HcdEquals(f, base_i));
    const FlatHcdIndex flat = Freeze(f);
    EXPECT_TRUE(HcdEquals(flat, base_i));
    SearchResult r = PbksSearch(g, cd, flat, Metric::kModularity);
    EXPECT_EQ(r.scores, base_r.scores);
  }
}

TEST(Integration, SaveLoadSearchRoundTrip) {
  Graph g = RMatGraph500(10, 8000, 55);
  CoreDecomposition cd = PkcCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(PhcdBuild(g, cd));
  const std::string path = ::testing::TempDir() + "/integration_forest.bin";
  ASSERT_TRUE(SaveFlatIndex(flat, path).ok());
  FlatHcdIndex loaded;
  ASSERT_TRUE(MapFlatIndex(path, &loaded).ok());
  SearchResult a = PbksSearch(g, cd, flat, Metric::kAverageDegree);
  SearchResult b = PbksSearch(g, cd, loaded, Metric::kAverageDegree);
  EXPECT_EQ(a.scores, b.scores);
  std::remove(path.c_str());
}

TEST(Integration, DensestPipelineOnSkewedGraph) {
  Graph g = BarabasiAlbert(2000, 6, 99);
  CoreDecomposition cd = PkcCoreDecomposition(g);
  const FlatHcdIndex flat = Freeze(PhcdBuild(g, cd));
  DenseSubgraph pbks = PbksDensest(g, cd, flat);
  DenseSubgraph coreapp = CoreAppDensest(g, cd);
  EXPECT_GE(pbks.average_degree, coreapp.average_degree - 1e-9);
  EXPECT_GE(pbks.average_degree, static_cast<double>(cd.k_max) - 1e-9);
  EXPECT_FALSE(pbks.vertices.empty());
}

}  // namespace
}  // namespace hcd
