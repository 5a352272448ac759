#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "core/core_decomposition.h"
#include "hcd/vertex_rank.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

void CheckVertexRank(const CoreDecomposition& cd, const VertexRank& vr) {
  const VertexId n = static_cast<VertexId>(cd.coreness.size());
  ASSERT_EQ(vr.sorted.size(), n);
  ASSERT_EQ(vr.rank.size(), n);
  ASSERT_EQ(vr.shell_start.size(), cd.k_max + 2);
  // sorted is a permutation ordered by (coreness, id); rank is its inverse.
  std::vector<bool> seen(n, false);
  for (VertexId i = 0; i < n; ++i) {
    VertexId v = vr.sorted[i];
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
    EXPECT_EQ(vr.rank[v], i);
    if (i > 0) {
      VertexId prev = vr.sorted[i - 1];
      bool ordered = cd.coreness[prev] < cd.coreness[v] ||
                     (cd.coreness[prev] == cd.coreness[v] && prev < v);
      EXPECT_TRUE(ordered) << "position " << i;
    }
  }
  // Shell slices contain exactly the vertices of that coreness.
  for (uint32_t k = 0; k <= cd.k_max; ++k) {
    for (VertexId v : vr.Shell(k)) EXPECT_EQ(cd.coreness[v], k);
  }
  EXPECT_EQ(vr.shell_start.back(), n);
}

class VertexRankSuite : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(VertexRankSuite, CorrectOnSuite) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  CheckVertexRank(cd, ComputeVertexRank(cd));
}

TEST_P(VertexRankSuite, IdenticalAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  CoreDecomposition cd = BzCoreDecomposition(g);
  VertexRank base = ComputeVertexRank(cd);
  for (int threads : {1, 2, 4, 7}) {
    ThreadCountGuard guard(threads);
    VertexRank vr = ComputeVertexRank(cd);
    EXPECT_EQ(vr.sorted, base.sorted) << "threads=" << threads;
    EXPECT_EQ(vr.rank, base.rank);
    EXPECT_EQ(vr.shell_start, base.shell_start);
  }
}

// The orientation rank is a permutation ordered by coreness, then degree
// class, then id, with the Definition 4 shell boundaries.
TEST_P(VertexRankSuite, OrientationRankOrdersByCorenessThenDegreeClass) {
  const Graph& g = GetParam().graph;
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const VertexRank vr = ComputeOrientationRank(g, cd);
  const VertexId n = g.NumVertices();
  ASSERT_EQ(vr.sorted.size(), n);
  ASSERT_EQ(vr.rank.size(), n);
  EXPECT_EQ(vr.shell_start, ComputeVertexRank(cd).shell_start);
  const auto key = [&](VertexId v) {
    return std::tuple(cd.coreness[v], std::bit_width(g.Degree(v)), v);
  };
  std::vector<bool> seen(n, false);
  for (VertexId i = 0; i < n; ++i) {
    const VertexId v = vr.sorted[i];
    ASSERT_LT(v, n);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
    EXPECT_EQ(vr.rank[v], i);
    if (i > 0) {
      EXPECT_LT(key(vr.sorted[i - 1]), key(v)) << "position " << i;
    }
  }
  for (uint32_t k = 0; k <= cd.k_max; ++k) {
    for (VertexId v : vr.Shell(k)) EXPECT_EQ(cd.coreness[v], k);
  }
}

TEST_P(VertexRankSuite, OrientationRankIdenticalAcrossThreadCounts) {
  const Graph& g = GetParam().graph;
  const CoreDecomposition cd = BzCoreDecomposition(g);
  VertexRank base;
  {
    ThreadCountGuard guard(1);
    base = ComputeOrientationRank(g, cd);
  }
  for (int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    const VertexRank vr = ComputeOrientationRank(g, cd);
    EXPECT_EQ(vr.sorted, base.sorted) << "threads=" << threads;
    EXPECT_EQ(vr.rank, base.rank);
    EXPECT_EQ(vr.shell_start, base.shell_start);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGraphs, VertexRankSuite,
    ::testing::ValuesIn(testing::StandardGraphSuite()),
    [](const ::testing::TestParamInfo<testing::GraphCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace hcd
