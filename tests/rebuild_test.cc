#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/core_decomposition.h"
#include "core/dynamic.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/phcd.h"
#include "hcd/rebuild.h"
#include "hcd/validate.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

FlatHcdIndex FreshFlat(const Graph& g, const CoreDecomposition& cd) {
  return Freeze(PhcdBuild(g, cd));
}

CoreDecomposition CdOf(const DynamicCoreIndex& index) {
  CoreDecomposition cd;
  cd.coreness = index.CorenessValues();
  cd.k_max = index.KMax();
  return cd;
}

std::vector<VertexId> TouchedOf(const BatchStats& stats) {
  std::vector<VertexId> touched = stats.changed_vertices;
  for (const auto& [u, v] : stats.applied_edges) {
    touched.push_back(u);
    touched.push_back(v);
  }
  return touched;
}

/// Churns a sparse (hence many-component) random graph with batches and
/// checks that the incremental splice equals a from-scratch freeze after
/// every batch, while staying chained on the *spliced* index — so splice
/// errors would compound and get caught.
TEST(Rebuild, IncrementalMatchesFullFreezeAcrossBatches) {
  for (uint64_t seed : testing::SweepSeeds()) {
    Graph g = ErdosRenyiGnp(250, 0.008, seed);
    DynamicCoreIndex index(g);
    FlatHcdIndex current = FreshFlat(g, CdOf(index));
    Rng rng(seed + 500);
    for (int round = 0; round < 6; ++round) {
      std::vector<EdgeUpdate> batch;
      for (int i = 0; i < 20; ++i) {
        const VertexId u = static_cast<VertexId>(rng.Uniform(250));
        const VertexId v = static_cast<VertexId>(rng.Uniform(250));
        if (u == v) continue;
        batch.push_back({u, v,
                         index.HasEdge(u, v) ? EdgeOp::kRemove
                                             : EdgeOp::kInsert});
      }
      BatchStats stats;
      ASSERT_TRUE(index.ApplyBatch(batch, &stats).ok());

      const Graph updated = index.ToGraph();
      const CoreDecomposition cd = CdOf(index);
      RebuildPlan plan = PlanRebuild(current, TouchedOf(stats));
      plan.full_rebuild = false;  // force the incremental path
      FlatHcdIndex spliced;
      ASSERT_TRUE(
          ApplyRebuild(plan, current, updated, cd, &spliced).ok());
      ASSERT_TRUE(ValidateHcd(updated, cd, spliced).ok());
      ASSERT_TRUE(HcdEquals(spliced, FreshFlat(updated, cd)));
      current = std::move(spliced);
    }
  }
}

TEST(Rebuild, FullRebuildPathMatchesToo) {
  Graph g = ErdosRenyiGnm(200, 600, 3);
  DynamicCoreIndex index(g);
  FlatHcdIndex current = FreshFlat(g, CdOf(index));
  BatchStats stats;
  const std::vector<EdgeUpdate> batch = {{0, 100, EdgeOp::kInsert},
                                         {5, 150, EdgeOp::kInsert}};
  ASSERT_TRUE(index.ApplyBatch(batch, &stats).ok());
  const Graph updated = index.ToGraph();
  const CoreDecomposition cd = CdOf(index);
  RebuildPlan plan = PlanRebuild(current, TouchedOf(stats));
  EXPECT_FALSE(plan.dirty_roots.empty());
  plan.full_rebuild = true;  // force the full path
  FlatHcdIndex rebuilt;
  ASSERT_TRUE(
      ApplyRebuild(plan, current, updated, cd, &rebuilt).ok());
  ASSERT_TRUE(HcdEquals(rebuilt, FreshFlat(updated, cd)));
}

TEST(Rebuild, UntouchedPlanReproducesTheIndex) {
  Graph g = ErdosRenyiGnp(150, 0.02, 9);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = FreshFlat(g, cd);
  const RebuildPlan plan = PlanRebuild(flat, {});
  EXPECT_TRUE(plan.dirty_roots.empty());
  EXPECT_EQ(plan.dirty_fraction, 0.0);
  FlatHcdIndex copy;
  ASSERT_TRUE(ApplyRebuild(plan, flat, g, cd, &copy).ok());
  EXPECT_TRUE(HcdEquals(copy, flat));
}

TEST(Rebuild, PlanDirtiesWholeTreesOnly) {
  // Two disjoint triangles: touching one vertex dirties exactly its
  // component's tree.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 3);
  Graph g = std::move(b).Build(6);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = FreshFlat(g, cd);
  const std::vector<VertexId> touched = {1};
  const RebuildPlan plan = PlanRebuild(flat, touched);
  ASSERT_EQ(plan.dirty_roots.size(), 1u);
  std::vector<VertexId> dirty = plan.dirty_vertices;
  std::sort(dirty.begin(), dirty.end());
  EXPECT_EQ(dirty, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(plan.dirty_fraction, 0.5);
  // Half the graph dirty exceeds the full-rebuild threshold (a quarter).
  EXPECT_TRUE(plan.full_rebuild);
}

TEST(Rebuild, RejectsVertexSetChange) {
  Graph g = ErdosRenyiGnm(50, 100, 1);
  const CoreDecomposition cd = BzCoreDecomposition(g);
  const FlatHcdIndex flat = FreshFlat(g, cd);
  Graph bigger = ErdosRenyiGnm(60, 100, 1);
  const CoreDecomposition bigger_cd = BzCoreDecomposition(bigger);
  FlatHcdIndex out;
  EXPECT_FALSE(
      ApplyRebuild(PlanRebuild(flat, {}), flat, bigger, bigger_cd, &out)
          .ok());
}

}  // namespace
}  // namespace hcd
