#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/random.h"
#include "core/core_decomposition.h"
#include "core/dynamic.h"
#include "core/naive.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/phcd.h"
#include "hcd/validate.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

void ExpectMatchesRecompute(const DynamicCoreIndex& index) {
  Graph g = index.ToGraph();
  CoreDecomposition fresh = BzCoreDecomposition(g);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_EQ(index.Coreness(v), fresh.coreness[v]) << "vertex " << v;
  }
  ASSERT_EQ(index.KMax(), fresh.k_max);
}

TEST(DynamicCore, HandExample) {
  // Path 0-1-2; closing the triangle lifts everyone to coreness 2.
  DynamicCoreIndex index(PathGraph(3));
  EXPECT_EQ(index.Coreness(1), 1u);
  ASSERT_TRUE(index.InsertEdge(0, 2).ok());
  EXPECT_EQ(index.Coreness(0), 2u);
  EXPECT_EQ(index.Coreness(1), 2u);
  EXPECT_EQ(index.Coreness(2), 2u);
  ASSERT_TRUE(index.RemoveEdge(0, 1).ok());
  EXPECT_EQ(index.Coreness(0), 1u);
  EXPECT_EQ(index.Coreness(1), 1u);
  EXPECT_EQ(index.Coreness(2), 1u);
}

TEST(DynamicCore, RejectsBadUpdates) {
  DynamicCoreIndex index(PathGraph(3));
  EXPECT_FALSE(index.InsertEdge(0, 0).ok());
  EXPECT_FALSE(index.InsertEdge(0, 1).ok());  // already present
  EXPECT_FALSE(index.InsertEdge(0, 99).ok());
  EXPECT_FALSE(index.RemoveEdge(0, 2).ok());  // absent
  EXPECT_FALSE(index.RemoveEdge(5, 9).ok());
}

TEST(DynamicCore, InsertionBuildsCliqueIncrementally) {
  // Start from an empty graph on 8 vertices; add K8 edge by edge.
  GraphBuilder b;
  Graph empty = std::move(b).Build(8);
  DynamicCoreIndex index(empty);
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) {
      ASSERT_TRUE(index.InsertEdge(u, v).ok());
      ExpectMatchesRecompute(index);
    }
  }
  EXPECT_EQ(index.KMax(), 7u);
  // Now dismantle it edge by edge.
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) {
      ASSERT_TRUE(index.RemoveEdge(u, v).ok());
      ExpectMatchesRecompute(index);
    }
  }
  EXPECT_EQ(index.KMax(), 0u);
}

TEST(DynamicCore, RandomChurnMatchesRecompute) {
  for (uint64_t seed : testing::SweepSeeds()) {
    Graph g = ErdosRenyiGnm(120, 400, seed);
    DynamicCoreIndex index(g);
    Rng rng(seed * 31 + 1);
    for (int step = 0; step < 300; ++step) {
      VertexId u = static_cast<VertexId>(rng.Uniform(120));
      VertexId v = static_cast<VertexId>(rng.Uniform(120));
      if (u == v) continue;
      if (index.HasEdge(u, v)) {
        ASSERT_TRUE(index.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(index.InsertEdge(u, v).ok());
      }
      if (step % 10 == 0) ExpectMatchesRecompute(index);
    }
    ExpectMatchesRecompute(index);
  }
}

TEST(DynamicCore, ChurnOnStructuredGraphs) {
  for (const auto& tc : testing::StandardGraphSuite()) {
    if (tc.graph.NumVertices() < 3 || tc.graph.NumVertices() > 500) continue;
    SCOPED_TRACE(tc.name);
    DynamicCoreIndex index(tc.graph);
    Rng rng(1234);
    const VertexId n = tc.graph.NumVertices();
    for (int step = 0; step < 60; ++step) {
      VertexId u = static_cast<VertexId>(rng.Uniform(n));
      VertexId v = static_cast<VertexId>(rng.Uniform(n));
      if (u == v) continue;
      if (index.HasEdge(u, v)) {
        ASSERT_TRUE(index.RemoveEdge(u, v).ok());
      } else {
        ASSERT_TRUE(index.InsertEdge(u, v).ok());
      }
    }
    ExpectMatchesRecompute(index);
  }
}

TEST(DynamicCore, SingleUpdateChangesCorenessByAtMostOne) {
  Graph g = BarabasiAlbertVarying(200, 1, 6, 8);
  DynamicCoreIndex index(g);
  Rng rng(77);
  for (int step = 0; step < 100; ++step) {
    std::vector<uint32_t> before(g.NumVertices());
    for (VertexId v = 0; v < g.NumVertices(); ++v) before[v] = index.Coreness(v);
    VertexId u = static_cast<VertexId>(rng.Uniform(200));
    VertexId v = static_cast<VertexId>(rng.Uniform(200));
    if (u == v) continue;
    if (index.HasEdge(u, v)) {
      ASSERT_TRUE(index.RemoveEdge(u, v).ok());
    } else {
      ASSERT_TRUE(index.InsertEdge(u, v).ok());
    }
    for (VertexId w = 0; w < g.NumVertices(); ++w) {
      int64_t delta = static_cast<int64_t>(index.Coreness(w)) - before[w];
      EXPECT_LE(std::abs(delta), 1) << "vertex " << w;
    }
  }
}

std::vector<EdgeUpdate> RandomBatch(const DynamicCoreIndex& index, Rng& rng,
                                    size_t size, bool adversarial_mix) {
  const VertexId n = index.NumVertices();
  std::vector<EdgeUpdate> batch;
  while (batch.size() < size) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    const bool present = index.HasEdge(u, v);
    batch.push_back({u, v, present ? EdgeOp::kRemove : EdgeOp::kInsert});
    if (adversarial_mix && rng.Uniform(4) == 0) {
      // Stress the dedup: follow with the opposite op on the same edge
      // (cancels) or a repeat (redundant), sometimes both.
      const EdgeOp last = batch.back().op;
      const EdgeOp flip =
          last == EdgeOp::kInsert ? EdgeOp::kRemove : EdgeOp::kInsert;
      batch.push_back({v, u, rng.Uniform(2) == 0 ? flip : last});
    }
  }
  return batch;
}

/// Applies `batch` three ways — parallel schedule (four threads),
/// sequential schedule (one thread), and edge-by-edge net replay — and
/// checks all three against BZ from scratch, bit for bit.
void ExpectBatchEquivalence(const Graph& start,
                            const std::vector<EdgeUpdate>& batch) {
  DynamicCoreIndex par(start);
  DynamicCoreIndex seq(start);
  BatchStats par_stats, seq_stats;
  {
    ThreadCountGuard four_threads(4);
    ASSERT_TRUE(par.ApplyBatch(batch, &par_stats).ok());
  }
  {
    ThreadCountGuard one_thread(1);
    ASSERT_TRUE(seq.ApplyBatch(batch, &seq_stats).ok());
  }
  EXPECT_EQ(seq_stats.parallel_rounds, 0u);

  // Edge-by-edge replay of the net effect the batch reported.
  DynamicCoreIndex one(start);
  for (const auto& [u, v] : par_stats.applied_edges) {
    if (one.HasEdge(u, v)) {
      ASSERT_TRUE(one.RemoveEdge(u, v).ok());
    } else {
      ASSERT_TRUE(one.InsertEdge(u, v).ok());
    }
  }

  const CoreDecomposition fresh = BzCoreDecomposition(par.ToGraph());
  ASSERT_EQ(par.CorenessValues(), fresh.coreness);
  ASSERT_EQ(seq.CorenessValues(), fresh.coreness);
  ASSERT_EQ(one.CorenessValues(), fresh.coreness);
  ASSERT_EQ(par.NumEdges(), one.NumEdges());
  ASSERT_EQ(seq.NumEdges(), one.NumEdges());
  // The two schedules agree on what the batch did, not just the outcome.
  ASSERT_EQ(par_stats.applied, seq_stats.applied);
  ASSERT_EQ(par_stats.changed_vertices, seq_stats.changed_vertices);
}

TEST(DynamicBatch, MatchesBzOnRandomGraphs) {
  for (uint64_t seed : testing::SweepSeeds()) {
    Graph g = ErdosRenyiGnm(150, 450, seed);
    Rng rng(seed * 101 + 7);
    DynamicCoreIndex probe(g);  // only to sample present/absent edges
    for (size_t batch_size : {1u, 8u, 64u, 200u}) {
      ExpectBatchEquivalence(
          g, RandomBatch(probe, rng, batch_size, /*adversarial_mix=*/true));
    }
  }
}

void ExpectSameCsr(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  for (VertexId v = 0; v <= got.NumVertices(); ++v) {
    ASSERT_EQ(got.AdjOffset(v), want.AdjOffset(v)) << "offset " << v;
  }
  ASSERT_TRUE(std::ranges::equal(got.AdjArray(), want.AdjArray()));
}

/// An index that shares its CSR and is handed the coreness must walk
/// through exactly the states of one that copied the graph and ran BZ,
/// and must never write the CSR it shares. Every other round commits, so
/// batches land both on a layer of edits and on a freshly rebased CSR.
/// `threads` selects the schedule: one thread runs the sequential one.
void ExpectSharedBaseMatchesBz(int threads) {
  ThreadCountGuard guard(threads);
  for (uint64_t seed : testing::SweepSeeds()) {
    SCOPED_TRACE(seed);
    const auto base = std::make_shared<const Graph>(
        BarabasiAlbertVarying(200, 2, 10, seed));
    const Graph before = *base;
    DynamicCoreIndex shared(base, PkcCoreDecomposition(*base));
    DynamicCoreIndex reference(*base);
    EXPECT_EQ(shared.EditedRows(), 0u);
    Rng rng(seed * 31 + 5);
    for (int round = 0; round < 8; ++round) {
      SCOPED_TRACE(round);
      const std::vector<EdgeUpdate> batch =
          RandomBatch(reference, rng, 40, /*adversarial_mix=*/true);
      ASSERT_TRUE(shared.ApplyBatch(batch).ok());
      ASSERT_TRUE(reference.ApplyBatch(batch).ok());
      const Graph now = reference.ToGraph();
      ASSERT_EQ(shared.CorenessValues(), reference.CorenessValues());
      ASSERT_EQ(shared.CorenessValues(), BzCoreDecomposition(now).coreness);
      ASSERT_EQ(shared.NumEdges(), reference.NumEdges());
      ExpectSameCsr(shared.ToGraph(), now);
      if (round % 2 == 1) {
        const std::shared_ptr<const Graph> next = shared.Commit();
        EXPECT_EQ(shared.EditedRows(), 0u);
        ExpectSameCsr(*next, now);
      }
    }
    ExpectSameCsr(*base, before);
  }
}

TEST(DynamicSharedBase, MatchesBzParallel) { ExpectSharedBaseMatchesBz(4); }

TEST(DynamicSharedBase, MatchesBzSequential) { ExpectSharedBaseMatchesBz(1); }

TEST(DynamicSharedBase, SingleUpdatesEditOnlyTheirEndpoints) {
  const auto base = std::make_shared<const Graph>(PathGraph(6));
  DynamicCoreIndex index(base, BzCoreDecomposition(*base));
  ASSERT_TRUE(index.InsertEdge(0, 2).ok());
  EXPECT_EQ(index.EditedRows(), 2u);
  ASSERT_TRUE(index.RemoveEdge(2, 3).ok());
  EXPECT_EQ(index.EditedRows(), 3u);  // 2 was already edited
  EXPECT_TRUE(index.HasEdge(2, 0));
  EXPECT_FALSE(index.HasEdge(3, 2));
  EXPECT_TRUE(index.HasEdge(4, 5));  // unedited rows read the base
  ExpectMatchesRecompute(index);
  EXPECT_TRUE(base->HasEdge(2, 3));
}

TEST(DynamicSharedBaseDeathTest, RejectsCorenessOfWrongLength) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const auto base = std::make_shared<const Graph>(PathGraph(4));
  CoreDecomposition cd = BzCoreDecomposition(*base);
  cd.coreness.pop_back();
  EXPECT_DEATH(DynamicCoreIndex(base, cd),
               "coreness must cover every base vertex");
}

TEST(DynamicBatch, SequentialBatchesKeepMatchingBz) {
  // Batches applied back to back on one index, each checked against a
  // from-scratch BZ decomposition of the graph it leaves.
  Graph g = ErdosRenyiGnp(120, 0.05, 11);
  DynamicCoreIndex index(g);
  Rng rng(12);
  for (int round = 0; round < 10; ++round) {
    const std::vector<EdgeUpdate> batch = RandomBatch(index, rng, 40, true);
    ASSERT_TRUE(index.ApplyBatch(batch).ok());
    ASSERT_EQ(index.CorenessValues(),
              BzCoreDecomposition(index.ToGraph()).coreness)
        << "round " << round;
  }
}

TEST(DynamicBatch, DedupAndStats) {
  // Path 0-1-2-3. Batch: close the triangle (applies), insert 0-1 again
  // (redundant), add then drop 1-3 (cancels), drop 2-3 (applies).
  DynamicCoreIndex index(PathGraph(4));
  const std::vector<EdgeUpdate> batch = {
      {0, 2, EdgeOp::kInsert}, {1, 0, EdgeOp::kInsert},
      {1, 3, EdgeOp::kInsert}, {3, 1, EdgeOp::kRemove},
      {2, 3, EdgeOp::kRemove},
  };
  BatchStats stats;
  ASSERT_TRUE(index.ApplyBatch(batch, &stats).ok());
  EXPECT_EQ(stats.requested, 5u);
  EXPECT_EQ(stats.applied, 2u);
  EXPECT_EQ(stats.redundant, 1u);  // the repeated 0-1 insert
  EXPECT_EQ(stats.deduped, 2u);    // the 1-3 insert+remove pair
  EXPECT_TRUE(index.HasEdge(0, 2));
  EXPECT_FALSE(index.HasEdge(1, 3));
  EXPECT_FALSE(index.HasEdge(2, 3));
  EXPECT_EQ(index.NumEdges(), 3u);  // 0-1, 1-2, 0-2
  EXPECT_EQ(index.Coreness(0), 2u);
  EXPECT_EQ(index.Coreness(3), 0u);
  EXPECT_EQ(stats.coreness_changed, stats.changed_vertices.size());
  ExpectMatchesRecompute(index);
}

TEST(DynamicBatch, RejectsBadBatchesWhole) {
  DynamicCoreIndex index(PathGraph(4));
  const std::vector<uint32_t> before = index.CorenessValues();
  const std::vector<EdgeUpdate> self_loop = {{0, 2, EdgeOp::kInsert},
                                             {1, 1, EdgeOp::kInsert}};
  const std::vector<EdgeUpdate> out_of_range = {{0, 2, EdgeOp::kInsert},
                                                {0, 99, EdgeOp::kRemove}};
  EXPECT_FALSE(index.ApplyBatch(self_loop).ok());
  EXPECT_FALSE(index.ApplyBatch(out_of_range).ok());
  // Nothing from the valid prefix was applied.
  EXPECT_FALSE(index.HasEdge(0, 2));
  EXPECT_EQ(index.CorenessValues(), before);
  EXPECT_EQ(index.NumEdges(), 3u);
}

TEST(DynamicBatch, EmptyAndNoOpBatches) {
  DynamicCoreIndex index(PathGraph(4));
  BatchStats stats;
  ASSERT_TRUE(index.ApplyBatch({}, &stats).ok());
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  const std::vector<EdgeUpdate> noop = {{0, 1, EdgeOp::kInsert},
                                        {0, 3, EdgeOp::kRemove}};
  ASSERT_TRUE(index.ApplyBatch(noop, &stats).ok());
  EXPECT_EQ(stats.applied, 0u);
  EXPECT_EQ(stats.redundant, 2u);
  EXPECT_EQ(index.NumEdges(), 3u);
}

TEST(DynamicBatch, HubBatchMatchesBz) {
  // Degree-varying preferential attachment: the batch edits hub rows of
  // very different lengths.
  Graph g = BarabasiAlbertVarying(150, 2, 8, 21);
  Rng rng(22);
  DynamicCoreIndex probe(g);
  ExpectBatchEquivalence(g, RandomBatch(probe, rng, 120, true));
}

TEST(DynamicCore, HubRowSingleUpdates) {
  // A star center's edited row grows to 39 neighbors and back to none.
  GraphBuilder b;
  Graph empty = std::move(b).Build(40);
  DynamicCoreIndex index(empty);
  for (VertexId v = 1; v < 40; ++v) {
    ASSERT_TRUE(index.InsertEdge(0, v).ok());
  }
  EXPECT_EQ(index.KMax(), 1u);
  for (VertexId v = 1; v < 40; ++v) {
    ASSERT_TRUE(index.HasEdge(v, 0));
    ASSERT_TRUE(index.RemoveEdge(0, v).ok());
  }
  EXPECT_EQ(index.NumEdges(), 0u);
  EXPECT_EQ(index.KMax(), 0u);
  ExpectMatchesRecompute(index);
}

TEST(DynamicCore, RebuildHcdAfterBatch) {
  Graph g = ErdosRenyiGnm(300, 900, 17);
  DynamicCoreIndex index(g);
  Rng rng(18);
  for (int step = 0; step < 200; ++step) {
    VertexId u = static_cast<VertexId>(rng.Uniform(300));
    VertexId v = static_cast<VertexId>(rng.Uniform(300));
    if (u == v) continue;
    if (index.HasEdge(u, v)) {
      (void)index.RemoveEdge(u, v);
    } else {
      (void)index.InsertEdge(u, v);
    }
  }
  Graph updated = index.ToGraph();
  CoreDecomposition cd = BzCoreDecomposition(updated);
  EXPECT_TRUE(ValidateHcd(updated, cd, Freeze(PhcdBuild(updated, cd))).ok());
}

}  // namespace
}  // namespace hcd
