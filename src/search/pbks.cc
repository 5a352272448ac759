#include "search/pbks.h"

#include <algorithm>

#include "common/check.h"
#include "parallel/omp_utils.h"

namespace hcd {
namespace {

/// Unaccumulated per-node tallies. Signed: a single node's boundary
/// contribution (lt - gt summed over its vertices) can be negative before
/// children are folded in.
struct NodeTallies {
  std::vector<int64_t> n_s;
  std::vector<int64_t> edges2;
  std::vector<int64_t> boundary;
  std::vector<int64_t> triangles;
  std::vector<int64_t> triplets;

  explicit NodeTallies(TreeNodeId num_nodes)
      : n_s(num_nodes, 0),
        edges2(num_nodes, 0),
        boundary(num_nodes, 0),
        triangles(num_nodes, 0),
        triplets(num_nodes, 0) {}
};

/// Parallel bottom-up tree accumulation (Algorithm 3 lines 6-9): processes
/// the index's precomputed level groups in descending order; nodes inside a
/// group accumulate into their parents concurrently (atomics: two
/// same-level nodes may share a parent). When a node's group is reached,
/// all its children (strictly higher levels) are final. No sort and no
/// group-boundary scan — the frozen index ships both. A group below
/// kParallelGrain nodes runs on the calling thread.
void AccumulateUp(const FlatHcdIndex& index, NodeTallies* t) {
  for (size_t g = 0; g < index.NumLevelGroups(); ++g) {
    const std::span<const TreeNodeId> group = index.LevelGroup(g);
#pragma omp parallel for schedule(static) \
    if (static_cast<int64_t>(group.size()) >= kParallelGrain)
    for (int64_t idx = 0; idx < static_cast<int64_t>(group.size()); ++idx) {
      const TreeNodeId node = group[idx];
      const TreeNodeId pa = index.Parent(node);
      if (pa == kInvalidNode) continue;
#pragma omp atomic
      t->n_s[pa] += t->n_s[node];
#pragma omp atomic
      t->edges2[pa] += t->edges2[node];
#pragma omp atomic
      t->boundary[pa] += t->boundary[node];
#pragma omp atomic
      t->triangles[pa] += t->triangles[node];
#pragma omp atomic
      t->triplets[pa] += t->triplets[node];
    }
  }
}

std::vector<PrimaryValues> ToPrimaryValues(const NodeTallies& t) {
  std::vector<PrimaryValues> out(t.n_s.size());
  for (size_t i = 0; i < out.size(); ++i) {
    HCD_DCHECK(t.n_s[i] >= 0);
    HCD_DCHECK(t.edges2[i] >= 0);
    HCD_DCHECK(t.boundary[i] >= 0);
    out[i].n_s = static_cast<uint64_t>(t.n_s[i]);
    out[i].edges2 = static_cast<uint64_t>(t.edges2[i]);
    out[i].boundary = static_cast<uint64_t>(t.boundary[i]);
    out[i].triangles = static_cast<uint64_t>(t.triangles[i]);
    out[i].triplets = static_cast<uint64_t>(t.triplets[i]);
  }
  return out;
}

inline int64_t Choose2(int64_t x) { return x * (x - 1) / 2; }

}  // namespace

std::vector<PrimaryValues> PbksTypeAPrimary(
    const Graph& graph, const CoreDecomposition& /*cd*/,
    const FlatHcdIndex& index, const CorenessNeighborCounts& pre) {
  const VertexId n = graph.NumVertices();
  NodeTallies t(index.NumNodes());

  // Algorithm 4 lines 2-9: per-vertex contributions. Each vertex counts the
  // edges whose lowest-rank endpoint it is: all edges to greater coreness,
  // and half of the equal-coreness edges (each such edge is charged by both
  // endpoints, hence the doubled-edge bookkeeping).
#pragma omp parallel for schedule(static)
  for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    const int64_t gt = pre.greater[v];
    const int64_t eq = pre.equal[v];
    const int64_t lt = static_cast<int64_t>(graph.Degree(v)) - gt - eq;
    const TreeNodeId i = index.Tid(v);
#pragma omp atomic
    t.n_s[i] += 1;
#pragma omp atomic
    t.edges2[i] += 2 * gt + eq;
#pragma omp atomic
    t.boundary[i] += lt - gt;
  }

  AccumulateUp(index, &t);
  return ToPrimaryValues(t);
}

std::vector<PrimaryValues> PbksTypeBPrimary(
    const Graph& graph, const CoreDecomposition& cd, const FlatHcdIndex& index,
    const VertexRank& vr, const CorenessNeighborCounts& pre) {
  const VertexId n = graph.NumVertices();
  NodeTallies t(index.NumNodes());
  const std::vector<VertexId>& rank = vr.rank;

  // Ordering of Algorithm 5 line 4: enumerate each edge once, from the
  // higher-degree endpoint.
  auto degree_less = [&graph](VertexId a, VertexId b) {
    const VertexId da = graph.Degree(a);
    const VertexId db = graph.Degree(b);
    return da < db || (da == db && a < b);
  };

#pragma omp parallel
  {
    std::vector<uint8_t> mark(n, 0);
    std::vector<VertexId> cnt(cd.k_max + 1, 0);
    std::vector<VertexId> rep(cd.k_max + 1, 0);

#pragma omp for schedule(dynamic, 64)
    for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const auto nv = graph.Neighbors(v);

      // --- Triangles (lines 2-7): (v, u, w) with u the lower-degree
      // neighbor and w their common neighbor; counted once, at the corner
      // with the lowest vertex rank.
      for (VertexId u : nv) mark[u] = 1;
      for (VertexId u : nv) {
        if (!degree_less(u, v)) continue;
        for (VertexId w : graph.Neighbors(u)) {
          if (mark[w] && rank[w] < rank[u] && rank[w] < rank[v]) {
            const TreeNodeId i = index.Tid(w);
#pragma omp atomic
            t.triangles[i] += 1;
          }
        }
      }
      for (VertexId u : nv) mark[u] = 0;

      // --- Triplets centered at v (lines 8-15). Wedges whose two arms both
      // reach coreness >= c(v) appear with v (the lowest-rank member);
      // wedges whose lowest arm has coreness k < c(v) appear at any
      // neighbor w of coreness k.
      const uint32_t cv = cd.coreness[v];
      int64_t gt_k = static_cast<int64_t>(pre.greater[v]) + pre.equal[v];
      {
        const TreeNodeId i = index.Tid(v);
        const int64_t add = Choose2(gt_k);
        if (add != 0) {
#pragma omp atomic
          t.triplets[i] += add;
        }
      }
      if (cv > 0) {
        for (VertexId u : nv) {
          const uint32_t cu = cd.coreness[u];
          if (cu < cv) {
            ++cnt[cu];
            rep[cu] = u;
          }
        }
        for (int64_t k = static_cast<int64_t>(cv) - 1; k >= 0; --k) {
          const int64_t c = cnt[k];
          if (c > 0) {
            const TreeNodeId i = index.Tid(rep[k]);
            const int64_t add = Choose2(c) + gt_k * c;
#pragma omp atomic
            t.triplets[i] += add;
            gt_k += c;
            cnt[k] = 0;
          }
        }
      }
    }
  }

  AccumulateUp(index, &t);
  return ToPrimaryValues(t);
}

SearchResult ScoreNodes(const FlatHcdIndex& index, Metric metric,
                        const std::vector<PrimaryValues>& accumulated,
                        const GraphGlobals& globals) {
  SearchResult result;
  result.scores.resize(index.NumNodes());
#pragma omp parallel for schedule(static)
  for (int64_t i = 0; i < static_cast<int64_t>(index.NumNodes()); ++i) {
    result.scores[i] = EvaluateMetric(metric, accumulated[i], globals);
  }
  for (TreeNodeId i = 0; i < index.NumNodes(); ++i) {
    if (result.best_node == kInvalidNode ||
        result.scores[i] > result.best_score) {
      result.best_node = i;
      result.best_score = result.scores[i];
    }
  }
  return result;
}

SearchResult PbksSearch(const Graph& graph, const CoreDecomposition& cd,
                        const FlatHcdIndex& index, Metric metric) {
  const CorenessNeighborCounts pre = PreprocessCorenessCounts(graph, cd);
  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  if (IsTypeB(metric)) {
    const VertexRank vr = ComputeVertexRank(cd);
    return ScoreNodes(index, metric,
                      PbksTypeBPrimary(graph, cd, index, vr, pre), globals);
  }
  return ScoreNodes(index, metric, PbksTypeAPrimary(graph, cd, index, pre),
                    globals);
}

}  // namespace hcd
