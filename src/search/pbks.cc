#include "search/pbks.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/trace.h"
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

/// The graph with every edge oriented from its lower-rank to its higher-rank
/// endpoint (vertex rank, Definition 4): Out(v) is N+(v), the neighbours
/// ranked above v. m entries in all, since each edge is kept once.
struct OrientedAdjacency {
  std::vector<EdgeIndex> offset;  // n + 1
  std::vector<VertexId> target;   // m

  std::span<const VertexId> Out(VertexId v) const {
    return {target.data() + offset[v],
            static_cast<size_t>(offset[v + 1] - offset[v])};
  }
};

/// Builds the rank-oriented CSR in two parallel passes over the adjacency:
/// count each vertex's out-degree, prefix-sum, then fill.
OrientedAdjacency OrientByRank(const Graph& graph,
                               const std::vector<VertexId>& rank) {
  const VertexId n = graph.NumVertices();
  OrientedAdjacency out;
  out.offset.assign(static_cast<size_t>(n) + 1, 0);
#pragma omp parallel for schedule(guided, 256)
  for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    EdgeIndex d = 0;
    for (VertexId u : graph.Neighbors(v)) d += rank[u] > rank[v];
    out.offset[v + 1] = d;
  }
  for (VertexId v = 0; v < n; ++v) out.offset[v + 1] += out.offset[v];
  out.target.resize(out.offset[n]);
#pragma omp parallel for schedule(guided, 256)
  for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
    const VertexId v = static_cast<VertexId>(vi);
    EdgeIndex pos = out.offset[v];
    for (VertexId u : graph.Neighbors(v)) {
      if (rank[u] > rank[v]) out.target[pos++] = u;
    }
  }
  return out;
}

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

TypeBTallies CountTypeBTallies(const Graph& graph,
                               const CoreDecomposition& cd,
                               const VertexRank& vr,
                               const CorenessNeighborCounts& pre,
                               std::span<const uint32_t> slot,
                               size_t num_slots) {
  const VertexId n = graph.NumVertices();
  TypeBTallies t;
  t.triangles.assign(num_slots, 0);
  t.triplets.assign(num_slots, 0);

  // --- Triangles (lines 2-7), counted once, at the lowest-rank corner.
  // With every edge oriented towards its higher-rank endpoint, a triangle
  // v < u < w (by rank) has the out-edges v->u, v->w and u->w: v's pass
  // marks u and w and finds w in N+(u). Neither u nor w has v as an
  // out-neighbour, so no other pass sees it. The oriented CSR lives for
  // this block only.
  {
    ScopedSpan span("pbks.triangles");
    const OrientedAdjacency out = OrientByRank(graph, vr.rank);
    uint64_t wedge_checks = 0;
    uint64_t max_out_degree = 0;
#pragma omp parallel reduction(+ : wedge_checks) \
    reduction(max : max_out_degree)
    {
      std::vector<uint8_t> mark(n, 0);
#pragma omp for schedule(dynamic, 16)
      for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
        const VertexId v = static_cast<VertexId>(vi);
        const auto nv = out.Out(v);
        max_out_degree = std::max<uint64_t>(max_out_degree, nv.size());
        for (VertexId u : nv) mark[u] = 1;
        int64_t count = 0;
        for (VertexId u : nv) {
          const auto nu = out.Out(u);
          wedge_checks += nu.size();
          for (VertexId w : nu) count += mark[w];
        }
        for (VertexId u : nv) mark[u] = 0;
        if (count != 0) {
#pragma omp atomic
          t.triangles[slot[v]] += count;
        }
      }
    }
    span.AddArg("max_out_degree", max_out_degree);
    span.AddArg("wedge_checks", wedge_checks);
  }

  // --- Triplets centered at v (lines 8-15). Wedges whose two arms both
  // reach coreness >= c(v) appear with v (the lowest-rank member); wedges
  // whose lowest arm has coreness k < c(v) appear at any neighbor w of
  // coreness k (all such neighbours share w's slot: its tree node, joined
  // through v, or its level).
#pragma omp parallel
  {
    std::vector<VertexId> cnt(cd.k_max + 1, 0);
    std::vector<VertexId> rep(cd.k_max + 1, 0);

#pragma omp for schedule(dynamic, 64)
    for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const uint32_t cv = cd.coreness[v];
      int64_t gt_k = static_cast<int64_t>(pre.greater[v]) + pre.equal[v];
      {
        const int64_t add = Choose2(gt_k);
        if (add != 0) {
#pragma omp atomic
          t.triplets[slot[v]] += add;
        }
      }
      if (cv > 0) {
        for (VertexId u : graph.Neighbors(v)) {
          const uint32_t cu = cd.coreness[u];
          if (cu < cv) {
            ++cnt[cu];
            rep[cu] = u;
          }
        }
        for (int64_t k = static_cast<int64_t>(cv) - 1; k >= 0; --k) {
          const int64_t c = cnt[k];
          if (c > 0) {
            const int64_t add = Choose2(c) + gt_k * c;
#pragma omp atomic
            t.triplets[slot[rep[k]]] += add;
            gt_k += c;
            cnt[k] = 0;
          }
        }
      }
    }
  }
  return t;
}

std::vector<PrimaryValues> PbksTypeBPrimary(
    const Graph& graph, const CoreDecomposition& cd, const FlatHcdIndex& index,
    const VertexRank& vr, const CorenessNeighborCounts& pre) {
  NodeTallies t(index.NumNodes());
  // n(S) rides along: triangle density divides by the vertex triples.
  for (VertexId v = 0; v < graph.NumVertices(); ++v) ++t.n_s[index.Tid(v)];
  TypeBTallies b = CountTypeBTallies(graph, cd, vr, pre, index.data().tid,
                                     index.NumNodes());
  t.triangles = std::move(b.triangles);
  t.triplets = std::move(b.triplets);
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
