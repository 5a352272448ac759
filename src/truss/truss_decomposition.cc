#include "truss/truss_decomposition.h"

#include <algorithm>

#include "common/check.h"
#include "core/peel_levels.h"
#include "parallel/omp_utils.h"

namespace hcd {

std::vector<uint32_t> ComputeEdgeSupports(const Graph& graph,
                                          const EdgeIndexer& index) {
  const VertexId n = graph.NumVertices();
  std::vector<uint32_t> sup(index.NumEdges(), 0);

#pragma omp parallel
  {
    // mark[w] = 1 + position of w in the current vertex's adjacency.
    std::vector<EdgeIndex> mark(n, 0);
#pragma omp for schedule(dynamic, 64)
    for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const auto nv = graph.Neighbors(v);
      const EdgeIndex base_v = graph.AdjOffset(v);
      for (size_t i = 0; i < nv.size(); ++i) mark[nv[i]] = i + 1;
      for (size_t i = 0; i < nv.size(); ++i) {
        const VertexId u = nv[i];
        if (!DegreeLess(graph, u, v)) continue;
        const auto nu = graph.Neighbors(u);
        const EdgeIndex base_u = graph.AdjOffset(u);
        for (size_t j = 0; j < nu.size(); ++j) {
          const VertexId w = nu[j];
          if (mark[w] == 0 || !DegreeLess(graph, w, u)) continue;
          // Triangle (v, u, w), enumerated once (w < u < v in degree
          // order); bump all three edges.
          const EdgeIdx e_vu = index.eid_at[base_v + i];
          const EdgeIdx e_uw = index.eid_at[base_u + j];
          const EdgeIdx e_vw = index.eid_at[base_v + mark[w] - 1];
#pragma omp atomic
          ++sup[e_vu];
#pragma omp atomic
          ++sup[e_uw];
#pragma omp atomic
          ++sup[e_vw];
        }
      }
      for (VertexId u : nv) mark[u] = 0;
    }
  }
  return sup;
}

TrussDecomposition PeelTrussDecomposition(const Graph& graph,
                                          const EdgeIndexer& index) {
  // An edge's cliques are its triangles; its level is its trussness, which
  // starts at its support + 2.
  PeelLevelsResult peel = PeelLevels<2>(
      "truss.decomposition",
      [&] {
        std::vector<uint32_t> sup = ComputeEdgeSupports(graph, index);
        for (uint32_t& s : sup) s += 2;
        return sup;
      },
      [&](EdgeIdx e) {
        const auto [u, v] = index.edges[e];
        return std::min(graph.Degree(u), graph.Degree(v));
      },
      [&](EdgeIdx e, auto&& skip, auto&& visit) {
        // Triangles through the smaller endpoint; a skipped edge there saves
        // the search for the third edge.
        auto [u, v] = index.edges[e];
        if (graph.Degree(u) > graph.Degree(v)) std::swap(u, v);
        const EdgeIndex base_u = graph.AdjOffset(u);
        const auto nu = graph.Neighbors(u);
        for (size_t j = 0; j < nu.size(); ++j) {
          const VertexId w = nu[j];
          if (w == v) continue;
          const EdgeIdx e_uw = index.eid_at[base_u + j];
          if (skip(e_uw)) continue;
          const EdgeIdx e_vw = index.IdOf(graph, v, w);
          if (e_vw != kInvalidEdge) visit(e_uw, e_vw);
        }
      });
  return {std::move(peel.level), peel.k_max};
}

TrussDecomposition NaiveTrussDecomposition(const Graph& graph,
                                           const EdgeIndexer& index) {
  const EdgeIdx m = index.NumEdges();
  TrussDecomposition td;
  td.trussness.assign(m, 2);
  if (m == 0) return td;

  std::vector<bool> alive(m, true);
  EdgeIdx remaining = m;

  // Calls fn(e1, e2) with the other two edges of each triangle of e whose
  // edges all remain.
  auto for_alive_triangles = [&](EdgeIdx e, auto&& fn) {
    auto [a, b] = index.edges[e];
    if (graph.Degree(a) > graph.Degree(b)) std::swap(a, b);
    const EdgeIndex base_a = graph.AdjOffset(a);
    const auto na = graph.Neighbors(a);
    for (size_t j = 0; j < na.size(); ++j) {
      const VertexId w = na[j];
      const EdgeIdx e_aw = index.eid_at[base_a + j];
      if (w == b || !alive[e_aw]) continue;
      const EdgeIdx e_bw = index.IdOf(graph, b, w);
      if (e_bw != kInvalidEdge && alive[e_bw]) fn(e_aw, e_bw);
    }
  };

  // Supports among the remaining edges: counted once, then lowered by one
  // for each triangle a removal destroys.
  std::vector<uint32_t> support(m, 0);
  for (EdgeIdx e = 0; e < m; ++e) {
    for_alive_triangles(e, [&](EdgeIdx, EdgeIdx) { ++support[e]; });
  }
  std::vector<EdgeIdx> queue;
  uint32_t k = 3;
  while (remaining > 0) {
    // Strip to the k-truss fixpoint: remove edges with support below k - 2
    // until none is left.
    for (EdgeIdx e = 0; e < m; ++e) {
      if (alive[e] && support[e] < k - 2) queue.push_back(e);
    }
    while (!queue.empty()) {
      const EdgeIdx e = queue.back();
      queue.pop_back();
      for_alive_triangles(e, [&](EdgeIdx e1, EdgeIdx e2) {
        for (EdgeIdx f : {e1, e2}) {
          if (--support[f] == k - 3) queue.push_back(f);
        }
      });
      alive[e] = false;
      --remaining;
    }
    for (EdgeIdx e = 0; e < m; ++e) {
      if (alive[e]) td.trussness[e] = k;
    }
    if (remaining > 0) td.k_max = k;
    ++k;
  }
  if (td.k_max == 0) td.k_max = 2;  // edges exist; trivial trussness 2
  return td;
}

}  // namespace hcd
