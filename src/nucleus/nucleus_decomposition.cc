#include "nucleus/nucleus_decomposition.h"

#include <algorithm>

#include "common/check.h"
#include "core/peel_levels.h"
#include "parallel/omp_utils.h"

namespace hcd {

std::vector<uint32_t> ComputeTriangleSupports(const Graph& graph,
                                              const TriangleIndexer& tidx) {
  const TriIdx num_tris = tidx.NumTriangles();
  std::vector<uint32_t> sup(num_tris, 0);
#pragma omp parallel for schedule(dynamic, 64)
  for (int64_t ti = 0; ti < static_cast<int64_t>(num_tris); ++ti) {
    const auto [a, b, c] = tidx.triangles[static_cast<TriIdx>(ti)];
    VertexId p = a;
    VertexId q = b;
    VertexId r = c;
    if (graph.Degree(q) < graph.Degree(p)) std::swap(p, q);
    if (graph.Degree(r) < graph.Degree(p)) std::swap(p, r);
    uint32_t s = 0;
    for (VertexId x : graph.Neighbors(p)) {
      if (x == a || x == b || x == c) continue;
      s += graph.HasEdge(q, x) && graph.HasEdge(r, x);
    }
    sup[ti] = s;
  }
  return sup;
}

NucleusDecomposition PeelNucleusDecomposition(const Graph& graph,
                                              const EdgeIndexer& eidx,
                                              const TriangleIndexer& tidx) {
  // A triangle's cliques are its 4-cliques; its level is its nucleus
  // number, which starts at its support.
  PeelLevelsResult peel = PeelLevels<3>(
      "nucleus.decomposition",
      [&] { return ComputeTriangleSupports(graph, tidx); },
      // The 4-clique scan walks the lowest-degree corner's neighbours.
      [&](TriIdx t) {
        const auto [a, b, c] = tidx.triangles[t];
        return std::min({graph.Degree(a), graph.Degree(b), graph.Degree(c)});
      },
      [&](TriIdx t, auto&&, auto&& visit) {
        ForEachFourClique(graph, eidx, tidx, t,
                          [&](VertexId, TriIdx t1, TriIdx t2, TriIdx t3) {
                            visit(t1, t2, t3);
                          });
      });
  return {std::move(peel.level), peel.k_max};
}

NucleusDecomposition NaiveNucleusDecomposition(const Graph& graph,
                                               const EdgeIndexer& eidx,
                                               const TriangleIndexer& tidx) {
  const TriIdx num_tris = tidx.NumTriangles();
  NucleusDecomposition nd;
  nd.theta.assign(num_tris, 0);
  if (num_tris == 0) return nd;

  std::vector<bool> alive(num_tris, true);
  TriIdx remaining = num_tris;

  auto alive_support = [&](TriIdx t) {
    uint32_t s = 0;
    ForEachFourClique(graph, eidx, tidx, t,
                      [&](VertexId, TriIdx t1, TriIdx t2, TriIdx t3) {
                        s += alive[t1] && alive[t2] && alive[t3];
                      });
    return s;
  };

  uint32_t k = 1;
  while (remaining > 0) {
    bool removed_any = true;
    while (removed_any) {
      removed_any = false;
      for (TriIdx t = 0; t < num_tris; ++t) {
        if (alive[t] && alive_support(t) < k) {
          alive[t] = false;
          --remaining;
          removed_any = true;
        }
      }
    }
    for (TriIdx t = 0; t < num_tris; ++t) {
      if (alive[t]) nd.theta[t] = k;
    }
    if (remaining > 0) nd.k_max = k;
    ++k;
  }
  return nd;
}

}  // namespace hcd
