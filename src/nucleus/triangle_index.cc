#include "nucleus/triangle_index.h"

#include <algorithm>

#include "common/check.h"

namespace hcd {

TriIdx TriangleIndexer::IdOf(EdgeIdx e, VertexId w) const {
  const auto begin = edge_tri.begin() + edge_tri_start[e];
  const auto end = edge_tri.begin() + edge_tri_start[e + 1];
  auto it = std::lower_bound(
      begin, end, w,
      [](const std::pair<VertexId, TriIdx>& entry, VertexId key) {
        return entry.first < key;
      });
  if (it == end || it->first != w) return kInvalidTriangle;
  return it->second;
}

TriangleIndexer BuildTriangleIndexer(const Graph& graph,
                                     const EdgeIndexer& eidx) {
  const VertexId n = graph.NumVertices();
  TriangleIndexer tidx;

  // Enumerate each triangle once via the degree order (w < u < v).
  std::vector<EdgeIndex> mark(n, 0);  // 1 + position of w in N(v)
  for (VertexId v = 0; v < n; ++v) {
    const auto nv = graph.Neighbors(v);
    for (size_t i = 0; i < nv.size(); ++i) mark[nv[i]] = i + 1;
    for (size_t i = 0; i < nv.size(); ++i) {
      const VertexId u = nv[i];
      if (!DegreeLess(graph, u, v)) continue;
      for (VertexId w : graph.Neighbors(u)) {
        if (mark[w] && DegreeLess(graph, w, u)) {
          std::array<VertexId, 3> tri = {v, u, w};
          std::sort(tri.begin(), tri.end());
          tidx.triangles.push_back(tri);
          HCD_CHECK_LT(tidx.triangles.size(),
                       static_cast<size_t>(kInvalidTriangle));
        }
      }
    }
    for (VertexId u : nv) mark[u] = 0;
  }

  // Per-edge membership lists by counting sort over edge ids.
  const EdgeIdx m = eidx.NumEdges();
  const TriIdx num_tris = tidx.NumTriangles();
  tidx.edge_tri_start.assign(static_cast<size_t>(m) + 1, 0);
  auto edge_of = [&](VertexId a, VertexId b) {
    EdgeIdx e = eidx.IdOf(graph, a, b);
    HCD_DCHECK(e != kInvalidEdge);
    return e;
  };
  std::vector<std::array<EdgeIdx, 3>> tri_edges(num_tris);
  for (TriIdx t = 0; t < num_tris; ++t) {
    const auto& [a, b, c] = tidx.triangles[t];
    tri_edges[t] = {edge_of(a, b), edge_of(a, c), edge_of(b, c)};
    for (EdgeIdx e : tri_edges[t]) ++tidx.edge_tri_start[e + 1];
  }
  for (EdgeIdx e = 0; e < m; ++e) {
    tidx.edge_tri_start[e + 1] += tidx.edge_tri_start[e];
  }
  tidx.edge_tri.resize(static_cast<size_t>(num_tris) * 3);
  std::vector<uint64_t> cursor(tidx.edge_tri_start.begin(),
                               tidx.edge_tri_start.end() - 1);
  for (TriIdx t = 0; t < num_tris; ++t) {
    const auto& [a, b, c] = tidx.triangles[t];
    tidx.edge_tri[cursor[tri_edges[t][0]]++] = {c, t};  // edge (a,b) + c
    tidx.edge_tri[cursor[tri_edges[t][1]]++] = {b, t};  // edge (a,c) + b
    tidx.edge_tri[cursor[tri_edges[t][2]]++] = {a, t};  // edge (b,c) + a
  }
  // Sort each edge's slice by third vertex for binary search.
  for (EdgeIdx e = 0; e < m; ++e) {
    std::sort(tidx.edge_tri.begin() + tidx.edge_tri_start[e],
              tidx.edge_tri.begin() + tidx.edge_tri_start[e + 1]);
  }
  return tidx;
}

}  // namespace hcd
