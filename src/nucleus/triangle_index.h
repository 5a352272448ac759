#ifndef HCD_NUCLEUS_TRIANGLE_INDEX_H_
#define HCD_NUCLEUS_TRIANGLE_INDEX_H_

#include <array>
#include <utility>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"
#include "truss/edge_index.h"

namespace hcd {

/// Identifier of a triangle: 0..T-1 in enumeration order.
using TriIdx = uint32_t;
inline constexpr TriIdx kInvalidTriangle = 0xFFFFFFFFu;

/// Enumerates and indexes all triangles of a graph: the substrate for
/// (3,4)-nucleus decomposition, where triangles play the role vertices
/// play for k-core and edges for k-truss.
struct TriangleIndexer {
  /// Vertices of each triangle, ascending.
  std::vector<std::array<VertexId, 3>> triangles;
  /// Per-edge slices of (third vertex, triangle id), sorted by third
  /// vertex; 3 entries per triangle overall.
  std::vector<uint64_t> edge_tri_start;                    // size m+1
  std::vector<std::pair<VertexId, TriIdx>> edge_tri;       // size 3T

  TriIdx NumTriangles() const {
    return static_cast<TriIdx>(triangles.size());
  }

  /// Triangle id completing edge `e` with vertex `w`, or kInvalidTriangle.
  /// O(log #triangles on e).
  TriIdx IdOf(EdgeIdx e, VertexId w) const;
};

/// Builds the indexer; O(m^1.5) enumeration plus a counting sort of the
/// per-edge membership lists. Requires the triangle count to fit uint32.
TriangleIndexer BuildTriangleIndexer(const Graph& graph,
                                     const EdgeIndexer& eidx);

/// Invokes fn(x, t1, t2, t3) for every 4-clique {a,b,c,x} over triangle
/// tri = (a,b,c), where t1..t3 are the ids of the three other triangles.
/// Scans the lowest-degree corner's adjacency.
template <typename Fn>
void ForEachFourClique(const Graph& graph, const EdgeIndexer& eidx,
                       const TriangleIndexer& tidx, TriIdx tri, Fn&& fn) {
  const auto [a, b, c] = tidx.triangles[tri];
  const EdgeIdx e_ab = eidx.IdOf(graph, a, b);
  const EdgeIdx e_ac = eidx.IdOf(graph, a, c);
  const EdgeIdx e_bc = eidx.IdOf(graph, b, c);
  VertexId p = a;
  VertexId q = b;
  VertexId r = c;
  if (graph.Degree(q) < graph.Degree(p)) std::swap(p, q);
  if (graph.Degree(r) < graph.Degree(p)) std::swap(p, r);
  for (VertexId x : graph.Neighbors(p)) {
    if (x == a || x == b || x == c) continue;
    if (!graph.HasEdge(q, x) || !graph.HasEdge(r, x)) continue;
    const TriIdx t1 = tidx.IdOf(e_ab, x);
    const TriIdx t2 = tidx.IdOf(e_ac, x);
    const TriIdx t3 = tidx.IdOf(e_bc, x);
    HCD_DCHECK(t1 != kInvalidTriangle && t2 != kInvalidTriangle &&
               t3 != kInvalidTriangle);
    fn(x, t1, t2, t3);
  }
}

}  // namespace hcd

#endif  // HCD_NUCLEUS_TRIANGLE_INDEX_H_
