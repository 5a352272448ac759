#include "nucleus/nucleus_hierarchy.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "hcd/pivot_forest.h"
#include "hcd/vertex_rank.h"

namespace hcd {

NucleusForest BuildNucleusHierarchy(const Graph& graph,
                                    const EdgeIndexer& eidx,
                                    const TriangleIndexer& tidx,
                                    const NucleusDecomposition& nd) {
  const auto& theta = nd.theta;
  return BuildPivotForest(
      theta, nd.k_max, "nucleus.construction",
      // The 4-clique scan walks the lowest-degree corner's neighbours.
      [&](TriIdx t) {
        const auto [a, b, c] = tidx.triangles[t];
        return std::min({graph.Degree(a), graph.Degree(b), graph.Degree(c)});
      },
      [&](TriIdx t, uint32_t k, auto&& link) {
        ForEachFourClique(graph, eidx, tidx, t,
                          [&](VertexId, TriIdx t1, TriIdx t2, TriIdx t3) {
                            if (theta[t1] < k || theta[t2] < k ||
                                theta[t3] < k) {
                              return;
                            }
                            link(t1);
                            link(t2);
                            link(t3);
                          });
      });
}

NucleusForest NaiveNucleusHierarchy(const Graph& graph,
                                    const EdgeIndexer& eidx,
                                    const TriangleIndexer& tidx,
                                    const NucleusDecomposition& nd) {
  const TriIdx num_tris = tidx.NumTriangles();
  NucleusForest forest(num_tris);
  if (num_tris == 0) return forest;

  const VertexRank tr = ComputeVertexRank(nd.theta, nd.k_max);

  struct Pending {
    TreeNodeId node;
    TriIdx rep;
  };
  std::vector<Pending> parentless;
  std::vector<int64_t> stamp(num_tris, -1);
  std::vector<TriIdx> comp_id(num_tris, 0);
  std::vector<TriIdx> stack;

  for (int64_t k = nd.k_max; k >= 0; --k) {
    const uint32_t ck = static_cast<uint32_t>(k);
    // Components over triangles with theta >= k, adjacency through
    // 4-cliques valid at level k.
    TriIdx num_comps = 0;
    for (TriIdx i = tr.shell_start[k]; i < num_tris; ++i) {
      const TriIdx src = tr.sorted[i];
      if (stamp[src] == k) continue;
      const TriIdx comp = num_comps++;
      stamp[src] = k;
      comp_id[src] = comp;
      stack.assign(1, src);
      while (!stack.empty()) {
        const TriIdx t = stack.back();
        stack.pop_back();
        ForEachFourClique(graph, eidx, tidx, t,
                          [&](VertexId, TriIdx t1, TriIdx t2, TriIdx t3) {
                            if (nd.theta[t1] < ck || nd.theta[t2] < ck ||
                                nd.theta[t3] < ck) {
                              return;
                            }
                            for (TriIdx other : {t1, t2, t3}) {
                              if (stamp[other] != k) {
                                stamp[other] = k;
                                comp_id[other] = comp;
                                stack.push_back(other);
                              }
                            }
                          });
      }
    }

    // One node per component with a non-empty shell; its first triangle is
    // the node's representative.
    std::vector<TreeNodeId> comp_node(num_comps, kInvalidNode);
    std::vector<Pending> created;
    for (TriIdx i = tr.shell_start[k]; i < tr.shell_start[k + 1]; ++i) {
      const TriIdx t = tr.sorted[i];
      TreeNodeId& node = comp_node[comp_id[t]];
      if (node == kInvalidNode) {
        node = forest.NewNode(ck);
        created.push_back({node, t});
      }
      forest.Place(node, t);
    }

    std::vector<Pending> still_pending;
    for (const Pending& p : parentless) {
      HCD_DCHECK(stamp[p.rep] == k);
      TreeNodeId node = comp_node[comp_id[p.rep]];
      if (node != kInvalidNode) {
        forest.SetParent(p.node, node);
      } else {
        still_pending.push_back(p);
      }
    }
    parentless = std::move(still_pending);
    parentless.insert(parentless.end(), created.begin(), created.end());
  }
  return forest;
}

FlatHcdIndex FreezeNucleus(const Graph& graph, const TriangleIndexer& tidx,
                           const NucleusForest& forest) {
  HCD_CHECK_EQ(forest.NumVertices(), tidx.NumTriangles())
      << "nucleus forest elements must be the indexer's triangles";
  std::vector<VertexId> members;
  members.reserve(3 * tidx.triangles.size());
  for (const auto& corners : tidx.triangles) {
    members.push_back(corners[0]);
    members.push_back(corners[1]);
    members.push_back(corners[2]);
  }
  return Freeze(forest, HierarchyKind::kNucleus, std::move(members),
                graph.NumVertices());
}

NucleusCommunity NucleusCommunityOf(const TriangleIndexer& tidx,
                                    const NucleusForest& forest,
                                    TreeNodeId node) {
  const std::vector<VertexId> tris = CoreVertices(forest, node);  // tri ids
  NucleusCommunity out;
  out.num_triangles = tris.size();
  out.vertices.reserve(3 * tris.size());
  for (const VertexId tri : tris) {
    for (const VertexId v : tidx.triangles[tri]) out.vertices.push_back(v);
  }
  std::sort(out.vertices.begin(), out.vertices.end());
  out.vertices.erase(std::unique(out.vertices.begin(), out.vertices.end()),
                     out.vertices.end());
  return out;
}

}  // namespace hcd
