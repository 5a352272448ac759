#include "hcd/divide_conquer.h"

#include <vector>

#include "common/check.h"
#include "hcd/local_core_search.h"
#include "hcd/vertex_rank.h"
#include "parallel/union_find.h"

namespace hcd {

HcdForest DivideAndConquerHcd(const Graph& graph, const CoreDecomposition& cd,
                              int num_partitions) {
  const VertexId n = graph.NumVertices();
  HcdForest forest(n);
  if (n == 0) return forest;
  HCD_CHECK_GE(num_partitions, 1);

  const VertexRank vr = ComputeVertexRank(cd);
  std::vector<uint32_t> part(n);
  for (VertexId v = 0; v < n; ++v) {
    part[v] = static_cast<uint32_t>(static_cast<uint64_t>(v) *
                                    num_partitions / n);
  }

  // Step 2: partial tree nodes — pivot grouping restricted to
  // intra-partition edges, shells in descending k.
  UnionFind uf(n, vr.rank.data());
  std::vector<uint32_t> partial_of(n, 0);
  std::vector<VertexId> partial_rep;   // pivot vertex per partial node
  std::vector<uint32_t> partial_level;
  for (int64_t k = cd.k_max; k >= 0; --k) {
    const auto shell = vr.Shell(static_cast<uint32_t>(k));
    for (VertexId v : shell) {
      for (VertexId u : graph.Neighbors(v)) {
        if (part[u] != part[v]) continue;
        if (cd.coreness[u] > static_cast<uint32_t>(k) ||
            (cd.coreness[u] == static_cast<uint32_t>(k) && u > v)) {
          uf.Union(v, u);
        }
      }
    }
    for (VertexId v : shell) {
      const VertexId pvt = uf.GetPivot(v);
      if (pvt == v) {
        partial_of[v] = static_cast<uint32_t>(partial_rep.size());
        partial_rep.push_back(v);
        partial_level.push_back(static_cast<uint32_t>(k));
      }
    }
    for (VertexId v : shell) {
      const VertexId pvt = uf.GetPivot(v);
      if (pvt != v) partial_of[v] = partial_of[pvt];
    }
  }

  // Step 3/4: merge partial nodes into the true tree nodes with one local
  // k-core search per final node (the expensive part of the paradigm).
  std::vector<TreeNodeId> final_of_partial(partial_rep.size(), kInvalidNode);
  std::vector<uint32_t> stamp(n, 0);
  std::vector<VertexId> stack;
  uint32_t bfs_id = 0;
  for (size_t p = 0; p < partial_rep.size(); ++p) {
    if (final_of_partial[p] != kInvalidNode) continue;
    const uint32_t k = partial_level[p];
    const TreeNodeId node = forest.NewNode(k);
    ++bfs_id;
    stack.assign(1, partial_rep[p]);
    stamp[partial_rep[p]] = bfs_id;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      if (cd.coreness[v] == k) {
        forest.Place(node, v);
        final_of_partial[partial_of[v]] = node;
      }
      for (VertexId u : graph.Neighbors(v)) {
        if (stamp[u] != bfs_id && cd.coreness[u] >= k) {
          stamp[u] = bfs_id;
          stack.push_back(u);
        }
      }
    }
  }

  // Step 5: parent-child relations via local k-core searches (RC).
  const std::vector<TreeNodeId> parents = RcComputeParents(graph, cd, forest);
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    if (parents[t] != kInvalidNode) forest.SetParent(t, parents[t]);
  }
  return forest;
}

}  // namespace hcd
