#include "hcd/naive_hcd.h"

#include <vector>

#include "common/check.h"
#include "hcd/vertex_rank.h"

namespace hcd {

HcdForest NaiveHcdBuild(const Graph& graph, const CoreDecomposition& cd) {
  const VertexId n = graph.NumVertices();
  HcdForest forest(n);
  if (n == 0) return forest;

  const VertexRank vr = ComputeVertexRank(cd);

  std::vector<int64_t> stamp(n, -1);   // round in which comp_id[v] is valid
  std::vector<VertexId> comp_id(n, 0);
  std::vector<VertexId> queue;

  struct Pending {
    TreeNodeId node;
    VertexId rep;  // any vertex of the node, for component lookup
  };
  std::vector<Pending> parentless;

  for (int64_t k = cd.k_max; k >= 0; --k) {
    // Vertices with coreness >= k form the suffix of the rank order.
    const VertexId begin = vr.shell_start[k];
    const auto active = std::span<const VertexId>(
        vr.sorted.data() + begin, vr.sorted.size() - begin);

    // Label connected components of the active subgraph.
    VertexId num_comps = 0;
    for (VertexId src : active) {
      if (stamp[src] == k) continue;
      const VertexId comp = num_comps++;
      stamp[src] = k;
      comp_id[src] = comp;
      queue.assign(1, src);
      while (!queue.empty()) {
        VertexId v = queue.back();
        queue.pop_back();
        for (VertexId u : graph.Neighbors(v)) {
          if (cd.coreness[u] >= static_cast<uint32_t>(k) && stamp[u] != k) {
            stamp[u] = k;
            comp_id[u] = comp;
            queue.push_back(u);
          }
        }
      }
    }

    // One node per component with a non-empty k-shell part; its first
    // vertex is the node's representative.
    std::vector<TreeNodeId> comp_node(num_comps, kInvalidNode);
    std::vector<Pending> created;
    for (VertexId v : vr.Shell(static_cast<uint32_t>(k))) {
      TreeNodeId& node = comp_node[comp_id[v]];
      if (node == kInvalidNode) {
        node = forest.NewNode(static_cast<uint32_t>(k));
        created.push_back({node, v});
      }
      forest.Place(node, v);
    }

    // Adopt parentless higher-level nodes whose component gained a node.
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

}  // namespace hcd
