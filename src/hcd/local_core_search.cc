#include "hcd/local_core_search.h"

#include <vector>

#include "common/check.h"
#include "parallel/omp_utils.h"

namespace hcd {

std::vector<VertexId> LocalCoreSearch(const Graph& graph,
                                      const CoreDecomposition& cd,
                                      VertexId v) {
  const uint32_t k = cd.coreness[v];
  std::vector<bool> seen(graph.NumVertices(), false);
  std::vector<VertexId> result;
  std::vector<VertexId> stack = {v};
  seen[v] = true;
  while (!stack.empty()) {
    VertexId x = stack.back();
    stack.pop_back();
    result.push_back(x);
    for (VertexId u : graph.Neighbors(x)) {
      if (!seen[u] && cd.coreness[u] >= k) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  return result;
}

std::vector<TreeNodeId> RcComputeParents(const Graph& graph,
                                         const CoreDecomposition& cd,
                                         const HcdForest& forest) {
  const TreeNodeId num_nodes = forest.NumNodes();
  const VertexId n = graph.NumVertices();
  std::vector<TreeNodeId> parents(num_nodes, kInvalidNode);
  if (num_nodes == 0) return parents;

  // One seed per node, its smallest vertex, from one pass over tid.
  std::vector<VertexId> seed_of(num_nodes, kInvalidVertex);
  for (VertexId v = n; v-- > 0;) {
    if (forest.Tid(v) != kInvalidNode) seed_of[forest.Tid(v)] = v;
  }

  const int pmax = MaxThreads();
  // Per-thread best container found so far for every node: the ancestor
  // with the largest level strictly below the node's own level is its
  // parent.
  std::vector<std::vector<TreeNodeId>> best(
      pmax, std::vector<TreeNodeId>(num_nodes, kInvalidNode));

#pragma omp parallel num_threads(pmax)
  {
    const int p = ThreadId();
    auto& my_best = best[p];
    // Epoch-stamped visited marks: one BFS per tree node.
    std::vector<TreeNodeId> stamp(n, kInvalidNode);
    std::vector<VertexId> stack;

#pragma omp for schedule(dynamic, 1)
    for (int64_t ti = 0; ti < static_cast<int64_t>(num_nodes); ++ti) {
      const TreeNodeId t = static_cast<TreeNodeId>(ti);
      const uint32_t k = forest.Level(t);
      const VertexId seed = seed_of[t];
      stack.assign(1, seed);
      stamp[seed] = t;
      while (!stack.empty()) {
        VertexId v = stack.back();
        stack.pop_back();
        TreeNodeId tv = forest.Tid(v);
        if (tv != t && forest.Level(tv) > k) {
          TreeNodeId cur = my_best[tv];
          if (cur == kInvalidNode || forest.Level(cur) < k) my_best[tv] = t;
        }
        for (VertexId u : graph.Neighbors(v)) {
          if (stamp[u] != t && cd.coreness[u] >= k) {
            stamp[u] = t;
            stack.push_back(u);
          }
        }
      }
    }
  }

  for (TreeNodeId t = 0; t < num_nodes; ++t) {
    for (int p = 0; p < pmax; ++p) {
      TreeNodeId cand = best[p][t];
      if (cand == kInvalidNode) continue;
      if (parents[t] == kInvalidNode ||
          forest.Level(parents[t]) < forest.Level(cand)) {
        parents[t] = cand;
      }
    }
  }
  return parents;
}

}  // namespace hcd
