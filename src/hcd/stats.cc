#include "hcd/stats.h"

#include <algorithm>
#include <sstream>

namespace hcd {

ForestStats ComputeForestStats(const FlatHcdIndex& index) {
  ForestStats stats;
  stats.num_nodes = index.NumNodes();
  if (stats.num_nodes == 0) return stats;

  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    stats.max_level = std::max(stats.max_level, index.Level(t));
    // Children in preorder: t + 1, then one subtree after the other.
    uint32_t branching = 0;
    for (TreeNodeId c = t + 1; c < t + index.SubtreeNodes(t);
         c += index.SubtreeNodes(c)) {
      ++branching;
    }
    stats.max_branching = std::max(stats.max_branching, branching);
    if (index.Parent(t) == kInvalidNode) ++stats.num_roots;
  }
  stats.nodes_per_level.assign(stats.max_level + 1, 0);
  stats.elements_per_level.assign(stats.max_level + 1, 0);
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    ++stats.nodes_per_level[index.Level(t)];
    stats.elements_per_level[index.Level(t)] += index.Vertices(t).size();
  }

  // Depth via one pass in ascending-level order: a parent's depth is final
  // before any of its (strictly higher-level) children are visited.
  std::vector<uint32_t> depth(index.NumNodes(), 1);
  const auto order = index.NodesByDescendingLevel();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TreeNodeId t = *it;
    const TreeNodeId p = index.Parent(t);
    if (p != kInvalidNode) depth[t] = depth[p] + 1;
    stats.depth = std::max(stats.depth, depth[t]);
  }
  return stats;
}

std::string ForestStatsToString(const ForestStats& stats) {
  std::ostringstream out;
  out << "nodes         " << stats.num_nodes << "\n";
  out << "roots         " << stats.num_roots << "\n";
  out << "depth         " << stats.depth << "\n";
  out << "max branching " << stats.max_branching << "\n";
  out << "max level     " << stats.max_level << "\n";
  if (!stats.nodes_per_level.empty()) {
    out << "levels (k: nodes/elements):\n";
    const uint32_t step =
        std::max<uint32_t>(1, (stats.max_level + 1) / 12);
    for (uint32_t k = 0; k <= stats.max_level; k += step) {
      out << "  " << k << ": " << stats.nodes_per_level[k] << "/"
          << stats.elements_per_level[k] << "\n";
    }
  }
  return out.str();
}

}  // namespace hcd
