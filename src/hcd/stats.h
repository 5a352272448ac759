#ifndef HCD_HCD_STATS_H_
#define HCD_HCD_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hcd/flat_index.h"

namespace hcd {

/// Structural statistics of a frozen hierarchy (vertex, edge or triangle
/// elements), for exploration and reporting (Table II's |T| plus the shape
/// the paper discusses qualitatively).
struct ForestStats {
  TreeNodeId num_nodes = 0;
  uint64_t num_roots = 0;
  /// Longest root-to-leaf path, counted in nodes (0 for an empty forest).
  uint32_t depth = 0;
  /// Largest number of children of any node.
  uint32_t max_branching = 0;
  /// Largest level (k) with a node.
  uint32_t max_level = 0;
  /// nodes_per_level[k]: number of tree nodes at level k.
  std::vector<uint64_t> nodes_per_level;
  /// elements_per_level[k]: total elements stored in level-k nodes.
  std::vector<uint64_t> elements_per_level;
};

/// Computes the statistics in O(|T|).
ForestStats ComputeForestStats(const FlatHcdIndex& index);

/// Multi-line human-readable rendering of the statistics.
std::string ForestStatsToString(const ForestStats& stats);

}  // namespace hcd

#endif  // HCD_HCD_STATS_H_
