#ifndef HCD_HCD_FOREST_H_
#define HCD_HCD_FOREST_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.h"
#include "graph/types.h"

namespace hcd {

using TreeNodeId = uint32_t;
inline constexpr TreeNodeId kInvalidNode =
    std::numeric_limits<TreeNodeId>::max();

/// The hierarchical core decomposition as the builders write it (Section
/// II-B, Figure 2; Algorithm 2 Steps 3-4): a parent-pointer forest of three
/// flat arrays. Each tree node T_i has a level k and a parent P(T_i)
/// (kInvalidNode for forest roots), and `Tid(v)` maps each element to its
/// unique containing node, so V(T_i) = {v : tid(v) = T_i}. Nothing is
/// grouped per node here: Freeze (hcd/flat_index.h) is the one place that
/// builds child lists and per-node element sets, and every query reads
/// the frozen index.
///
/// Construction protocol (PHCD, LCPS, the oracles): create nodes with
/// NewNode, place elements with Place, link with SetParent.
class HcdForest {
 public:
  HcdForest() : HcdForest(0) {}
  explicit HcdForest(VertexId num_elements)
      : tid_(num_elements, kInvalidNode) {}

  /// Creates an empty tree node at level `level`; returns its id.
  TreeNodeId NewNode(uint32_t level) {
    levels_.push_back(level);
    parents_.push_back(kInvalidNode);
    return static_cast<TreeNodeId>(levels_.size() - 1);
  }

  /// Places element `v` in node `node` (tid(v) = node). An element is
  /// placed exactly once.
  void Place(TreeNodeId node, VertexId v) {
    HCD_DCHECK(node < NumNodes());
    HCD_DCHECK(v < tid_.size());
    HCD_DCHECK(tid_[v] == kInvalidNode) << "element already placed";
    tid_[v] = node;
  }

  void SetParent(TreeNodeId child, TreeNodeId parent) {
    HCD_DCHECK(child < NumNodes());
    HCD_DCHECK(parent < NumNodes());
    parents_[child] = parent;
  }

  TreeNodeId NumNodes() const {
    return static_cast<TreeNodeId>(levels_.size());
  }
  VertexId NumVertices() const { return static_cast<VertexId>(tid_.size()); }

  uint32_t Level(TreeNodeId node) const { return levels_[node]; }
  TreeNodeId Parent(TreeNodeId node) const { return parents_[node]; }
  /// Node containing v, or kInvalidNode if v was never placed.
  TreeNodeId Tid(VertexId v) const { return tid_[v]; }

 private:
  std::vector<uint32_t> levels_;     // [N]
  std::vector<TreeNodeId> parents_;  // [N]
  std::vector<TreeNodeId> tid_;      // [n]
};

/// Elements of the node's original k-core (the union of its subtree's
/// element sets), ascending. Reads the three arrays only, without Freeze,
/// so tests can hold the frozen index against it; O(N + n) per call.
inline std::vector<VertexId> CoreVertices(const HcdForest& forest,
                                          TreeNodeId node) {
  // in_subtree[t]: 0 unknown, 1 inside node's subtree, 2 outside. Every
  // walk up stops at the first marked node, so marking all nodes is O(N).
  std::vector<uint8_t> in_subtree(forest.NumNodes(), 0);
  in_subtree[node] = 1;
  std::vector<TreeNodeId> path;
  for (TreeNodeId t = 0; t < forest.NumNodes(); ++t) {
    TreeNodeId u = t;
    while (u != kInvalidNode && in_subtree[u] == 0) {
      path.push_back(u);
      u = forest.Parent(u);
    }
    const uint8_t mark = u == kInvalidNode ? 2 : in_subtree[u];
    for (TreeNodeId w : path) in_subtree[w] = mark;
    path.clear();
  }
  std::vector<VertexId> core;
  for (VertexId v = 0; v < forest.NumVertices(); ++v) {
    const TreeNodeId t = forest.Tid(v);
    if (t != kInvalidNode && in_subtree[t] == 1) core.push_back(v);
  }
  return core;
}

}  // namespace hcd

#endif  // HCD_HCD_FOREST_H_
