#ifndef HCD_SEARCH_ELEMENT_SEARCH_H_
#define HCD_SEARCH_ELEMENT_SEARCH_H_

#include <memory>
#include <vector>

#include "hcd/flat_index.h"
#include "search/search_index.h"

namespace hcd {

/// Serve-phase product for element hierarchies (truss / nucleus): the
/// SearchIndex analogue over a kind-tagged FlatHcdIndex, served through the
/// same query path (server::ExecuteQuery) as the core hierarchy. The
/// hierarchies share one tree shape, so only the node score differs: the
/// constructor eagerly computes, per tree node, the distinct-member-vertex
/// count of its community (parallel over nodes with per-thread stamp
/// arrays) and the density score
///
///     density(t) = arity * |elements(t)| / |vertices(t)|
///
/// which for a truss community is exactly its average degree (2m/n), so
/// BestAtLeast(0) is the densest k-truss, with the builder oracle
/// DensestTruss's density bit for bit. It then keeps
/// one per-level best-node table over density (BestNodeByLevel). The object
/// is deeply const after construction: any number of threads may query it
/// concurrently, each with its own SearchWorkspace — the
/// QuerySnapshot-grade contract the socket server's workers rely on.
///
/// Construction records the "search.element" stage.
class ElementSearchIndex {
 public:
  /// The index must be non-core (a core hierarchy scores through the
  /// metric machinery of SearchIndex instead). Shares ownership of the
  /// flat index so the search object can outlive its builder.
  explicit ElementSearchIndex(std::shared_ptr<const FlatHcdIndex> flat);

  ElementSearchIndex(const ElementSearchIndex&) = delete;
  ElementSearchIndex& operator=(const ElementSearchIndex&) = delete;

  const FlatHcdIndex& flat() const { return *flat_; }
  HierarchyKind kind() const { return flat_->kind(); }

  /// Distinct member vertices of node t's community. O(1).
  uint64_t CommunityVertices(TreeNodeId t) const {
    return community_vertices_[t];
  }
  /// Density of node t's community. O(1).
  double Density(TreeNodeId t) const { return density_[t]; }

  /// Densest community among nodes of level >= k, or kInvalidNode when no
  /// node reaches level k; k == 0 is the globally densest. Ties go to the
  /// lower preorder id. O(1).
  TreeNodeId BestAtLeast(uint32_t k) const {
    return k < best_.size() ? best_[k] : kInvalidNode;
  }

  /// Appends the distinct member vertices of node t's community (its
  /// k-truss / k-nucleus) to `*out` in ascending order; appends nothing
  /// for kInvalidNode. O(answer).
  void CommunityOf(TreeNodeId t, SearchWorkspace* ws,
                   std::vector<VertexId>* out) const;

 private:
  std::shared_ptr<const FlatHcdIndex> flat_;
  std::vector<uint64_t> community_vertices_;  ///< per node, distinct
  std::vector<double> density_;               ///< per node
  std::vector<TreeNodeId> best_;              ///< BestNodeByLevel(density_)
};

}  // namespace hcd

#endif  // HCD_SEARCH_ELEMENT_SEARCH_H_
