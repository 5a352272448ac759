#include "hcd/query.h"

#include "common/check.h"
#include "parallel/omp_utils.h"

namespace hcd {

TreeNodeId NodeOfKCoreContaining(const FlatHcdIndex& index, VertexId v,
                                 uint32_t k) {
  if (v >= index.NumVertices()) return kInvalidNode;
  TreeNodeId node = index.Tid(v);
  if (node == kInvalidNode || index.Level(node) < k) return kInvalidNode;
  while (true) {
    const TreeNodeId parent = index.Parent(node);
    if (parent == kInvalidNode || index.Level(parent) < k) return node;
    node = parent;
  }
}

TreeNodeId NodeOfKCoreContainingAll(const FlatHcdIndex& index,
                                    std::span<const VertexId> vertices,
                                    uint32_t k) {
  if (vertices.empty()) return kInvalidNode;
  TreeNodeId common = kInvalidNode;
  for (const VertexId v : vertices) {
    const TreeNodeId node = NodeOfKCoreContaining(index, v, k);
    if (node == kInvalidNode) return kInvalidNode;
    if (common == kInvalidNode) {
      common = node;
    } else if (node != common) {
      return kInvalidNode;
    }
  }
  return common;
}

uint32_t CorenessOf(const FlatHcdIndex& index, VertexId v) {
  if (v >= index.NumVertices()) return 0;
  const TreeNodeId node = index.Tid(v);
  return node == kInvalidNode ? 0 : index.Level(node);
}

CoreDecomposition CoreDecompositionOf(const FlatHcdIndex& index) {
  HCD_CHECK(index.kind() == HierarchyKind::kCore)
      << "only a core index records vertex coreness";
  CoreDecomposition cd;
  cd.coreness.resize(index.NumVertices());
  ParallelFor(VertexId{0}, index.NumVertices(),
              [&](VertexId v) { cd.coreness[v] = CorenessOf(index, v); });
  // The first level group holds the largest level.
  if (index.NumNodes() > 0) cd.k_max = index.Level(index.LevelGroup(0)[0]);
  return cd;
}

bool InSameKCore(const FlatHcdIndex& index, VertexId u, VertexId v,
                 uint32_t k) {
  const TreeNodeId nu = NodeOfKCoreContaining(index, u, k);
  if (nu == kInvalidNode) return false;
  return nu == NodeOfKCoreContaining(index, v, k);
}

}  // namespace hcd
