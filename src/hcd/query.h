#ifndef HCD_HCD_QUERY_H_
#define HCD_HCD_QUERY_H_

#include <span>

#include "core/core_decomposition.h"
#include "hcd/flat_index.h"

namespace hcd {

/// Local k-core queries on the frozen HCD index (the ShellStruct / CL-Tree
/// functionality the paper cites as applications of the structure): all
/// answers come from ancestor walks, with no graph traversal, and a
/// node's vertex set is the O(1) span FlatHcdIndex::CoreVertices. These
/// are what the query server (src/server/) evaluates per request.

/// The tree node of the k-core containing `v` on the frozen index, or
/// kInvalidNode when c(v) < k or `v` is out of range / never placed.
TreeNodeId NodeOfKCoreContaining(const FlatHcdIndex& index, VertexId v,
                                 uint32_t k);

/// The tree node of the k-core containing *all* of `vertices` (the node
/// every per-vertex ancestor walk lands on), or kInvalidNode when any
/// vertex is outside every k-core or the walks disagree. Empty input is
/// kInvalidNode — "all vertices" of an empty set names no core.
TreeNodeId NodeOfKCoreContainingAll(const FlatHcdIndex& index,
                                    std::span<const VertexId> vertices,
                                    uint32_t k);

/// Coreness of `v` as recorded by the frozen index (0 when out of range).
uint32_t CorenessOf(const FlatHcdIndex& index, VertexId v);

/// The core decomposition a core index records: coreness[v] =
/// CorenessOf(index, v) for every vertex, k_max the largest level (0 for
/// an index without nodes). One parallel O(n) pass, equal to peeling the
/// graph the index was built from; no graph is read.
CoreDecomposition CoreDecompositionOf(const FlatHcdIndex& index);

/// True iff u and v belong to a common k-core on the frozen index.
bool InSameKCore(const FlatHcdIndex& index, VertexId u, VertexId v,
                 uint32_t k);

}  // namespace hcd

#endif  // HCD_HCD_QUERY_H_
