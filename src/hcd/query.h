#ifndef HCD_HCD_QUERY_H_
#define HCD_HCD_QUERY_H_

#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "hcd/flat_index.h"
#include "hcd/forest.h"

namespace hcd {

/// Local k-core queries on the HCD index (the ShellStruct / CL-Tree
/// functionality the paper cites as applications of the structure): all
/// answers come from ancestor walks plus subtree collection, with no graph
/// traversal.

/// The tree node associated with the k-core containing `v`: the highest
/// ancestor of tid(v) whose level is still >= k. Returns kInvalidNode when
/// c(v) < k (v is in no k-core).
TreeNodeId NodeOfKCoreContaining(const HcdForest& forest, VertexId v,
                                 uint32_t k);

/// Vertex set of the k-core containing `v` (empty when there is none).
/// O(answer size) after the ancestor walk.
std::vector<VertexId> KCoreContaining(const HcdForest& forest, VertexId v,
                                      uint32_t k);

/// Coreness of `v` as recorded by the index (level of its tree node).
uint32_t CorenessOf(const HcdForest& forest, VertexId v);

/// True iff u and v belong to a common k-core.
bool InSameKCore(const HcdForest& forest, VertexId u, VertexId v, uint32_t k);

// --- FlatHcdIndex overloads -------------------------------------------------
//
// The serve phase never touches the builder forest, so the same local
// queries exist on the frozen index (same ancestor-walk answers; vertex
// sets come back as O(1) spans instead of allocated vectors). These are
// what the query server (src/server/) evaluates per request.

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
