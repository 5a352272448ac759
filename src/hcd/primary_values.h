#ifndef HCD_HCD_PRIMARY_VALUES_H_
#define HCD_HCD_PRIMARY_VALUES_H_

#include <cstddef>
#include <cstdint>

#include "hcd/hierarchy_kind.h"

namespace hcd {

/// Primary values of one subgraph S (Section II-D). Edge counts are stored
/// doubled (2*m(S)) so per-vertex contributions stay integral. One row
/// holds both the type-A fields (n, 2m, b) and the type-B ones (Delta, t),
/// so a core index's search tables keep a single row per tree node. A
/// truss or nucleus index's row holds only n_s, the distinct member
/// vertices of the node's community; its other fields are 0.
struct PrimaryValues {
  uint64_t n_s = 0;        ///< n(S): vertices
  uint64_t edges2 = 0;     ///< 2*m(S): twice the internal edge count
  uint64_t boundary = 0;   ///< b(S): boundary edges
  uint64_t triangles = 0;  ///< Delta(S)
  uint64_t triplets = 0;   ///< t(S): paths of length 2
};

/// Per-level best-node tables a core index carries with its primaries: one
/// per search metric (search/metrics.h checks the count).
inline constexpr size_t kNumBestTables = 9;

/// Best-node tables an index of `kind` carries: one per metric for core,
/// and one (density) for truss and nucleus, whose communities score by
/// density whatever the metric.
constexpr size_t NumBestTables(HierarchyKind kind) {
  return kind == HierarchyKind::kCore ? kNumBestTables : 1;
}

}  // namespace hcd

#endif  // HCD_HCD_PRIMARY_VALUES_H_
