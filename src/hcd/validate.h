#ifndef HCD_HCD_VALIDATE_H_
#define HCD_HCD_VALIDATE_H_

#include "common/status.h"
#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "hcd/forest.h"

namespace hcd {

/// Checks every HCD invariant of the frozen hierarchy against `graph` and
/// `cd`:
///  - every vertex belongs to exactly one node whose level equals its
///    coreness;
///  - parent levels are strictly below child levels;
///  - every node's original k-core (subtree vertex union) is connected in
///    the coreness>=k subgraph, has minimum internal degree >= k, and is
///    maximal (no adjacent coreness>=k vertex outside it).
/// Returns OK or a Corruption status describing the first violation.
/// O(sum of core sizes) = O(k_max * m) worst case; intended for tests.
Status ValidateHcd(const Graph& graph, const CoreDecomposition& cd,
                   const FlatHcdIndex& index);

/// Structural equality of two HCDs over the same element set, read from
/// Level, Parent and Tid alone: tid must induce a bijection between the
/// nodes (every node non-empty) that keeps levels and parents. Node ids
/// and element orders inside nodes may differ, so a builder's forest can
/// be compared against a frozen index, its own or another builder's.
bool HcdEquals(const HcdForest& a, const FlatHcdIndex& b);
bool HcdEquals(const FlatHcdIndex& a, const FlatHcdIndex& b);

}  // namespace hcd

#endif  // HCD_HCD_VALIDATE_H_
