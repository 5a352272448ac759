#ifndef HCD_HCD_PHCD_H_
#define HCD_HCD_PHCD_H_

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/forest.h"

namespace hcd {

/// Parallel HCD construction (the paper's Algorithm 2).
///
/// Starting from an empty graph, adds the k-shells in descending k and
/// builds the forest bottom-up. Connectivity of the growing graph is
/// maintained in a wait-free union-find whose components each track their
/// *pivot* — the member with the lowest vertex rank (Definitions 4-5). For
/// each k:
///   Step 1  records the pivots of the existing (k+1)-cores adjacent to the
///           k-shell (these become children of this round's new nodes);
///   Step 2  unions every k-shell vertex with its neighbors of coreness
///           >= k;
///   Step 3  groups the k-shell into new tree nodes by pivot;
///   Step 4  assigns each recorded child pivot's node the node of its
///           component's new pivot as parent.
/// Steps run as parallel loops over the k-shell separated by barriers, so
/// pivot reads always observe quiescent union-find state.
///
/// Work: O(n sqrt(p) + m alpha(n)) union-find operations overall. Uses the
/// current OpenMP thread count; with one thread this is the paper's
/// "PHCD (1)" serial configuration.
///
/// Requires `cd` to be the core decomposition of `graph`. Records a
/// "construction" stage (counters: shells, nodes).
HcdForest PhcdBuild(const Graph& graph, const CoreDecomposition& cd);

}  // namespace hcd

#endif  // HCD_HCD_PHCD_H_
