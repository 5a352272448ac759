#ifndef HCD_CORE_CORE_DECOMPOSITION_H_
#define HCD_CORE_CORE_DECOMPOSITION_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hcd {

/// Coreness values for one graph (Section II-A): coreness[v] is the largest
/// k such that v belongs to a k-core.
struct CoreDecomposition {
  std::vector<uint32_t> coreness;
  /// Graph degeneracy: the largest k with a non-empty k-core.
  uint32_t k_max = 0;

  uint32_t operator[](VertexId v) const { return coreness[v]; }
};

/// Sizes of the k-shells H_0..H_kmax (|result| == k_max + 1).
std::vector<VertexId> KShellSizes(const CoreDecomposition& cd);

/// Serial Batagelj-Zaversnik peeling, O(m) (reference serial algorithm,
/// "CD" in the paper's Figure 10). Records a "decomposition" stage
/// (counters: k_max).
CoreDecomposition BzCoreDecomposition(const Graph& graph);

/// Parallel PKC-style core decomposition (Kabir & Madduri): the vertex
/// instance of PeelLevels (core/peel_levels.h), whose cliques are edges.
/// Level-synchronous peeling with thread-local worklists, atomic degree
/// decrements and compacted scans; a round whose work stays below
/// kParallelGrain runs on one thread. Uses the current OpenMP thread count.
/// Records a "decomposition" stage (counters: levels, k_max, compactions,
/// rounds, max_frontier).
CoreDecomposition PkcCoreDecomposition(const Graph& graph);

}  // namespace hcd

#endif  // HCD_CORE_CORE_DECOMPOSITION_H_
