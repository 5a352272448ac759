#ifndef HCD_HCD_VERTEX_RANK_H_
#define HCD_HCD_VERTEX_RANK_H_

#include <span>
#include <vector>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace hcd {

/// Output of the paper's Algorithm 1: all vertices sorted by vertex rank
/// (Definition 4: ascending coreness, ties by ascending id), the inverse
/// permutation r(v), and the k-shell boundaries inside the sorted order.
struct VertexRank {
  /// Vsort: vertices sorted by vertex rank.
  std::vector<VertexId> sorted;
  /// r(v): position of v in `sorted`. Lower value = lower vertex rank.
  std::vector<VertexId> rank;
  /// shell_start[k] .. shell_start[k+1] delimit H_k inside `sorted`;
  /// size k_max + 2.
  std::vector<VertexId> shell_start;

  /// The k-shell H_k as a slice of the sorted order.
  std::span<const VertexId> Shell(uint32_t k) const {
    return {sorted.data() + shell_start[k],
            static_cast<size_t>(shell_start[k + 1] - shell_start[k])};
  }
};

/// Computes the rank in parallel (Algorithm 1): a stable counting sort by
/// level with per-thread shell bins. Every hierarchy kind uses it: `level`
/// holds one entry per element (a vertex's coreness, an edge's trussness, a
/// triangle's nucleus number), each at most `max_level`, and the result
/// orders elements by ascending (level, id). O(n) work.
VertexRank ComputeVertexRank(std::span<const uint32_t> level,
                             uint32_t max_level);

/// The vertex rank of Definition 4: ComputeVertexRank over the coreness.
inline VertexRank ComputeVertexRank(const CoreDecomposition& cd) {
  return ComputeVertexRank(cd.coreness, cd.k_max);
}

/// A coreness-major order for orienting edges: ascending coreness, then,
/// inside a shell, ascending degree class std::bit_width(degree), then
/// ascending id. `shell_start` equals ComputeVertexRank's. Orienting every
/// edge towards the higher rank bounds a vertex's same-shell out-degree by
/// the number of vertices of at least half its degree, O(sqrt(m)), where
/// the id tie-break of Definition 4 leaves it unbounded (DESIGN.md §14).
/// Built as ComputeVertexRank, then each shell slice is refined by a
/// stable counting sort over 33 degree classes; a shell is refined whole
/// by one thread, so the buckets are 33 per thread and the sort needs no
/// array beyond the result. O(n) work.
VertexRank ComputeOrientationRank(const Graph& graph,
                                  const CoreDecomposition& cd);

}  // namespace hcd

#endif  // HCD_HCD_VERTEX_RANK_H_
