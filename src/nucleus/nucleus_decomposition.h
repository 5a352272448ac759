#ifndef HCD_NUCLEUS_NUCLEUS_DECOMPOSITION_H_
#define HCD_NUCLEUS_NUCLEUS_DECOMPOSITION_H_

#include <vector>

#include "graph/graph.h"
#include "nucleus/triangle_index.h"
#include "truss/edge_index.h"

namespace hcd {

/// (3,4)-nucleus decomposition (Sariyuce & Pinar, cited by the paper's
/// related work): theta[t] is the largest k such that triangle t belongs to
/// a k-(3,4)-nucleus — a maximal set of triangles, connected through
/// common 4-cliques, in which every triangle participates in at least k
/// 4-cliques.
struct NucleusDecomposition {
  std::vector<uint32_t> theta;  ///< per TriIdx
  uint32_t k_max = 0;
};

/// 4-clique count per triangle (its support), computed in parallel;
/// O(sum over triangles of min-degree * log).
std::vector<uint32_t> ComputeTriangleSupports(const Graph& graph,
                                              const TriangleIndexer& tidx);

/// Nucleus decomposition by support peeling (the k-truss algorithm lifted
/// one level): the triangle instance of PeelLevels (core/peel_levels.h),
/// whose cliques are 4-cliques, peeled level-synchronously in increasing
/// support. Records a "nucleus.decomposition" stage (counters: levels,
/// k_max, compactions, rounds, max_frontier).
NucleusDecomposition PeelNucleusDecomposition(const Graph& graph,
                                              const EdgeIndexer& eidx,
                                              const TriangleIndexer& tidx);

/// Definition-driven oracle (repeated stripping per k, supports recomputed
/// from scratch); tests only.
NucleusDecomposition NaiveNucleusDecomposition(const Graph& graph,
                                               const EdgeIndexer& eidx,
                                               const TriangleIndexer& tidx);

}  // namespace hcd

#endif  // HCD_NUCLEUS_NUCLEUS_DECOMPOSITION_H_
