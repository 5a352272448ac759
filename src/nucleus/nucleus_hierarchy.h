#ifndef HCD_NUCLEUS_NUCLEUS_HIERARCHY_H_
#define HCD_NUCLEUS_NUCLEUS_HIERARCHY_H_

#include <vector>

#include "hcd/flat_index.h"
#include "hcd/forest.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/triangle_index.h"
#include "truss/edge_index.h"

namespace hcd {

/// Hierarchical (3,4)-nucleus decomposition. The paper's related work
/// observes that no parallel algorithm existed for nucleus hierarchy
/// construction; this is the PHCD paradigm lifted once more — elements are
/// triangles, connectivity comes from shared 4-cliques, shells are added
/// in descending nucleus number with the pivot union-find, and parents are
/// recovered exactly as in Algorithm 2's Steps 1-4.
///
/// Reuses HcdForest with elements = TriIdx.
using NucleusForest = HcdForest;

/// Parallel nucleus hierarchy construction: BuildPivotForest
/// (hcd/pivot_forest.h), PHCD's Algorithm 2 shell loop, over triangles
/// by nucleus number. A shell triangle links to t1, t2 and t3 of every
/// 4-clique whose four triangles all have nucleus number at least the
/// shell's. A 4-clique valid at a higher level was unioned whole in that
/// level's shell, so the pivot capture is exact: only a link from a shell
/// triangle first touches a higher component (DESIGN.md §13). Shell work
/// is each triangle's lowest corner degree, the length of its 4-clique
/// scan, under the same kParallelGrain rule. Records a
/// "nucleus.construction" stage (counters: shells, nodes,
/// parallel_shells). O(sum over triangles of 4-clique enumerations *
/// alpha) after the decomposition.
NucleusForest BuildNucleusHierarchy(const Graph& graph,
                                    const EdgeIndexer& eidx,
                                    const TriangleIndexer& tidx,
                                    const NucleusDecomposition& nd);

/// Definition-driven oracle (per-level BFS over the 4-clique adjacency of
/// alive triangles); tests only.
NucleusForest NaiveNucleusHierarchy(const Graph& graph,
                                    const EdgeIndexer& eidx,
                                    const TriangleIndexer& tidx,
                                    const NucleusDecomposition& nd);

/// A nucleus community as a vertex set: the distinct corners of the
/// subtree's triangles, plus the triangle count. Density is the triangle
/// analogue of average degree (triangle-slots per distinct vertex).
struct NucleusCommunity {
  std::vector<VertexId> vertices;
  uint64_t num_triangles = 0;
  double Density() const {
    return vertices.empty() ? 0.0
                            : 3.0 * static_cast<double>(num_triangles) /
                                  static_cast<double>(vertices.size());
  }
};

/// Builder-forest community-of over CoreVertices(forest, node), O(N + T)
/// per call: the test oracle for CommunityOf and the search tables'
/// distinct-vertex rows (search/search_index.h), which serve the frozen
/// index.
NucleusCommunity NucleusCommunityOf(const TriangleIndexer& tidx,
                                    const NucleusForest& forest,
                                    TreeNodeId node);

// --- frozen (serve-phase) forms --------------------------------------------

/// Kind-tagged freeze of a nucleus forest: HierarchyKind::kNucleus with
/// the triangle -> corner materialization (TriangleIndexer::triangles
/// flattened, corners ascending). Serves every flat-index query and
/// snapshots like a core index.
FlatHcdIndex FreezeNucleus(const Graph& graph, const TriangleIndexer& tidx,
                           const NucleusForest& forest);

}  // namespace hcd

#endif  // HCD_NUCLEUS_NUCLEUS_HIERARCHY_H_
