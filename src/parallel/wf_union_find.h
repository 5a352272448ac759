#ifndef HCD_PARALLEL_WF_UNION_FIND_H_
#define HCD_PARALLEL_WF_UNION_FIND_H_

#include <atomic>
#include <memory>

#include "common/check.h"
#include "graph/types.h"

namespace hcd {

/// Lock-free concurrent union-find with the paper's pivot extension
/// (Section III-B, after Anderson & Woll's wait-free union-find).
///
/// Concurrency contract, matching how PHCD uses the structure:
///  - Union() may be called concurrently from any number of threads;
///  - Find() / SameSet() may be called concurrently with Union();
///  - GetPivot() returns the exact lowest-vertex-rank member of the
///    component once all concurrent Union() calls have completed (PHCD's
///    steps are separated by parallel-for barriers, so pivot reads always
///    happen in quiescent phases). During concurrent unions a pivot read
///    may transiently miss an in-flight merge.
///
/// Pivot maintenance: the pivot lives at the component root and is updated
/// with an atomic rank-min. A propagating thread that discovers its target
/// was linked away re-propagates to the new root, so no update is lost
/// (see PropagatePivot).
class WaitFreeUnionFind {
 public:
  /// `vertex_rank` maps element -> rank position (lower = lower rank), or
  /// nullptr to order pivots by element id. Must outlive the structure.
  explicit WaitFreeUnionFind(VertexId n, const VertexId* vertex_rank = nullptr);

  WaitFreeUnionFind(const WaitFreeUnionFind&) = delete;
  WaitFreeUnionFind& operator=(const WaitFreeUnionFind&) = delete;

  VertexId Size() const { return n_; }

  /// Representative of v's component. Lock-free; applies path halving.
  VertexId Find(VertexId v);

  /// Merges the components of u and v. Lock-free. Returns the root of the
  /// merged component at the moment of the merge (a concurrent union may
  /// since have linked it under another root).
  VertexId Union(VertexId u, VertexId v);

  /// True iff u and v are in the same component. Exact in quiescent phases.
  bool SameSet(VertexId u, VertexId v);

  /// Lowest-vertex-rank member of v's component (see concurrency contract).
  VertexId GetPivot(VertexId v);

 private:
  bool RankLess(VertexId a, VertexId b) const {
    if (vertex_rank_ == nullptr) return a < b;
    return vertex_rank_[a] < vertex_rank_[b];
  }

  /// Delivers candidate pivot `cand` to the root of x's component, chasing
  /// root changes caused by concurrent links.
  void PropagatePivot(VertexId x, VertexId cand);

  VertexId n_;
  std::unique_ptr<std::atomic<VertexId>[]> parent_;
  std::unique_ptr<std::atomic<uint32_t>[]> uf_rank_;
  std::unique_ptr<std::atomic<VertexId>[]> pivot_;
  const VertexId* vertex_rank_;
};

}  // namespace hcd

#endif  // HCD_PARALLEL_WF_UNION_FIND_H_
