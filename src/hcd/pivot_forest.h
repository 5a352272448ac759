#ifndef HCD_HCD_PIVOT_FOREST_H_
#define HCD_HCD_PIVOT_FOREST_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "hcd/forest.h"
#include "hcd/vertex_rank.h"
#include "parallel/omp_utils.h"
#include "parallel/union_find.h"
#include "parallel/wf_union_find.h"

namespace hcd {
namespace pivot_forest_internal {

/// One build of Algorithm 2 over the union-find `UF`: the wait-free one
/// when several threads run, the plain one for the paper's "PHCD (1)"
/// configuration, which pays for no atomics in its unions.
template <typename UF, typename Work, typename Links>
HcdForest Build(const VertexRank& order, std::span<const uint32_t> level,
                Work& work, Links& links, uint64_t* parallel_shells) {
  constexpr bool kConcurrent = std::is_same_v<UF, WaitFreeUnionFind>;
  const VertexId n = static_cast<VertexId>(level.size());
  HcdForest forest(n);
  UF uf(n, order.rank.data());

  // Dedup flags for the captured child pivots ("atomic add if not exists",
  // Line 9).
  std::unique_ptr<std::atomic<bool>[]> in_kpc(new std::atomic<bool>[n]);
  for (VertexId x = 0; x < n; ++x) {
    in_kpc[x].store(false, std::memory_order_relaxed);
  }

  // Per-thread captures: (child pivot, that pivot's component pivot once
  // the shell is merged).
  struct Capture {
    VertexId child;
    VertexId parent;
  };
  std::vector<Capture> kpc;
  std::vector<VertexId> pivot_of;  // pivot per shell position
  const int pmax = kConcurrent ? MaxThreads() : 1;
  std::vector<std::vector<Capture>> local_kpc(pmax);

  for (int64_t k = static_cast<int64_t>(order.shell_start.size()) - 2; k >= 0;
       --k) {
    const uint32_t ck = static_cast<uint32_t>(k);
    const auto shell = order.Shell(ck);
    if (shell.empty()) continue;
    const int64_t shell_size = static_cast<int64_t>(shell.size());
    int64_t volume = 0;
    for (VertexId x : shell) volume += work(x);
    const bool parallel = kConcurrent && volume >= kParallelGrain;
    *parallel_shells += parallel;
    // One span per shell level, with per-worker spans inside the parallel
    // region, so a trace shows how the union-find merge work balances
    // across threads at every level (and which levels ran on one thread).
    ScopedSpan shell_span("phcd.shell");
    shell_span.AddArg("k", ck);
    shell_span.AddArg("shell_size", shell.size());
    shell_span.AddArg("volume", volume);
    shell_span.AddArg("parallel", parallel);

    // Steps 1+2 fused into one pass over the shell's links: before each
    // union over a link into a higher-level component, the same thread
    // reads that component's pivot. Only such a link can first touch a
    // higher component, so the thread whose union touches it first has
    // read its original pivot. A later read sees a pivot of level k
    // (skipped) or, while a merge propagates, the original pivot of another
    // component already merged with the shell (a true child; in_kpc drops
    // the repeat). After the loop's barrier the union-find is quiescent, so
    // each thread resolves its captures' new pivots (Step 4's lookups) and
    // the shell's pivots (Step 3's) in the same region.
    pivot_of.resize(shell.size());
    // Deep shells hold few elements of high degree, so chunks shrink until
    // every thread gets several.
    const int64_t chunk = std::clamp<int64_t>(shell_size / (8 * pmax), 1, 256);
    // The pass's worksharing loops bind to whichever team calls it: the
    // parallel region's, or, for a shell below the grain, the calling
    // thread alone, which opens no region at all.
    auto pass = [&] {
      ScopedSpan worker_span("phcd.union.worker");
      worker_span.AddArg("k", ck);
      auto& mine = local_kpc[ThreadId()];
#pragma omp for schedule(dynamic, chunk)
      for (int64_t i = 0; i < shell_size; ++i) {
        const VertexId x = shell[i];
        // A root x's component had at some point. Another thread may link
        // it away, but a link target whose root equals it is in x's
        // component all the same, so the link is skipped without a union.
        VertexId rx = uf.Find(x);
        links(x, ck, [&](VertexId y) {
          const VertexId ry = uf.Find(y);
          if (ry == rx) return;
          if (level[y] > ck) {
            VertexId pvt;
            if constexpr (kConcurrent) {
              pvt = uf.GetPivot(ry);
            } else {
              pvt = uf.PivotAtRoot(ry);
            }
            if (level[pvt] > ck && !in_kpc[pvt].exchange(true)) {
              mine.push_back({pvt, kInvalidVertex});
            }
          }
          if constexpr (kConcurrent) {
            rx = uf.Union(rx, ry);
          } else {
            rx = uf.LinkRoots(rx, ry);
          }
        });
      }
      for (Capture& c : mine) c.parent = uf.GetPivot(c.child);
#pragma omp for schedule(static) nowait
      for (int64_t i = 0; i < shell_size; ++i) {
        pivot_of[i] = uf.GetPivot(shell[i]);
      }
    };
    {
      ScopedSpan step_span("phcd.union");
      if (parallel) {
#pragma omp parallel num_threads(pmax)
        pass();
      } else {
        pass();
      }
      // Every buffer is drained and cleared, not only those of the threads
      // that ran: a shell below the grain runs on one thread and must not
      // re-read another thread's captures from an earlier shell.
      kpc.clear();
      for (auto& mine : local_kpc) {
        kpc.insert(kpc.end(), mine.begin(), mine.end());
        mine.clear();
      }
      step_span.AddArg("pivots", kpc.size());
    }

    // Step 3: one new tree node per pivot, then every other shell element
    // takes its pivot's node as tid, serially from the cached pivots
    // (O(|shell|) with no synchronization). Freeze groups the elements.
    ScopedSpan group_span("phcd.group");
    for (size_t i = 0; i < shell.size(); ++i) {
      if (pivot_of[i] == shell[i]) forest.Place(forest.NewNode(ck), shell[i]);
    }
    for (size_t i = 0; i < shell.size(); ++i) {
      if (pivot_of[i] != shell[i]) {
        forest.Place(forest.Tid(pivot_of[i]), shell[i]);
      }
    }

    // Step 4: the captured child pivots now live in components whose pivot
    // is a shell element; that element's node is the parent.
    for (const Capture& c : kpc) {
      HCD_DCHECK(c.parent != c.child);
      const TreeNodeId child = forest.Tid(c.child);
      const TreeNodeId parent = forest.Tid(c.parent);
      HCD_DCHECK(child != kInvalidNode);
      HCD_DCHECK(parent != kInvalidNode);
      forest.SetParent(child, parent);
      in_kpc[c.child].store(false, std::memory_order_relaxed);
    }
  }
  return forest;
}

}  // namespace pivot_forest_internal

/// The paper's Algorithm 2 over any element type: the one shell loop behind
/// PhcdBuild (vertices by coreness), BuildTrussHierarchy (edges by
/// trussness) and BuildNucleusHierarchy (triangles by nucleus number).
///
/// Elements are 0..level.size()-1, and level[x] <= max_level is x's level.
/// Starting from no elements, it adds the level-k shells in
/// descending k and keeps the connectivity of the added elements in a pivot
/// union-find, whose pivot is the member first in ComputeVertexRank's
/// (level, id) order. Per shell it runs Steps 1+2 as one fused
/// capture-and-union pass (DESIGN.md §13), then Step 3 (one new node per
/// pivot, and each shell element's tid is its pivot's node) and Step 4
/// (each captured child pivot's node gets the node of its new pivot as
/// parent). A shell whose work is below kParallelGrain runs on the calling
/// thread. With one OpenMP thread the unions go to the plain UnionFind
/// instead of the wait-free one; the forest is the same.
///
/// The caller describes the hierarchy with two callables:
///  - work(x): the entries the pass reads for x (a vertex's degree), summed
///    per shell for the grain rule;
///  - links(x, k, link): for x in the level-k shell, calls link(y) for each
///    element y that x joins. Every y has level >= k, and the links of the
///    shells at or above k must connect exactly the components of the
///    elements at level >= k. links runs concurrently for different x.
/// The fused capture needs one more property, which each caller's header
/// states: at the start of shell k, no operation but a union over a link
/// from a shell element into a higher component changes that component.
///
/// Records `stage` (counters: shells = max_level + 1, nodes,
/// parallel_shells).
template <typename Work, typename Links>
HcdForest BuildPivotForest(std::span<const uint32_t> level, uint32_t max_level,
                           std::string_view stage, Work&& work,
                           Links&& links) {
  ScopedStage scoped(stage);
  uint64_t parallel_shells = 0;
  HcdForest forest(0);
  if (!level.empty()) {
    const VertexRank order = ComputeVertexRank(level, max_level);
    forest = MaxThreads() == 1
                 ? pivot_forest_internal::Build<UnionFind>(
                       order, level, work, links, &parallel_shells)
                 : pivot_forest_internal::Build<WaitFreeUnionFind>(
                       order, level, work, links, &parallel_shells);
  }
  scoped.AddCounter("shells", uint64_t{max_level} + 1);
  scoped.AddCounter("nodes", forest.NumNodes());
  scoped.AddCounter("parallel_shells", parallel_shells);
  return forest;
}

}  // namespace hcd

#endif  // HCD_HCD_PIVOT_FOREST_H_
