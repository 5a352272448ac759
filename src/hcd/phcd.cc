#include "hcd/phcd.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "hcd/vertex_rank.h"
#include "parallel/omp_utils.h"
#include "parallel/union_find.h"
#include "parallel/wf_union_find.h"

namespace hcd {
namespace {

/// Serial specialization: the same four steps per k, over the plain
/// (non-atomic) union-find. This is the configuration measured as
/// "PHCD (1)" — a sensible implementation does not pay for atomics when one
/// thread is requested.
HcdForest PhcdBuildSerial(const Graph& graph, const CoreDecomposition& cd) {
  const VertexId n = graph.NumVertices();
  HcdForest forest(n);

  const VertexRank vr = ComputeVertexRank(cd);
  UnionFind uf(n, vr.rank.data());
  const auto& coreness = cd.coreness;

  std::vector<TreeNodeId> parent_of;
  std::vector<bool> in_kpc(n, false);
  std::vector<VertexId> kpc_pivot;
  std::vector<VertexId> pivot_of;  // pivot per shell position

  for (int64_t k = cd.k_max; k >= 0; --k) {
    const auto shell = vr.Shell(static_cast<uint32_t>(k));
    if (shell.empty()) continue;
    const uint32_t ck = static_cast<uint32_t>(k);
    ScopedSpan shell_span("phcd.shell");
    shell_span.AddArg("k", ck);
    shell_span.AddArg("shell_size", shell.size());

    // Steps 1+2 fused (as in the parallel path; DESIGN.md §13): capture the
    // pivot of an adjacent k'-core on an edge immediately before the union
    // over that edge. The first edge that merges a core performs its
    // capture while the core is still untouched, so every adjacent core's
    // original pivot is recorded; later edges into the now-merged component
    // read a pivot of shell coreness and are skipped.
    kpc_pivot.clear();
    uint64_t volume = 0;
    for (VertexId v : shell) {
      volume += graph.Degree(v);
      VertexId rv = uf.Find(v);
      for (VertexId u : graph.Neighbors(v)) {
        if (coreness[u] > ck) {
          const VertexId ru = uf.Find(u);
          const VertexId pvt = uf.PivotAtRoot(ru);
          if (coreness[pvt] > ck && !in_kpc[pvt]) {
            in_kpc[pvt] = true;
            kpc_pivot.push_back(pvt);
          }
          rv = uf.LinkRoots(rv, ru);
        } else if (coreness[u] == ck && u > v) {
          rv = uf.LinkRoots(rv, uf.Find(u));
        }
      }
    }

    shell_span.AddArg("volume", volume);
    shell_span.AddArg("parallel", uint64_t{0});

    // Step 3: group the shell into new nodes by pivot.
    pivot_of.resize(shell.size());
    for (size_t i = 0; i < shell.size(); ++i) {
      const VertexId v = shell[i];
      const VertexId pvt = uf.GetPivot(v);
      pivot_of[i] = pvt;
      if (pvt == v) {
        TreeNodeId node = forest.NewNode(ck);
        parent_of.push_back(kInvalidNode);
        forest.AddVertex(node, v);
      }
    }
    for (size_t i = 0; i < shell.size(); ++i) {
      if (pivot_of[i] != shell[i]) {
        forest.AddVertex(forest.Tid(pivot_of[i]), shell[i]);
      }
    }

    // Step 4: parents for the stored child pivots.
    for (VertexId child_pivot : kpc_pivot) {
      parent_of[forest.Tid(child_pivot)] = forest.Tid(uf.GetPivot(child_pivot));
      in_kpc[child_pivot] = false;
    }
  }

  for (TreeNodeId node = 0; node < forest.NumNodes(); ++node) {
    if (parent_of[node] != kInvalidNode) {
      forest.SetParent(node, parent_of[node]);
    }
  }
  forest.BuildChildren();
  return forest;
}

HcdForest PhcdBuildParallel(const Graph& graph, const CoreDecomposition& cd,
                            uint64_t* parallel_shells) {
  const VertexId n = graph.NumVertices();
  HcdForest forest(n);

  // Algorithm 1: k-shells and vertex rank.
  const VertexRank vr = ComputeVertexRank(cd);
  WaitFreeUnionFind uf(n, vr.rank.data());
  const auto& coreness = cd.coreness;

  // tid lives in the forest; parents are written into this flat array in
  // Step 4 (one writer per child node) and folded into the forest at the
  // end.
  std::vector<TreeNodeId> parent_of;  // indexed by TreeNodeId

  // Dedup flags for the captured child pivots ("atomic add if not exists",
  // Line 9).
  std::unique_ptr<std::atomic<bool>[]> in_kpc(new std::atomic<bool>[n]);
  for (VertexId v = 0; v < n; ++v) {
    in_kpc[v].store(false, std::memory_order_relaxed);
  }

  // Per-thread captures: (child pivot, that pivot's component pivot once
  // the shell is merged).
  struct Capture {
    VertexId child;
    VertexId parent;
  };
  std::vector<Capture> kpc;
  std::vector<VertexId> pivot_of;  // pivot per shell position
  const int pmax = MaxThreads();
  std::vector<std::vector<Capture>> local_kpc(pmax);

  for (int64_t k = cd.k_max; k >= 0; --k) {
    const auto shell = vr.Shell(static_cast<uint32_t>(k));
    if (shell.empty()) continue;
    const uint32_t ck = static_cast<uint32_t>(k);
    const int64_t shell_size = static_cast<int64_t>(shell.size());
    int64_t volume = 0;
    for (VertexId v : shell) volume += graph.Degree(v);
    const bool parallel = volume >= kParallelGrain;
    *parallel_shells += parallel;
    // One span per shell level, with per-worker spans inside the parallel
    // region, so a trace shows how the union-find merge work balances
    // across threads at every level (and which levels ran on one thread).
    ScopedSpan shell_span("phcd.shell");
    shell_span.AddArg("k", ck);
    shell_span.AddArg("shell_size", shell.size());
    shell_span.AddArg("volume", volume);
    shell_span.AddArg("parallel", parallel);

    // Steps 1+2 fused into one pass over the shell's adjacency: before each
    // union over a shell-to-k'-core edge, the same thread reads that
    // core's pivot. Only such an edge can first touch a k'-core, so the
    // thread whose union touches it first has read its original pivot.
    // A later read sees a pivot of coreness k (skipped) or, while a merge
    // propagates, the original pivot of another core already merged with
    // the shell (a true child; in_kpc drops the repeat). After the loop's
    // barrier the union-find is quiescent, so each thread resolves its
    // captures' new pivots (Step 4's lookups) and the shell's pivots
    // (Step 3's) in the same region.
    pivot_of.resize(shell.size());
    // Deep shells hold few vertices of high degree, so chunks shrink until
    // every thread gets several.
    const int64_t chunk = std::clamp<int64_t>(shell_size / (8 * pmax), 1, 256);
    {
      ScopedSpan step_span("phcd.union");
#pragma omp parallel num_threads(pmax) if (parallel)
      {
        ScopedSpan worker_span("phcd.union.worker");
        worker_span.AddArg("k", ck);
        auto& mine = local_kpc[ThreadId()];
#pragma omp for schedule(dynamic, chunk)
        for (int64_t i = 0; i < shell_size; ++i) {
          const VertexId v = shell[i];
          // A root v's component had at some point. Another thread may
          // link it away, but a neighbour whose root equals it is in v's
          // component all the same, so the edge is skipped without a union.
          VertexId rv = uf.Find(v);
          for (VertexId u : graph.Neighbors(v)) {
            if (coreness[u] > ck) {
              const VertexId ru = uf.Find(u);
              if (ru == rv) continue;
              const VertexId pvt = uf.GetPivot(ru);
              if (coreness[pvt] > ck && !in_kpc[pvt].exchange(true)) {
                mine.push_back({pvt, kInvalidVertex});
              }
              rv = uf.Union(rv, ru);
            } else if (coreness[u] == ck && u > v) {
              const VertexId ru = uf.Find(u);
              if (ru != rv) rv = uf.Union(rv, ru);
            }
          }
        }
        for (Capture& c : mine) c.parent = uf.GetPivot(c.child);
#pragma omp for schedule(static) nowait
        for (int64_t i = 0; i < shell_size; ++i) {
          pivot_of[i] = uf.GetPivot(shell[i]);
        }
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

    // Step 3: one new tree node per pivot; group the shell by pivot. Node
    // membership is appended serially from the cached pivots (O(|H_k|)
    // with no synchronization).
    ScopedSpan group_span("phcd.group");
    for (size_t i = 0; i < shell.size(); ++i) {
      if (pivot_of[i] == shell[i]) {
        TreeNodeId node = forest.NewNode(ck);
        parent_of.push_back(kInvalidNode);
        forest.AddVertex(node, shell[i]);
      }
    }
    for (size_t i = 0; i < shell.size(); ++i) {
      if (pivot_of[i] != shell[i]) {
        forest.AddVertex(forest.Tid(pivot_of[i]), shell[i]);
      }
    }

    // Step 4: the captured child pivots now live in components whose pivot
    // is a k-shell vertex; that vertex's node is the parent.
    for (const Capture& c : kpc) {
      HCD_DCHECK(c.parent != c.child);
      const TreeNodeId child = forest.Tid(c.child);
      const TreeNodeId parent = forest.Tid(c.parent);
      HCD_DCHECK(child != kInvalidNode);
      HCD_DCHECK(parent != kInvalidNode);
      parent_of[child] = parent;
      in_kpc[c.child].store(false, std::memory_order_relaxed);
    }
  }

  for (TreeNodeId node = 0; node < forest.NumNodes(); ++node) {
    if (parent_of[node] != kInvalidNode) {
      forest.SetParent(node, parent_of[node]);
    }
  }
  forest.BuildChildren();
  return forest;
}

}  // namespace

HcdForest PhcdBuild(const Graph& graph, const CoreDecomposition& cd) {
  ScopedStage stage("construction");
  uint64_t parallel_shells = 0;
  HcdForest forest =
      graph.NumVertices() == 0
          ? HcdForest(0)
          : (MaxThreads() == 1
                 ? PhcdBuildSerial(graph, cd)
                 : PhcdBuildParallel(graph, cd, &parallel_shells));
  stage.AddCounter("shells", cd.k_max + 1);
  stage.AddCounter("nodes", forest.NumNodes());
  stage.AddCounter("parallel_shells", parallel_shells);
  return forest;
}

}  // namespace hcd
