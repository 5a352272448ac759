#include "hcd/phcd.h"

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

    // Steps 1+2 fused (serial-only optimization): capture the pivot of an
    // adjacent k'-core on an edge immediately before the union over that
    // edge. The first edge that merges a core performs its capture while
    // the core is still untouched, so every adjacent core's original pivot
    // is recorded; later edges into the now-merged component read a pivot
    // of shell coreness and are skipped.
    kpc_pivot.clear();
    for (VertexId v : shell) {
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

HcdForest PhcdBuildParallel(const Graph& graph, const CoreDecomposition& cd) {
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

  // Dedup flags for kpc_pivot ("atomic add if not exists", Line 9).
  std::unique_ptr<std::atomic<bool>[]> in_kpc(new std::atomic<bool>[n]);
  for (VertexId v = 0; v < n; ++v) {
    in_kpc[v].store(false, std::memory_order_relaxed);
  }

  std::vector<VertexId> kpc_pivot;
  std::vector<VertexId> pivot_of;  // pivot per shell position
  const int pmax = MaxThreads();
  std::vector<std::vector<VertexId>> local_kpc(pmax);

  for (int64_t k = cd.k_max; k >= 0; --k) {
    const auto shell = vr.Shell(static_cast<uint32_t>(k));
    if (shell.empty()) continue;
    const uint32_t ck = static_cast<uint32_t>(k);
    const int64_t shell_size = static_cast<int64_t>(shell.size());
    // One span per shell level, with nested per-step spans and per-worker
    // spans inside the two heavy parallel steps, so a trace shows how the
    // union-find merge work balances across threads at every level.
    ScopedSpan shell_span("phcd.shell");
    shell_span.AddArg("k", ck);
    shell_span.AddArg("shell_size", shell.size());

    // Step 1: pivots of existing k'-cores (k' > k) adjacent to the k-shell.
    kpc_pivot.clear();
    {
      ScopedSpan step_span("phcd.pivots");
#pragma omp parallel num_threads(pmax)
      {
        ScopedSpan worker_span("phcd.pivots.worker");
        worker_span.AddArg("k", ck);
        auto& mine = local_kpc[ThreadId()];
        mine.clear();
#pragma omp for schedule(dynamic, 256)
        for (int64_t i = 0; i < shell_size; ++i) {
          VertexId v = shell[i];
          for (VertexId u : graph.Neighbors(v)) {
            if (coreness[u] > ck) {
              VertexId pvt = uf.GetPivot(u);
              if (!in_kpc[pvt].exchange(true)) mine.push_back(pvt);
            }
          }
        }
      }
      for (auto& mine : local_kpc) {
        kpc_pivot.insert(kpc_pivot.end(), mine.begin(), mine.end());
      }
      step_span.AddArg("pivots", kpc_pivot.size());
    }

    // Step 2: connect the k-shell to the existing graph.
    {
      ScopedSpan step_span("phcd.union");
#pragma omp parallel num_threads(pmax)
      {
        ScopedSpan worker_span("phcd.union.worker");
        worker_span.AddArg("k", ck);
#pragma omp for schedule(dynamic, 256)
        for (int64_t i = 0; i < shell_size; ++i) {
          VertexId v = shell[i];
          for (VertexId u : graph.Neighbors(v)) {
            if (coreness[u] > ck || (coreness[u] == ck && u > v)) {
              uf.Union(v, u);
            }
          }
        }
      }
    }

    // Step 3: one new tree node per pivot; group the shell by pivot. The
    // pivot lookups run in parallel; node membership is then appended
    // serially from the cached pivots (O(|H_k|) with no synchronization).
    ScopedSpan group_span("phcd.group");
    pivot_of.resize(shell.size());
#pragma omp parallel for schedule(static)
    for (int64_t i = 0; i < shell_size; ++i) {
      pivot_of[i] = uf.GetPivot(shell[i]);
    }
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

    // Step 4: the stored child pivots now live in components whose pivot is
    // a k-shell vertex; that vertex's node is the parent.
#pragma omp parallel for schedule(static)
    for (int64_t i = 0; i < static_cast<int64_t>(kpc_pivot.size()); ++i) {
      VertexId child_pivot = kpc_pivot[i];
      VertexId new_pivot = uf.GetPivot(child_pivot);
      HCD_DCHECK(new_pivot != child_pivot);
      TreeNodeId child = forest.Tid(child_pivot);
      TreeNodeId parent = forest.Tid(new_pivot);
      HCD_DCHECK(child != kInvalidNode);
      HCD_DCHECK(parent != kInvalidNode);
      parent_of[child] = parent;
      in_kpc[child_pivot].store(false, std::memory_order_relaxed);
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
  HcdForest forest =
      graph.NumVertices() == 0
          ? HcdForest(0)
          : (MaxThreads() == 1 ? PhcdBuildSerial(graph, cd)
                               : PhcdBuildParallel(graph, cd));
  stage.AddCounter("shells", cd.k_max + 1);
  stage.AddCounter("nodes", forest.NumNodes());
  return forest;
}

}  // namespace hcd
