#include "core/core_decomposition.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "parallel/omp_utils.h"

namespace hcd {

std::vector<VertexId> KShellSizes(const CoreDecomposition& cd) {
  std::vector<VertexId> sizes(cd.k_max + 1, 0);
  for (uint32_t c : cd.coreness) {
    HCD_DCHECK(c <= cd.k_max);
    ++sizes[c];
  }
  return sizes;
}

CoreDecomposition BzCoreDecomposition(const Graph& graph) {
  ScopedStage stage("decomposition");
  const VertexId n = graph.NumVertices();
  CoreDecomposition cd;
  cd.coreness.assign(n, 0);
  if (n == 0) return cd;

  std::vector<VertexId> deg(n);
  VertexId max_deg = 0;
  for (VertexId v = 0; v < n; ++v) {
    deg[v] = graph.Degree(v);
    max_deg = std::max(max_deg, deg[v]);
  }

  // Bucket all vertices by degree: vert is sorted by degree, pos[v] is v's
  // index in vert, bin[d] is the start of degree-d vertices.
  std::vector<VertexId> bin(max_deg + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[deg[v] + 1];
  for (size_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];
  std::vector<VertexId> vert(n);
  std::vector<VertexId> pos(n);
  {
    std::vector<VertexId> cursor(bin.begin(), bin.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      pos[v] = cursor[deg[v]];
      vert[pos[v]] = v;
      ++cursor[deg[v]];
    }
  }

  for (VertexId i = 0; i < n; ++i) {
    VertexId v = vert[i];
    cd.coreness[v] = deg[v];
    for (VertexId u : graph.Neighbors(v)) {
      if (deg[u] > deg[v]) {
        // Move u to the front of its bucket, then shrink it into the
        // (deg[u]-1)-bucket.
        VertexId du = deg[u];
        VertexId pu = pos[u];
        VertexId pw = bin[du];
        VertexId w = vert[pw];
        if (u != w) {
          std::swap(vert[pu], vert[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --deg[u];
      }
    }
  }
  cd.k_max = n > 0 ? *std::max_element(cd.coreness.begin(), cd.coreness.end())
                   : 0;
  stage.AddCounter("k_max", cd.k_max);
  return cd;
}

CoreDecomposition PkcCoreDecomposition(const Graph& graph) {
  ScopedStage stage("decomposition");
  const VertexId n = graph.NumVertices();
  CoreDecomposition cd;
  cd.coreness.assign(n, 0);
  if (n == 0) return cd;

  std::unique_ptr<std::atomic<uint32_t>[]> deg(new std::atomic<uint32_t>[n]);
  ParallelFor<VertexId>(0, n, [&](VertexId v) {
    deg[v].store(graph.Degree(v), std::memory_order_relaxed);
  });

  uint64_t visited = 0;
  uint32_t level = 0;
  uint32_t observed_kmax = 0;
  const uint32_t max_deg = graph.MaxDegree();
  while (visited < n) {
    uint64_t round = 0;
    // One span per peeling round (orchestrating thread) plus one per worker
    // inside the region: the per-worker spans expose the round's load
    // balance, which a flat per-stage time cannot show.
    ScopedSpan round_span("pkc.round");
    round_span.AddArg("level", level);
#pragma omp parallel reduction(+ : round)
    {
      ScopedSpan worker_span("pkc.round.worker");
      worker_span.AddArg("level", level);
      std::vector<VertexId> buff;
#pragma omp for schedule(static)
      for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
        VertexId v = static_cast<VertexId>(vi);
        if (deg[v].load(std::memory_order_relaxed) == level) buff.push_back(v);
      }
      while (!buff.empty()) {
        VertexId v = buff.back();
        buff.pop_back();
        cd.coreness[v] = level;
        ++round;
        for (VertexId u : graph.Neighbors(v)) {
          if (deg[u].load(std::memory_order_relaxed) > level) {
            uint32_t prev = deg[u].fetch_sub(1);
            if (prev == level + 1) {
              // Exactly one decrementer sees the transition to `level`.
              buff.push_back(u);
            } else if (prev <= level) {
              // Racing decrement of a vertex already at/below the current
              // level: undo so its degree never sinks under `level` and
              // gets re-scanned at a later level.
              deg[u].fetch_add(1);
            }
          }
        }
      }
    }
    round_span.AddArg("peeled", round);
    if (round > 0) observed_kmax = level;
    visited += round;
    ++level;
    HCD_CHECK(level <= max_deg + 1) << "PKC failed to converge";
  }
  cd.k_max = observed_kmax;
  stage.AddCounter("levels", level);
  stage.AddCounter("k_max", cd.k_max);
  return cd;
}

}  // namespace hcd
