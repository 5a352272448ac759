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

  // Rounds scan all n vertices for the current level until at most half of
  // the scanned vertices are still unpeeled; that round's scan also writes
  // the survivors (degree above the level) into `next`, and later rounds
  // scan that list instead. The list is rebuilt each time the unpeeled count
  // halves again, so a round scans at most twice the vertices still
  // unpeeled, each of coreness at least the level: O(n + m) scanning in
  // all instead of O(n * k_max). A survivor may still be peeled in the same
  // round; a stale entry costs one failed degree test until the next
  // rebuild.
  std::vector<VertexId> active;
  std::vector<VertexId> next;
  std::vector<VertexId> frontier;
  bool compacted = false;
  uint64_t compactions = 0;
  uint64_t visited = 0;
  uint32_t level = 0;
  uint32_t observed_kmax = 0;
  const uint32_t max_deg = graph.MaxDegree();
  while (visited < n) {
    const int64_t scanned =
        compacted ? static_cast<int64_t>(active.size()) : n;
    const uint64_t unpeeled = n - visited;
    const bool compact = 2 * unpeeled <= static_cast<uint64_t>(scanned);
    if (compact) next.resize(unpeeled);
    std::atomic<uint64_t> kept{0};
    // Sorts scan position i into the round's seeds (degree == level) or,
    // when compacting, the survivors; survivors are published into `next`
    // with one fetch_add per scanner.
    auto classify = [&](int64_t i, std::vector<VertexId>* seeds,
                        std::vector<VertexId>* survivors) {
      const VertexId v = compacted ? active[i] : static_cast<VertexId>(i);
      const uint32_t d = deg[v].load(std::memory_order_relaxed);
      if (d == level) {
        seeds->push_back(v);
      } else if (compact && d > level) {
        survivors->push_back(v);
      }
    };
    auto publish = [&](const std::vector<VertexId>& survivors) {
      if (survivors.empty()) return;
      const uint64_t at = kept.fetch_add(survivors.size());
      std::copy(survivors.begin(), survivors.end(), next.begin() + at);
    };

    // A round's work is its scan plus the adjacency it peels. A scan of at
    // least kParallelGrain vertices runs inside the parallel region; a
    // shorter one runs here first, and the region opens only if the seeds
    // it found carry kParallelGrain adjacency entries (deep rounds scan a
    // short list but can peel a hub-heavy shell at once).
    const bool wide_scan = scanned >= kParallelGrain;
    uint64_t seed_volume = 0;
    frontier.clear();
    if (!wide_scan) {
      std::vector<VertexId> survivors;
      for (int64_t i = 0; i < scanned; ++i) {
        classify(i, &frontier, &survivors);
      }
      publish(survivors);
      for (VertexId v : frontier) seed_volume += graph.Degree(v);
    }
    const int64_t seeds = static_cast<int64_t>(frontier.size());
    uint64_t round = 0;
    // One span per peeling round (orchestrating thread) plus one per worker
    // inside the region: the per-worker spans expose the round's load
    // balance, which a flat per-stage time cannot show.
    ScopedSpan round_span("pkc.round");
    round_span.AddArg("level", level);
    round_span.AddArg("scanned", scanned);
#pragma omp parallel reduction(+ : round) \
    if (wide_scan || seed_volume >= kParallelGrain)
    {
      ScopedSpan worker_span("pkc.round.worker");
      worker_span.AddArg("level", level);
      std::vector<VertexId> buff;
      // Peels every vertex on `buff` and, depth first, each neighbour whose
      // degree it brings down to `level`. Takes its operands by value so
      // the hot loop keeps them in registers across the atomics.
      auto drain = [&buff, &graph, &cd, d = deg.get(), level] {
        uint64_t peeled = 0;
        while (!buff.empty()) {
          VertexId v = buff.back();
          buff.pop_back();
          cd.coreness[v] = level;
          ++peeled;
          for (VertexId u : graph.Neighbors(v)) {
            if (d[u].load(std::memory_order_relaxed) > level) {
              uint32_t prev = d[u].fetch_sub(1);
              if (prev == level + 1) {
                // Exactly one decrementer sees the transition to `level`.
                buff.push_back(u);
              } else if (prev <= level) {
                // Racing decrement of a vertex already at/below the current
                // level: undo so its degree never sinks under `level` and
                // gets re-scanned at a later level.
                d[u].fetch_add(1);
              }
            }
          }
        }
        return peeled;
      };
      if (wide_scan) {
        std::vector<VertexId> survivors;
        // The loop's barrier keeps every scan ahead of every decrement, so
        // no vertex is seeded twice.
#pragma omp for schedule(static)
        for (int64_t i = 0; i < scanned; ++i) classify(i, &buff, &survivors);
        publish(survivors);
        round += drain();
      } else {
#pragma omp for schedule(dynamic, 16)
        for (int64_t i = 0; i < seeds; ++i) {
          buff.push_back(frontier[i]);
          round += drain();
        }
      }
    }
    if (compact) {
      next.resize(kept.load());
      active.swap(next);
      compacted = true;
      ++compactions;
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
  stage.AddCounter("compactions", compactions);
  return cd;
}

}  // namespace hcd
