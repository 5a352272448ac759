#include "hcd/vertex_rank.h"

#include <array>
#include <bit>
#include <span>

#include "common/check.h"
#include "parallel/omp_utils.h"

namespace hcd {

VertexRank ComputeVertexRank(std::span<const uint32_t> level,
                             uint32_t max_level) {
  const VertexId n = static_cast<VertexId>(level.size());
  const uint32_t num_shells = max_level + 1;
  VertexRank vr;
  vr.sorted.resize(n);
  vr.rank.resize(n);
  vr.shell_start.assign(num_shells + 1, 0);
  if (n == 0) return vr;

  const int pmax = MaxThreads();
  // counts[p * num_shells + k]: vertices of shell k owned by thread p.
  std::vector<VertexId> counts(static_cast<size_t>(pmax) * num_shells, 0);
  std::vector<VertexId> offsets(static_cast<size_t>(pmax) * num_shells, 0);

  // Count and place inside ONE parallel region: the OpenMP spec guarantees
  // identical iteration-to-thread assignment for two static-schedule loops
  // only when they bind to the same region. The static chunks are
  // contiguous ascending id blocks, so concatenating per-thread slices in
  // thread order keeps each shell sorted by id (the Definition 4 ties).
#pragma omp parallel num_threads(pmax)
  {
    const int p = ThreadId();
    VertexId* my_counts = counts.data() + static_cast<size_t>(p) * num_shells;
#pragma omp for schedule(static)
    for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
      ++my_counts[level[static_cast<VertexId>(vi)]];
    }
    // (implicit barrier)
#pragma omp single
    {
      // Exclusive scan over (shell, thread): shells concatenate in
      // ascending k, per-thread slices within a shell in thread order.
      VertexId running = 0;
      for (uint32_t k = 0; k < num_shells; ++k) {
        vr.shell_start[k] = running;
        for (int q = 0; q < pmax; ++q) {
          offsets[static_cast<size_t>(q) * num_shells + k] = running;
          running += counts[static_cast<size_t>(q) * num_shells + k];
        }
      }
      vr.shell_start[num_shells] = running;
      HCD_CHECK_EQ(running, n);
    }
    // (implicit barrier after single)
    VertexId* my_offsets = offsets.data() + static_cast<size_t>(p) * num_shells;
#pragma omp for schedule(static)
    for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
      VertexId v = static_cast<VertexId>(vi);
      VertexId pos = my_offsets[level[v]]++;
      vr.sorted[pos] = v;
      vr.rank[v] = pos;
    }
  }
  return vr;
}

VertexRank ComputeOrientationRank(const Graph& graph,
                                  const CoreDecomposition& cd) {
  HCD_CHECK_EQ(graph.NumVertices(), cd.coreness.size());
  VertexRank vr = ComputeVertexRank(cd);
  // std::bit_width of a 32-bit degree: 0 (isolated) through 32.
  constexpr size_t kDegreeClasses = 33;
  const int64_t num_shells = static_cast<int64_t>(vr.shell_start.size()) - 1;
  // A shell slice of `sorted` is in id order, so a stable counting sort by
  // degree class keeps ids ascending inside each class. The sort writes
  // only `rank`; `sorted` is rewritten from it once every slice is read.
#pragma omp parallel
  {
    std::array<VertexId, kDegreeClasses> next;
#pragma omp for schedule(dynamic, 1)
    for (int64_t k = 0; k < num_shells; ++k) {
      const std::span<const VertexId> shell =
          vr.Shell(static_cast<uint32_t>(k));
      next.fill(0);
      for (VertexId v : shell) ++next[std::bit_width(graph.Degree(v))];
      VertexId running = vr.shell_start[k];
      for (VertexId& slot : next) {
        const VertexId count = slot;
        slot = running;
        running += count;
      }
      for (VertexId v : shell) {
        vr.rank[v] = next[std::bit_width(graph.Degree(v))]++;
      }
    }
    // (implicit barrier)
#pragma omp for schedule(static)
    for (int64_t vi = 0; vi < static_cast<int64_t>(vr.rank.size()); ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      vr.sorted[vr.rank[v]] = v;
    }
  }
  return vr;
}

}  // namespace hcd
