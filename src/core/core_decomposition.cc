#include "core/core_decomposition.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "core/peel_levels.h"
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
  const VertexId n = graph.NumVertices();
  PeelLevelsResult peel = PeelLevels<1>(
      "decomposition",
      [&] {
        std::vector<uint32_t> deg(n);
        ParallelFor<VertexId>(0, n,
                              [&](VertexId v) { deg[v] = graph.Degree(v); });
        return deg;
      },
      [&](VertexId v) { return graph.Degree(v); },
      [&](VertexId v, auto&&, auto&& visit) {
        for (VertexId u : graph.Neighbors(v)) visit(u);
      });
  return {std::move(peel.level), peel.k_max};
}

}  // namespace hcd
