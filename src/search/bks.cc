#include "search/bks.h"

#include <algorithm>

#include "common/check.h"

namespace hcd {
namespace {

struct SerialTallies {
  std::vector<int64_t> n_s;
  std::vector<int64_t> edges2;
  std::vector<int64_t> boundary;
  std::vector<int64_t> triangles;
  std::vector<int64_t> triplets;

  explicit SerialTallies(TreeNodeId num_nodes)
      : n_s(num_nodes, 0),
        edges2(num_nodes, 0),
        boundary(num_nodes, 0),
        triangles(num_nodes, 0),
        triplets(num_nodes, 0) {}
};

/// Serial bottom-up accumulation. In the frozen index children always
/// follow their parent (preorder), so a single descending-id sweep is a
/// valid bottom-up schedule — no level order needed.
void AccumulateUpSerial(const FlatHcdIndex& index, SerialTallies* t) {
  for (TreeNodeId node = index.NumNodes(); node-- > 1;) {
    const TreeNodeId pa = index.Parent(node);
    if (pa == kInvalidNode) continue;
    t->n_s[pa] += t->n_s[node];
    t->edges2[pa] += t->edges2[node];
    t->boundary[pa] += t->boundary[node];
    t->triangles[pa] += t->triangles[node];
    t->triplets[pa] += t->triplets[node];
  }
}

std::vector<PrimaryValues> ToPrimaryValues(const SerialTallies& t) {
  std::vector<PrimaryValues> out(t.n_s.size());
  for (size_t i = 0; i < out.size(); ++i) {
    HCD_DCHECK(t.boundary[i] >= 0);
    out[i].n_s = static_cast<uint64_t>(t.n_s[i]);
    out[i].edges2 = static_cast<uint64_t>(t.edges2[i]);
    out[i].boundary = static_cast<uint64_t>(t.boundary[i]);
    out[i].triangles = static_cast<uint64_t>(t.triangles[i]);
    out[i].triplets = static_cast<uint64_t>(t.triplets[i]);
  }
  return out;
}

inline int64_t Choose2(int64_t x) { return x * (x - 1) / 2; }

std::span<const VertexId> SortedNeighbors(const Graph& graph,
                                          const BksIndex& index, VertexId v) {
  return {index.sorted_adj.data() + graph.AdjOffset(v),
          static_cast<size_t>(graph.Degree(v))};
}

}  // namespace

BksIndex BuildBksIndex(const Graph& graph, const CoreDecomposition& cd) {
  const VertexId n = graph.NumVertices();
  BksIndex index;
  index.sorted_adj.resize(graph.AdjArray().size());

  // Bucket the vertices by coreness (serial bin sort).
  std::vector<VertexId> shell_start(cd.k_max + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++shell_start[cd.coreness[v] + 1];
  for (size_t k = 1; k < shell_start.size(); ++k) {
    shell_start[k] += shell_start[k - 1];
  }
  std::vector<VertexId> by_coreness(n);
  {
    std::vector<VertexId> cursor(shell_start.begin(), shell_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) by_coreness[cursor[cd.coreness[v]]++] = v;
  }

  // Emit each vertex into its neighbors' lists in descending coreness
  // order, so every sorted adjacency list ends up coreness-descending.
  std::vector<EdgeIndex> cursor(n);
  for (VertexId v = 0; v < n; ++v) cursor[v] = graph.AdjOffset(v);
  for (VertexId i = n; i-- > 0;) {
    const VertexId u = by_coreness[i];
    for (VertexId v : graph.Neighbors(u)) {
      index.sorted_adj[cursor[v]++] = u;
    }
  }
  return index;
}

std::vector<PrimaryValues> BksTypeAPrimary(const Graph& graph,
                                           const CoreDecomposition& cd,
                                           const FlatHcdIndex& hcd_index,
                                           const BksIndex& index,
                                           const VertexRank& vr) {
  SerialTallies t(hcd_index.NumNodes());
  // Descending coreness, the incremental order of BKS.
  for (VertexId i = static_cast<VertexId>(vr.sorted.size()); i-- > 0;) {
    const VertexId v = vr.sorted[i];
    const uint32_t cv = cd.coreness[v];
    const auto nbrs = SortedNeighbors(graph, index, v);
    int64_t gt = 0;
    int64_t eq = 0;
    size_t j = 0;
    while (j < nbrs.size() && cd.coreness[nbrs[j]] > cv) {
      ++gt;
      ++j;
    }
    while (j < nbrs.size() && cd.coreness[nbrs[j]] == cv) {
      ++eq;
      ++j;
    }
    const int64_t lt = static_cast<int64_t>(nbrs.size()) - gt - eq;
    const TreeNodeId node = hcd_index.Tid(v);
    t.n_s[node] += 1;
    t.edges2[node] += 2 * gt + eq;
    t.boundary[node] += lt - gt;
  }
  AccumulateUpSerial(hcd_index, &t);
  return ToPrimaryValues(t);
}

std::vector<PrimaryValues> BksTypeBPrimary(const Graph& graph,
                                           const CoreDecomposition& cd,
                                           const FlatHcdIndex& hcd_index,
                                           const BksIndex& index,
                                           const VertexRank& vr) {
  const VertexId n = graph.NumVertices();
  SerialTallies t(hcd_index.NumNodes());
  const std::vector<VertexId>& rank = vr.rank;

  auto degree_less = [&graph](VertexId a, VertexId b) {
    const VertexId da = graph.Degree(a);
    const VertexId db = graph.Degree(b);
    return da < db || (da == db && a < b);
  };

  std::vector<uint8_t> mark(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    const auto nv = graph.Neighbors(v);
    t.n_s[hcd_index.Tid(v)] += 1;  // triangle density divides by n(S)

    // Triangles, attributed to the lowest-rank corner.
    for (VertexId u : nv) mark[u] = 1;
    for (VertexId u : nv) {
      if (!degree_less(u, v)) continue;
      for (VertexId w : graph.Neighbors(u)) {
        if (mark[w] && rank[w] < rank[u] && rank[w] < rank[v]) {
          t.triangles[hcd_index.Tid(w)] += 1;
        }
      }
    }
    for (VertexId u : nv) mark[u] = 0;

    // Triplets centered at v: the coreness-sorted adjacency delivers the
    // >=c(v) prefix and then each lower-coreness group contiguously.
    const uint32_t cv = cd.coreness[v];
    const auto snbrs = SortedNeighbors(graph, index, v);
    size_t j = 0;
    int64_t gt_k = 0;
    while (j < snbrs.size() && cd.coreness[snbrs[j]] >= cv) {
      ++gt_k;
      ++j;
    }
    t.triplets[hcd_index.Tid(v)] += Choose2(gt_k);
    while (j < snbrs.size()) {
      const uint32_t k = cd.coreness[snbrs[j]];
      const VertexId rep = snbrs[j];
      int64_t cnt = 0;
      while (j < snbrs.size() && cd.coreness[snbrs[j]] == k) {
        ++cnt;
        ++j;
      }
      t.triplets[hcd_index.Tid(rep)] += Choose2(cnt) + gt_k * cnt;
      gt_k += cnt;
    }
  }
  AccumulateUpSerial(hcd_index, &t);
  return ToPrimaryValues(t);
}

SearchResult BksSearch(const Graph& graph, const CoreDecomposition& cd,
                       const FlatHcdIndex& hcd_index, Metric metric) {
  const BksIndex index = BuildBksIndex(graph, cd);
  const VertexRank vr = ComputeVertexRank(cd);
  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  std::vector<PrimaryValues> primary =
      IsTypeB(metric) ? BksTypeBPrimary(graph, cd, hcd_index, index, vr)
                      : BksTypeAPrimary(graph, cd, hcd_index, index, vr);

  SearchResult result;
  result.scores.resize(hcd_index.NumNodes());
  for (TreeNodeId i = 0; i < hcd_index.NumNodes(); ++i) {
    result.scores[i] = EvaluateMetric(metric, primary[i], globals);
    if (result.best_node == kInvalidNode ||
        result.scores[i] > result.best_score) {
      result.best_node = i;
      result.best_score = result.scores[i];
    }
  }
  return result;
}

}  // namespace hcd
