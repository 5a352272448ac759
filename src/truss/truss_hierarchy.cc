#include "truss/truss_hierarchy.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/check.h"
#include "hcd/pivot_forest.h"
#include "hcd/vertex_rank.h"
#include "parallel/union_find.h"

namespace hcd {

TrussForest BuildTrussHierarchy(const Graph& graph, const EdgeIndexer& index,
                                const TrussDecomposition& td) {
  // anchor[x]: the last added edge incident to vertex x. All added edges at
  // x are connected through x, so an arriving edge links to the anchor it
  // replaces.
  const VertexId n = graph.NumVertices();
  std::unique_ptr<std::atomic<EdgeIdx>[]> anchor(new std::atomic<EdgeIdx>[n]);
  for (VertexId x = 0; x < n; ++x) {
    anchor[x].store(kInvalidEdge, std::memory_order_relaxed);
  }
  return BuildPivotForest(
      td.trussness, td.k_max, "truss.construction",
      [](EdgeIdx) { return 2; },
      [&](EdgeIdx e, uint32_t, auto&& link) {
        const auto [u, v] = index.edges[e];
        for (VertexId x : {u, v}) {
          const EdgeIdx old = anchor[x].exchange(e);
          if (old != kInvalidEdge) link(old);
        }
      });
}

TrussForest NaiveTrussHierarchy(const Graph& graph, const EdgeIndexer& index,
                                const TrussDecomposition& td) {
  const EdgeIdx m = index.NumEdges();
  const VertexId n = graph.NumVertices();
  TrussForest forest(m);
  if (m == 0) return forest;

  struct Pending {
    TreeNodeId node;
    EdgeIdx rep;
  };
  std::vector<Pending> parentless;

  const VertexRank er = ComputeVertexRank(td.trussness, td.k_max);
  std::vector<int64_t> anchor_stamp(n, -1);
  std::vector<EdgeIdx> anchor(n, kInvalidEdge);

  for (int64_t k = td.k_max; k >= 2; --k) {
    // Components of E_k from scratch (edges in ascending id within the
    // suffix of the rank order).
    UnionFind uf(m);
    const EdgeIdx begin = er.shell_start[k];
    for (EdgeIdx i = begin; i < m; ++i) {
      const EdgeIdx e = er.sorted[i];
      const auto [u, v] = index.edges[e];
      for (VertexId x : {u, v}) {
        if (anchor_stamp[x] == k) {
          uf.Union(e, anchor[x]);
        } else {
          anchor_stamp[x] = k;
        }
        anchor[x] = e;
      }
    }

    // One node per component with a non-empty k-shell; its first edge is
    // the node's representative.
    std::vector<TreeNodeId> node_of_root(m, kInvalidNode);
    std::vector<Pending> created;
    for (EdgeIdx i = begin; i < er.shell_start[k + 1]; ++i) {
      const EdgeIdx e = er.sorted[i];
      TreeNodeId& node = node_of_root[uf.Find(e)];
      if (node == kInvalidNode) {
        node = forest.NewNode(static_cast<uint32_t>(k));
        created.push_back({node, e});
      }
      forest.Place(node, e);
    }

    std::vector<Pending> still_pending;
    for (const Pending& p : parentless) {
      TreeNodeId node = node_of_root[uf.Find(p.rep)];
      if (node != kInvalidNode) {
        forest.SetParent(p.node, node);
      } else {
        still_pending.push_back(p);
      }
    }
    parentless = std::move(still_pending);
    parentless.insert(parentless.end(), created.begin(), created.end());
  }
  return forest;
}

TrussCommunity TrussCommunityOf(const EdgeIndexer& index,
                                const TrussForest& forest, TreeNodeId node) {
  TrussCommunity out;
  const std::vector<VertexId> core = CoreVertices(forest, node);  // edge ids
  out.num_edges = core.size();
  out.vertices.reserve(core.size());
  for (VertexId eid : core) {
    const auto [u, v] = index.edges[eid];
    out.vertices.push_back(u);
    out.vertices.push_back(v);
  }
  std::sort(out.vertices.begin(), out.vertices.end());
  out.vertices.erase(std::unique(out.vertices.begin(), out.vertices.end()),
                     out.vertices.end());
  return out;
}

DensestTrussResult DensestTruss(const EdgeIndexer& index,
                                const TrussForest& forest) {
  DensestTrussResult best;
  double best_avg = -1.0;
  for (TreeNodeId node = 0; node < forest.NumNodes(); ++node) {
    TrussCommunity community = TrussCommunityOf(index, forest, node);
    const double avg = community.AverageDegree();
    if (avg > best_avg) {
      best_avg = avg;
      best.node = node;
      best.level = forest.Level(node);
      best.community = std::move(community);
    }
  }
  return best;
}

FlatHcdIndex FreezeTruss(const Graph& graph, const EdgeIndexer& index,
                         const TrussForest& forest) {
  HCD_CHECK_EQ(forest.NumVertices(), index.NumEdges())
      << "truss forest elements must be the indexer's edges";
  std::vector<VertexId> members;
  members.reserve(2 * index.edges.size());
  for (const auto& [u, v] : index.edges) {
    members.push_back(u);
    members.push_back(v);
  }
  return Freeze(forest, HierarchyKind::kTruss, std::move(members),
                graph.NumVertices());
}

}  // namespace hcd
