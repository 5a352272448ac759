#include "hcd/lcps.h"

#include <vector>

#include "common/check.h"
#include "common/telemetry.h"

namespace hcd {
namespace {

struct OpenNode {
  uint32_t level;
  TreeNodeId node;
};

constexpr uint32_t kNoPriority = 0xFFFFFFFFu;

}  // namespace

HcdForest LcpsBuild(const Graph& graph, const CoreDecomposition& cd) {
  ScopedStage stage("construction");
  const VertexId n = graph.NumVertices();
  HcdForest forest(n);
  if (n == 0) return forest;

  std::vector<uint32_t> pri(n, kNoPriority);
  std::vector<bool> visited(n, false);
  // Bucket queue over priorities 0..k_max with lazy deletion: an entry in
  // bucket[p] is stale unless the vertex is unvisited and pri[v] == p
  // (priorities only increase).
  std::vector<std::vector<VertexId>> bucket(cd.k_max + 1);
  int64_t cur_max = -1;

  std::vector<OpenNode> open;
  VertexId seed_scan = 0;

  // Closes open nodes with level > p. The parent of a closed node is the
  // node beneath it, except possibly for the last one closed, whose parent
  // may be the node the current vertex is about to open (when c < its
  // level); that adoption is resolved by the caller.
  auto close_above = [&](uint32_t p, bool* have_orphan, OpenNode* orphan) {
    *have_orphan = false;
    while (!open.empty() && open.back().level > p) {
      OpenNode popped = open.back();
      open.pop_back();
      if (!open.empty() && open.back().level > p) {
        forest.SetParent(popped.node, open.back().node);
      } else {
        *have_orphan = true;
        *orphan = popped;
      }
    }
  };

  for (VertexId processed = 0; processed < n; ++processed) {
    // Pick the next vertex: highest-priority frontier entry, else a fresh
    // seed starting a new component.
    VertexId v = kInvalidVertex;
    uint32_t p = 0;
    while (cur_max >= 0) {
      auto& b = bucket[cur_max];
      while (!b.empty()) {
        VertexId cand = b.back();
        if (!visited[cand] && pri[cand] == static_cast<uint32_t>(cur_max)) {
          v = cand;
          p = static_cast<uint32_t>(cur_max);
          break;
        }
        b.pop_back();  // stale entry
      }
      if (v != kInvalidVertex) break;
      --cur_max;
    }
    if (v == kInvalidVertex) {
      // New component: close everything, then seed.
      while (!open.empty()) {
        OpenNode popped = open.back();
        open.pop_back();
        if (!open.empty()) forest.SetParent(popped.node, open.back().node);
      }
      while (visited[seed_scan]) ++seed_scan;
      v = seed_scan;
      p = 0;
    } else {
      bucket[cur_max].pop_back();
    }

    const uint32_t c = cd.coreness[v];
    HCD_DCHECK(p <= c);

    bool have_orphan = false;
    OpenNode orphan{0, kInvalidNode};
    close_above(p, &have_orphan, &orphan);

    // Join (or open) the node at level c. After close_above the stack top
    // has level <= p <= c.
    TreeNodeId node;
    if (!open.empty() && open.back().level == c) {
      node = open.back().node;
    } else {
      HCD_DCHECK(open.empty() || open.back().level < c);
      node = forest.NewNode(c);
      open.push_back({c, node});
    }
    forest.Place(node, v);

    if (have_orphan) {
      if (c < orphan.level) {
        // The current vertex opened (or joined) the orphan's true parent.
        forest.SetParent(orphan.node, node);
      } else {
        // Sibling case (c >= orphan.level): the orphan's parent is the node
        // that was beneath it; that node is still on the stack, directly
        // below the entry we may just have pushed.
        if (open.size() >= 2) {
          forest.SetParent(orphan.node, open[open.size() - 2].node);
        }
        // else: the orphan is a root.
      }
    }

    visited[v] = true;
    for (VertexId u : graph.Neighbors(v)) {
      if (visited[u]) continue;
      uint32_t np = std::min(c, cd.coreness[u]);
      if (pri[u] == kNoPriority || np > pri[u]) {
        pri[u] = np;
        bucket[np].push_back(u);
        if (static_cast<int64_t>(np) > cur_max) cur_max = np;
      }
    }
  }
  // Close the final component.
  while (!open.empty()) {
    OpenNode popped = open.back();
    open.pop_back();
    if (!open.empty()) forest.SetParent(popped.node, open.back().node);
  }

  stage.AddCounter("nodes", forest.NumNodes());
  return forest;
}

}  // namespace hcd
