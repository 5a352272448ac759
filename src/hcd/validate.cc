#include "hcd/validate.h"

#include <string>
#include <vector>

namespace hcd {
namespace {

std::string NodeDesc(const FlatHcdIndex& index, TreeNodeId node) {
  return "node " + std::to_string(node) + " (level " +
         std::to_string(index.Level(node)) + ")";
}

/// The node bijection tid induces from `a` to `b`, checked for levels and
/// parents; written once over the Level/Parent/Tid surface both
/// representations have.
template <typename HierarchyA>
bool HcdEqualsImpl(const HierarchyA& a, const FlatHcdIndex& b) {
  if (a.NumVertices() != b.NumVertices()) return false;
  if (a.NumNodes() != b.NumNodes()) return false;
  const TreeNodeId num_nodes = a.NumNodes();
  std::vector<TreeNodeId> a2b(num_nodes, kInvalidNode);
  std::vector<TreeNodeId> b2a(num_nodes, kInvalidNode);
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    const TreeNodeId ta = a.Tid(v);
    const TreeNodeId tb = b.Tid(v);
    if ((ta == kInvalidNode) != (tb == kInvalidNode)) return false;
    if (ta == kInvalidNode) continue;
    if (ta >= num_nodes || tb >= num_nodes) return false;
    if (a2b[ta] == kInvalidNode && b2a[tb] == kInvalidNode) {
      a2b[ta] = tb;
      b2a[tb] = ta;
    } else if (a2b[ta] != tb || b2a[tb] != ta) {
      return false;
    }
  }
  // Every node of `a` is non-empty and maps to a distinct node of `b`; with
  // equal node counts that makes the map a bijection.
  for (TreeNodeId ta = 0; ta < num_nodes; ++ta) {
    const TreeNodeId tb = a2b[ta];
    if (tb == kInvalidNode) return false;
    if (a.Level(ta) != b.Level(tb)) return false;
    const TreeNodeId pa = a.Parent(ta);
    const TreeNodeId pb = b.Parent(tb);
    if ((pa == kInvalidNode) != (pb == kInvalidNode)) return false;
    if (pa != kInvalidNode && a2b[pa] != pb) return false;
  }
  return true;
}

}  // namespace

Status ValidateHcd(const Graph& graph, const CoreDecomposition& cd,
                   const FlatHcdIndex& index) {
  const VertexId n = graph.NumVertices();
  if (index.NumVertices() != n) {
    return Status::Corruption("index vertex count mismatch");
  }

  // Vertex placement and levels.
  std::vector<uint64_t> placed(index.NumNodes(), 0);
  for (VertexId v = 0; v < n; ++v) {
    TreeNodeId t = index.Tid(v);
    if (t == kInvalidNode) {
      return Status::Corruption("vertex " + std::to_string(v) + " unplaced");
    }
    if (index.Level(t) != cd.coreness[v]) {
      return Status::Corruption("vertex " + std::to_string(v) +
                                " coreness != level of " +
                                NodeDesc(index, t));
    }
  }
  uint64_t total = 0;
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    if (index.Vertices(t).empty()) {
      return Status::Corruption(NodeDesc(index, t) + " is empty");
    }
    for (VertexId v : index.Vertices(t)) {
      if (index.Tid(v) != t) {
        return Status::Corruption("tid inconsistent for vertex " +
                                  std::to_string(v));
      }
      ++placed[t];
    }
    total += placed[t];
  }
  if (total != n) {
    return Status::Corruption("vertices appear in multiple nodes");
  }

  // Parent levels.
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    TreeNodeId p = index.Parent(t);
    if (p != kInvalidNode && index.Level(p) >= index.Level(t)) {
      return Status::Corruption("parent level not below child for " +
                                NodeDesc(index, t));
    }
  }

  // Per-node core checks: connected, min-degree >= k, maximal.
  std::vector<bool> in_core(n, false);
  std::vector<VertexId> stack;
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    const uint32_t k = index.Level(t);
    const auto core = index.CoreVertices(t);
    for (VertexId v : core) in_core[v] = true;

    // Min internal degree and maximality.
    for (VertexId v : core) {
      uint64_t internal = 0;
      for (VertexId u : graph.Neighbors(v)) {
        if (in_core[u]) {
          ++internal;
        } else if (cd.coreness[u] >= k) {
          for (VertexId w : core) in_core[w] = false;
          return Status::Corruption(NodeDesc(index, t) +
                                    " not maximal: vertex " +
                                    std::to_string(u) + " missing");
        }
      }
      if (internal < k) {
        for (VertexId w : core) in_core[w] = false;
        return Status::Corruption(NodeDesc(index, t) + " vertex " +
                                  std::to_string(v) +
                                  " has internal degree < k");
      }
    }

    // Connectivity.
    uint64_t reached = 0;
    stack.assign(1, core.front());
    in_core[core.front()] = false;  // reuse as "not yet visited" marker
    ++reached;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : graph.Neighbors(v)) {
        if (in_core[u]) {
          in_core[u] = false;
          ++reached;
          stack.push_back(u);
        }
      }
    }
    if (reached != core.size()) {
      return Status::Corruption(NodeDesc(index, t) + " core disconnected");
    }
  }
  return Status::Ok();
}

bool HcdEquals(const HcdForest& a, const FlatHcdIndex& b) {
  return HcdEqualsImpl(a, b);
}

bool HcdEquals(const FlatHcdIndex& a, const FlatHcdIndex& b) {
  return HcdEqualsImpl(a, b);
}

}  // namespace hcd
