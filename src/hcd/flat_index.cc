#include "hcd/flat_index.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "common/trace.h"
#include "parallel/omp_utils.h"

namespace hcd {

void BuildDescLevelOrder(std::span<const uint32_t> levels,
                         std::vector<TreeNodeId>* order,
                         std::vector<uint32_t>* group_offsets) {
  const size_t num_nodes = levels.size();
  order->resize(num_nodes);
  group_offsets->assign(1, 0);
  if (num_nodes == 0) return;

  uint32_t max_level = 0;
  for (uint32_t l : levels) max_level = std::max(max_level, l);
  // Bucket b holds level max_level - b, so ascending buckets are descending
  // levels.
  std::vector<uint32_t> bucket_size(static_cast<size_t>(max_level) + 1, 0);
  for (uint32_t l : levels) ++bucket_size[max_level - l];
  std::vector<uint32_t> bucket_start(bucket_size.size() + 1, 0);
  for (size_t b = 0; b < bucket_size.size(); ++b) {
    bucket_start[b + 1] = bucket_start[b] + bucket_size[b];
    if (bucket_size[b] > 0) group_offsets->push_back(bucket_start[b + 1]);
  }
  std::vector<uint32_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
  for (TreeNodeId t = 0; t < num_nodes; ++t) {
    (*order)[cursor[max_level - levels[t]]++] = t;
  }
}

namespace {

Status Corrupt(const std::string& msg) {
  return Status::Corruption("flat index: " + msg);
}

/// The search-table checks of Adopt, over a forest already proven valid
/// (levels and level groups are trusted). The primaries' values are not
/// read: they are trusted like the forest's, and a mapped snapshot's rows
/// stay on disk until a query scores them.
Status CheckSearchTables(const FlatHcdIndex::Data& d) {
  if (!d.search_tables) {
    if (!d.primaries.empty() || !d.best_nodes.empty() ||
        d.num_graph_edges != 0) {
      return Corrupt("search table sections without search tables");
    }
    return Status::Ok();
  }
  const size_t num_nodes = d.levels.size();
  if (d.primaries.size() != num_nodes) {
    return Corrupt("primary row count does not match node count");
  }
  // The first level group holds the largest level.
  const uint64_t table_len =
      num_nodes == 0 ? 0 : uint64_t{d.levels[d.desc_level_order[0]]} + 1;
  if (d.best_nodes.size() != NumBestTables(d.kind) * table_len) {
    return Corrupt("best-node table length does not match the level count");
  }
  for (size_t i = 0; i < d.best_nodes.size(); ++i) {
    const TreeNodeId t = d.best_nodes[i];
    if (t >= num_nodes) return Corrupt("best-node entry out of range");
    if (d.levels[t] < i % table_len) {
      return Corrupt("best-node entry below its level");
    }
  }
  return Status::Ok();
}

}  // namespace

Status FlatHcdIndex::Adopt(Data d, FlatHcdIndex* out) {
  const auto corrupt = Corrupt;
  const size_t num_nodes = d.levels.size();
  if (num_nodes >= kInvalidNode) return corrupt("too many nodes");
  if (d.num_vertices >= kInvalidVertex) return corrupt("too many vertices");

  // Element domain: the kind tag must be known, the member array must be
  // exactly arity-strided over every element id, and each element's members
  // must be in-range, canonically ascending graph vertices. kCore carries
  // no member array (an element IS its vertex), so the graph vertex count
  // must coincide with the element count.
  if (!IsValidHierarchyKind(static_cast<uint32_t>(d.kind))) {
    return corrupt("unknown hierarchy kind");
  }
  if (d.num_graph_vertices >= kInvalidVertex) {
    return corrupt("too many graph vertices");
  }
  if (d.kind == HierarchyKind::kCore) {
    if (!d.element_members.empty()) {
      return corrupt("core index carries element members");
    }
    if (d.num_graph_vertices != d.num_vertices) {
      return corrupt("core index graph vertex count mismatch");
    }
  } else {
    const uint32_t arity = ElementArity(d.kind);
    if (d.element_members.size() !=
        static_cast<uint64_t>(arity) * d.num_vertices) {
      return corrupt("element member count does not match arity");
    }
    for (size_t i = 0; i < d.element_members.size(); ++i) {
      if (d.element_members[i] >= d.num_graph_vertices) {
        return corrupt("element member vertex out of range");
      }
      if (i % arity != 0 && d.element_members[i - 1] >= d.element_members[i]) {
        return corrupt("element members not strictly ascending");
      }
    }
  }
  if (d.parents.size() != num_nodes || d.subtree_nodes.size() != num_nodes ||
      d.desc_level_order.size() != num_nodes ||
      d.vertex_offsets.size() != num_nodes + 1 ||
      d.tid.size() != d.num_vertices) {
    return corrupt("section size mismatch");
  }
  if (d.vertex_offsets.front() != 0) {
    return corrupt("offset array does not start at 0");
  }
  for (size_t t = 0; t < num_nodes; ++t) {
    if (d.vertex_offsets[t + 1] < d.vertex_offsets[t]) {
      return corrupt("offset array not monotone");
    }
  }
  if (d.vertex_offsets.back() != d.vertices.size()) {
    return corrupt("vertices size does not match offsets");
  }
  if (d.vertices.size() > d.num_vertices) {
    return corrupt("more placed vertices than graph vertices");
  }

  // Preorder nesting, in one pass over the stack of subtrees that are open
  // at t (each one's parent is the entry below it). A node's parent must be
  // the innermost open subtree, or kInvalidNode when none is open; its
  // subtree must fit inside the parent's and its level must be above it.
  // Then every node's descendants are exactly its interval, so the stored
  // subtree sizes are true and the roots' intervals tile [0, N).
  {
    std::vector<TreeNodeId> open;
    for (size_t t = 0; t < num_nodes; ++t) {
      const uint64_t sub = d.subtree_nodes[t];
      if (sub == 0 || t + sub > num_nodes) {
        return corrupt("subtree interval out of range");
      }
      while (!open.empty() &&
             t >= uint64_t{open.back()} + d.subtree_nodes[open.back()]) {
        open.pop_back();
      }
      const TreeNodeId p = open.empty() ? kInvalidNode : open.back();
      if (d.parents[t] != p) {
        return corrupt("parent is not the innermost enclosing subtree");
      }
      if (p != kInvalidNode) {
        if (t + sub > uint64_t{p} + d.subtree_nodes[p]) {
          return corrupt("child subtree escapes parent subtree");
        }
        if (d.levels[p] >= d.levels[t]) {
          return corrupt("parent level not below child level");
        }
      }
      open.push_back(static_cast<TreeNodeId>(t));
    }
  }

  // Vertex placements: per-node spans agree with tid, no vertex appears in
  // more than one span slot, and every vertex with a tid appears in exactly
  // the span that tid names. Per-vertex tracking (not just totals) so a
  // duplicate in one span can't be offset by a phantom placement elsewhere.
  {
    std::vector<uint8_t> seen(d.num_vertices, 0);
    for (size_t t = 0; t < num_nodes; ++t) {
      for (uint32_t i = d.vertex_offsets[t]; i < d.vertex_offsets[t + 1];
           ++i) {
        const VertexId v = d.vertices[i];
        if (v >= d.num_vertices) return corrupt("vertex id out of range");
        if (d.tid[v] != t) {
          return corrupt("tid does not match vertex placement");
        }
        if (seen[v] != 0) return corrupt("vertex placed more than once");
        seen[v] = 1;
      }
    }
    for (VertexId v = 0; v < d.num_vertices; ++v) {
      const TreeNodeId t = d.tid[v];
      if (t == kInvalidNode) continue;
      if (t >= num_nodes) return corrupt("tid out of range");
      if (seen[v] == 0) {
        return corrupt("tid names a node whose span omits the vertex");
      }
    }
  }

  // desc_level_order: a permutation of the nodes, grouped by strictly
  // descending level with ascending ids inside a group (canonical form).
  // The offsets array is validated in full before any of it is used to
  // index desc_level_order: strictly increasing, first 0, last num_nodes,
  // so every [begin, end) below is in bounds.
  if (d.level_group_offsets.empty() || d.level_group_offsets.front() != 0 ||
      d.level_group_offsets.back() != num_nodes) {
    return corrupt("level group offsets malformed");
  }
  for (size_t g = 0; g + 1 < d.level_group_offsets.size(); ++g) {
    if (d.level_group_offsets[g + 1] <= d.level_group_offsets[g] ||
        d.level_group_offsets[g + 1] > num_nodes) {
      return corrupt("level group offsets not strictly increasing");
    }
  }
  {
    std::vector<uint8_t> seen(num_nodes, 0);
    bool have_prev_level = false;
    uint32_t prev_level = 0;
    for (size_t g = 0; g + 1 < d.level_group_offsets.size(); ++g) {
      const uint32_t begin = d.level_group_offsets[g];
      const uint32_t end = d.level_group_offsets[g + 1];
      const TreeNodeId first = d.desc_level_order[begin];
      if (first >= num_nodes) return corrupt("level order id out of range");
      const uint32_t group_level = d.levels[first];
      if (have_prev_level && group_level >= prev_level) {
        return corrupt("level groups not strictly descending");
      }
      have_prev_level = true;
      prev_level = group_level;
      for (uint32_t i = begin; i < end; ++i) {
        const TreeNodeId t = d.desc_level_order[i];
        if (t >= num_nodes || seen[t] != 0) {
          return corrupt("level order is not a permutation");
        }
        seen[t] = 1;
        if (d.levels[t] != group_level) {
          return corrupt("mixed levels inside level group");
        }
        if (i > begin && d.desc_level_order[i - 1] >= t) {
          return corrupt("level group ids not ascending");
        }
      }
    }
  }
  HCD_RETURN_IF_ERROR(CheckSearchTables(d));

  out->data_ = std::move(d);
  return Status::Ok();
}

Status FlatHcdIndex::WithSearchTables(
    std::shared_ptr<const FlatHcdIndex> base, uint64_t num_graph_edges,
    ArrayRef<PrimaryValues> primaries, ArrayRef<TreeNodeId> best_nodes,
    FlatHcdIndex* out) {
  HCD_CHECK(base != nullptr);
  const Data& b = base->data_;
  Data d;
  d.kind = b.kind;
  d.num_vertices = b.num_vertices;
  d.num_graph_vertices = b.num_graph_vertices;
  const auto share = [&base](const auto& section) {
    return std::remove_cvref_t<decltype(section)>::Share(section, base);
  };
  d.element_members = share(b.element_members);
  d.levels = share(b.levels);
  d.parents = share(b.parents);
  d.subtree_nodes = share(b.subtree_nodes);
  d.vertex_offsets = share(b.vertex_offsets);
  d.vertices = share(b.vertices);
  d.tid = share(b.tid);
  d.desc_level_order = share(b.desc_level_order);
  d.level_group_offsets = share(b.level_group_offsets);
  d.search_tables = true;
  d.num_graph_edges = num_graph_edges;
  d.primaries = std::move(primaries);
  d.best_nodes = std::move(best_nodes);
  HCD_RETURN_IF_ERROR(CheckSearchTables(d));
  out->data_ = std::move(d);
  return Status::Ok();
}

FlatHcdIndex Freeze(const HcdForest& forest) {
  const TreeNodeId num_nodes = forest.NumNodes();
  const VertexId n = forest.NumVertices();

  FlatHcdIndex out;
  FlatHcdIndex::Data& d = out.data_;
  d.num_vertices = n;
  d.num_graph_vertices = n;  // kCore: elements are the graph vertices
  d.tid.assign(n, kInvalidNode);
  if (num_nodes == 0) return out;

  // Child CSR over the builder's node ids, straight from parent pointers.
  // Freeze re-checks the level contract so a malformed builder forest fails
  // loudly here instead of producing a cyclic "preorder".
  std::vector<uint32_t> old_child_offsets;
  std::vector<TreeNodeId> old_children;
  size_t num_roots = 0;
  {
    ScopedSpan span("freeze.child_csr");
    span.AddArg("nodes", num_nodes);
    old_child_offsets.assign(num_nodes + 1, 0);
    for (TreeNodeId t = 0; t < num_nodes; ++t) {
      const TreeNodeId p = forest.Parent(t);
      if (p == kInvalidNode) {
        ++num_roots;
        continue;
      }
      HCD_CHECK_LT(forest.Level(p), forest.Level(t))
          << "parent level must be below child level";
      ++old_child_offsets[p + 1];
    }
    for (TreeNodeId t = 0; t < num_nodes; ++t) {
      old_child_offsets[t + 1] += old_child_offsets[t];
    }
    old_children.resize(old_child_offsets[num_nodes]);
    std::vector<uint32_t> cursor(old_child_offsets.begin(),
                                 old_child_offsets.end() - 1);
    for (TreeNodeId t = 0; t < num_nodes; ++t) {
      const TreeNodeId p = forest.Parent(t);
      if (p != kInvalidNode) old_children[cursor[p]++] = t;
    }
  }
  auto old_children_of = [&](TreeNodeId t) {
    return std::span<const TreeNodeId>(old_children)
        .subspan(old_child_offsets[t],
                 old_child_offsets[t + 1] - old_child_offsets[t]);
  };

  std::vector<uint32_t> old_levels;
  {
    ScopedSpan span("freeze.levels");
    old_levels.resize(num_nodes);
    for (TreeNodeId t = 0; t < num_nodes; ++t) old_levels[t] = forest.Level(t);
  }

  // Subtree node / vertex counts, bottom-up. Nodes of equal level are never
  // ancestor/descendant, so each descending-level group is one parallel
  // step whose reads (children) were all written by earlier groups; a group
  // below kParallelGrain nodes runs on the calling thread.
  std::vector<uint32_t> own_verts;
  std::vector<TreeNodeId> sub_nodes;
  std::vector<uint32_t> sub_verts;
  {
    ScopedSpan span("freeze.subtree_counts");
    own_verts.assign(num_nodes, 0);
    sub_nodes.resize(num_nodes);
    sub_verts.resize(num_nodes);
    // Each node's own element count, from tid.
    for (VertexId v = 0; v < n; ++v) {
      const TreeNodeId t = forest.Tid(v);
      if (t != kInvalidNode) ++own_verts[t];
    }
    std::vector<TreeNodeId> old_order;
    std::vector<uint32_t> old_group_offsets;
    BuildDescLevelOrder(old_levels, &old_order, &old_group_offsets);
    span.AddArg("level_groups", old_group_offsets.size() - 1);
    for (size_t g = 0; g + 1 < old_group_offsets.size(); ++g) {
      const int64_t begin = old_group_offsets[g];
      const int64_t end = old_group_offsets[g + 1];
#pragma omp parallel for schedule(static) if (end - begin >= kParallelGrain)
      for (int64_t i = begin; i < end; ++i) {
        const TreeNodeId t = old_order[i];
        TreeNodeId sn = 1;
        uint32_t sv = own_verts[t];
        for (TreeNodeId c : old_children_of(t)) {
          sn += sub_nodes[c];
          sv += sub_verts[c];
        }
        sub_nodes[t] = sn;
        sub_verts[t] = sv;
      }
    }
  }

  // Per-root preorder id / vertex-slot bases (exclusive scans), so each tree
  // can be numbered independently in parallel, then the output arrays at
  // their final sizes. The child CSR pass counted the roots, so the root
  // list is sized once.
  std::vector<TreeNodeId> old_roots(num_roots);
  std::vector<TreeNodeId> node_base;
  std::vector<uint32_t> vert_base;
  std::vector<TreeNodeId> old2new;
  {
    ScopedSpan span("freeze.layout");
    size_t next_root = 0;
    for (TreeNodeId t = 0; t < num_nodes; ++t) {
      if (forest.Parent(t) == kInvalidNode) old_roots[next_root++] = t;
    }
    node_base.assign(num_roots + 1, 0);
    vert_base.assign(num_roots + 1, 0);
    for (size_t r = 0; r < num_roots; ++r) {
      node_base[r + 1] = node_base[r] + sub_nodes[old_roots[r]];
      vert_base[r + 1] = vert_base[r] + sub_verts[old_roots[r]];
    }
    HCD_CHECK_EQ(node_base.back(), num_nodes)
        << "forest has a parent cycle or orphan nodes";
    d.levels.resize(num_nodes);
    d.parents.resize(num_nodes);
    d.subtree_nodes.resize(num_nodes);
    d.vertex_offsets.resize(static_cast<size_t>(num_nodes) + 1);
    d.vertex_offsets[num_nodes] = vert_base.back();
    d.vertices.resize(vert_base.back());
    old2new.resize(num_nodes);
  }
  const uint32_t total_placed = vert_base[num_roots];
  // One preorder DFS per tree; trees write disjoint ranges of every output
  // array, so the loop is embarrassingly parallel. Tree sizes are very
  // skewed but most roots are singletons, so roots are handed out in
  // guided chunks (large first, never below 64): one root at a time made
  // the scheduler the cost. The parallel/for split exists so each worker can
  // carry a span of its own — the trace then shows the tree-size skew
  // directly. A forest below kParallelGrain nodes is numbered on one
  // thread.
  {
    ScopedSpan span("freeze.preorder");
    span.AddArg("roots", num_roots);
#pragma omp parallel if (num_nodes >= kParallelGrain)
    {
      ScopedSpan worker_span("freeze.preorder.worker");
      TreeNodeId numbered = 0;
      std::vector<TreeNodeId> stack;  // reused: most trees are one node
#pragma omp for schedule(guided, 64)
      for (int64_t r = 0; r < static_cast<int64_t>(num_roots); ++r) {
        TreeNodeId next_id = node_base[r];
        uint32_t next_slot = vert_base[r];
        stack.push_back(old_roots[r]);
        while (!stack.empty()) {
          const TreeNodeId old_t = stack.back();
          stack.pop_back();
          const TreeNodeId new_t = next_id++;
          old2new[old_t] = new_t;
          d.levels[new_t] = old_levels[old_t];
          d.subtree_nodes[new_t] = sub_nodes[old_t];
          const TreeNodeId old_p = forest.Parent(old_t);
          // A node's parent is visited before it in the same tree's DFS, so
          // its new id is already available.
          d.parents[new_t] =
              old_p == kInvalidNode ? kInvalidNode : old2new[old_p];
          d.vertex_offsets[new_t] = next_slot;
          next_slot += own_verts[old_t];
          // Push in reverse so children pop (and get numbered) in ascending
          // builder order.
          const std::span<const TreeNodeId> kids = old_children_of(old_t);
          for (size_t i = kids.size(); i-- > 0;) stack.push_back(kids[i]);
        }
        numbered += sub_nodes[old_roots[r]];
      }
      worker_span.AddArg("nodes", numbered);
    }
  }

  // Elements into the slots the preorder reserved: one counting scatter
  // over tid, in ascending element id, so each node's span is ascending.
  {
    ScopedSpan span("freeze.scatter");
    span.AddArg("elements", total_placed);
    std::vector<uint32_t> cursor(d.vertex_offsets.begin(),
                                 d.vertex_offsets.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      const TreeNodeId t = forest.Tid(v);
      if (t == kInvalidNode) continue;
      const TreeNodeId new_t = old2new[t];
      d.tid[v] = new_t;
      d.vertices[cursor[new_t]++] = v;
    }
  }

  // The descending-level order over the preorder ids.
  {
    ScopedSpan span("freeze.relabel");
    std::vector<TreeNodeId> order;
    std::vector<uint32_t> group_offsets;
    BuildDescLevelOrder(d.levels, &order, &group_offsets);
    d.desc_level_order = std::move(order);
    d.level_group_offsets = std::move(group_offsets);
  }
  return out;
}

FlatHcdIndex Freeze(const HcdForest& forest, HierarchyKind kind,
                    std::vector<VertexId> element_members,
                    VertexId num_graph_vertices) {
  HCD_CHECK(kind != HierarchyKind::kCore)
      << "a core forest freezes with Freeze(forest)";
  ScopedSpan span("freeze.kind");
  span.AddArg("kind", std::string(HierarchyKindName(kind)));
  FlatHcdIndex out = Freeze(forest);
  FlatHcdIndex::Data& d = out.data_;
  HCD_CHECK_EQ(element_members.size(),
               static_cast<uint64_t>(ElementArity(kind)) * d.num_vertices)
      << "element member array must be arity-strided over every element id";
  d.kind = kind;
  d.num_graph_vertices = num_graph_vertices;
  d.element_members = std::move(element_members);
  return out;
}

}  // namespace hcd
