#include "hcd/rebuild.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/telemetry.h"
#include "common/trace.h"
#include "graph/subgraph.h"
#include "hcd/phcd.h"

namespace hcd {

RebuildPlan PlanRebuild(const FlatHcdIndex& old_index,
                        std::span<const VertexId> touched,
                        const RebuildOptions& options) {
  RebuildPlan plan;
  const std::span<const TreeNodeId> roots = old_index.Roots();
  std::vector<uint8_t> dirty(roots.size(), 0);
  for (VertexId v : touched) {
    const TreeNodeId t = old_index.Tid(v);
    if (t == kInvalidNode) continue;
    // The owning tree is the block [r, r + SubtreeNodes(r)) containing t:
    // r is the largest root id <= t, roots being ascending preorder ids.
    const size_t i =
        std::upper_bound(roots.begin(), roots.end(), t) - roots.begin() - 1;
    dirty[i] = 1;
  }
  for (size_t i = 0; i < roots.size(); ++i) {
    if (!dirty[i]) continue;
    plan.dirty_roots.push_back(roots[i]);
    const std::span<const VertexId> core = old_index.CoreVertices(roots[i]);
    plan.dirty_vertices.insert(plan.dirty_vertices.end(), core.begin(),
                               core.end());
  }
  plan.dirty_fraction =
      old_index.NumVertices() == 0
          ? 0.0
          : static_cast<double>(plan.dirty_vertices.size()) /
                static_cast<double>(old_index.NumVertices());
  plan.full_rebuild = plan.dirty_fraction > options.full_rebuild_threshold;
  return plan;
}

Status ApplyRebuild(const RebuildPlan& plan, const FlatHcdIndex& old_index,
                    const Graph& new_graph, const CoreDecomposition& new_cd,
                    FlatHcdIndex* out) {
  if (new_graph.NumVertices() != old_index.NumVertices() ||
      new_cd.coreness.size() != new_graph.NumVertices()) {
    return Status::InvalidArgument(
        "rebuild requires an unchanged vertex set");
  }
  if (plan.full_rebuild) {
    HcdForest forest = PhcdBuild(new_graph, new_cd);
    *out = Freeze(std::move(forest));
    return Status::Ok();
  }

  ScopedSpan span("rebuild.refreeze");
  span.AddArg("dirty_roots", plan.dirty_roots.size());
  span.AddArg("dirty_vertices", plan.dirty_vertices.size());

  // Rebuild the dirty region alone. Its vertex set is a union of whole
  // connected components (see RebuildPlan), so the induced subgraph is
  // those components verbatim and the restriction of the global coreness
  // is exactly the subgraph's own core decomposition.
  InducedSubgraph sub;
  FlatHcdIndex subflat;
  {
    ScopedStage stage("rebuild.subbuild");
    sub = Induce(new_graph, plan.dirty_vertices);
    CoreDecomposition sub_cd;
    sub_cd.coreness.resize(sub.vertices.size());
    for (size_t i = 0; i < sub.vertices.size(); ++i) {
      sub_cd.coreness[i] = new_cd.coreness[sub.vertices[i]];
      sub_cd.k_max = std::max(sub_cd.k_max, sub_cd.coreness[i]);
    }
    subflat = Freeze(PhcdBuild(sub.graph, sub_cd));
    stage.AddCounter("vertices", sub.vertices.size());
    stage.AddCounter("nodes", subflat.NumNodes());
  }

  ScopedStage stage("rebuild.splice");
  const FlatHcdIndex::Data& old_data = old_index.data();
  const FlatHcdIndex::Data& sub_data = subflat.data();
  FlatHcdIndex::Data data;
  // Splicing rearranges trees, not elements: the element domain (kind,
  // member materialization) carries over from the old generation verbatim.
  data.kind = old_data.kind;
  data.num_vertices = old_data.num_vertices;
  data.num_graph_vertices = old_data.num_graph_vertices;
  data.element_members = old_data.element_members;
  data.child_offsets.assign(1, 0);
  data.vertex_offsets.assign(1, 0);

  // Appends src's contiguous preorder node range [first, first + count) as
  // the next nodes of `data`, shifting every node id by the block's new
  // base and mapping vertex ids through `vmap` (local->global) when given.
  // A block never references nodes outside itself, so a uniform delta is
  // all the renumbering a tree (or a run of whole trees) needs.
  auto append_nodes = [&data](const FlatHcdIndex::Data& src, TreeNodeId first,
                              TreeNodeId count,
                              const std::vector<VertexId>* vmap) {
    const TreeNodeId base = static_cast<TreeNodeId>(data.levels.size());
    const int64_t delta = static_cast<int64_t>(base) - first;
    auto shift = [delta](TreeNodeId t) {
      return t == kInvalidNode
                 ? kInvalidNode
                 : static_cast<TreeNodeId>(static_cast<int64_t>(t) + delta);
    };
    for (TreeNodeId t = first; t < first + count; ++t) {
      data.levels.push_back(src.levels[t]);
      data.parents.push_back(shift(src.parents[t]));
      data.subtree_nodes.push_back(src.subtree_nodes[t]);
      for (uint32_t c = src.child_offsets[t]; c < src.child_offsets[t + 1];
           ++c) {
        data.children.push_back(shift(src.children[c]));
      }
      data.child_offsets.push_back(static_cast<uint32_t>(data.children.size()));
      for (uint32_t i = src.vertex_offsets[t]; i < src.vertex_offsets[t + 1];
           ++i) {
        const VertexId v = src.vertices[i];
        data.vertices.push_back(vmap != nullptr ? (*vmap)[v] : v);
      }
      data.vertex_offsets.push_back(
          static_cast<uint32_t>(data.vertices.size()));
    }
    return base;
  };

  size_t kept_trees = 0;
  for (TreeNodeId r : old_index.Roots()) {
    if (std::binary_search(plan.dirty_roots.begin(), plan.dirty_roots.end(),
                           r)) {
      continue;
    }
    data.roots.push_back(
        append_nodes(old_data, r, old_index.SubtreeNodes(r), nullptr));
    ++kept_trees;
  }
  if (subflat.NumNodes() > 0) {
    const TreeNodeId base =
        append_nodes(sub_data, 0, subflat.NumNodes(), &sub.vertices);
    for (TreeNodeId r : sub_data.roots) {
      data.roots.push_back(base + r);
    }
  }

  const TreeNodeId num_nodes = static_cast<TreeNodeId>(data.levels.size());
  data.tid.assign(data.num_vertices, kInvalidNode);
  for (TreeNodeId t = 0; t < num_nodes; ++t) {
    for (uint32_t i = data.vertex_offsets[t]; i < data.vertex_offsets[t + 1];
         ++i) {
      data.tid[data.vertices[i]] = t;
    }
  }

  // Descending-level order and its grouping, by counting sort (ascending
  // ids within a level fall out of the ascending placement loop).
  uint32_t max_level = 0;
  for (uint32_t l : data.levels) max_level = std::max(max_level, l);
  std::vector<uint32_t> level_start(max_level + 1, 0);
  for (uint32_t l : data.levels) ++level_start[l];
  data.desc_level_order.resize(num_nodes);
  data.level_group_offsets.assign(1, 0);
  uint32_t pos = 0;
  for (int64_t l = max_level; l >= 0; --l) {
    const uint32_t count = level_start[l];
    if (count == 0) continue;
    level_start[l] = pos;
    pos += count;
    data.level_group_offsets.push_back(pos);
  }
  for (TreeNodeId t = 0; t < num_nodes; ++t) {
    data.desc_level_order[level_start[data.levels[t]]++] = t;
  }

  stage.AddCounter("kept_trees", kept_trees);
  stage.AddCounter("rebuilt_nodes", subflat.NumNodes());
  stage.AddCounter("nodes", num_nodes);
  // The validation funnel: a splicing bug becomes a Corruption status here
  // instead of a silently wrong serving index.
  return FlatHcdIndex::Adopt(std::move(data), out);
}

}  // namespace hcd
