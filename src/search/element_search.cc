#include "search/element_search.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "parallel/omp_utils.h"

namespace hcd {

ElementSearchIndex::ElementSearchIndex(std::shared_ptr<const FlatHcdIndex> flat)
    : flat_(std::move(flat)) {
  HCD_CHECK(flat_ != nullptr);
  HCD_CHECK(flat_->kind() != HierarchyKind::kCore)
      << "ElementSearchIndex serves element hierarchies; core hierarchies "
         "score through SearchIndex";
  ScopedStage stage("search.element");
  const FlatHcdIndex& f = *flat_;
  const TreeNodeId num_nodes = f.NumNodes();
  const VertexId num_graph = f.NumGraphVertices();
  community_vertices_.resize(num_nodes);
  density_.resize(num_nodes);

  // Distinct member vertices per node. Nodes are independent, so the loop
  // is parallel with one stamp array per worker; stamping with t+1 makes
  // every node's pass see a clean array without clearing (0 is never a
  // stamp, t+1 is unique per node).
  {
    ScopedSpan span("search.element.community_sizes");
    span.AddArg("nodes", num_nodes);
#pragma omp parallel
    {
      std::vector<uint32_t> stamp(num_graph, 0);
#pragma omp for schedule(dynamic, 64)
      for (int64_t t = 0; t < static_cast<int64_t>(num_nodes); ++t) {
        const TreeNodeId node = static_cast<TreeNodeId>(t);
        const uint32_t mark = node + 1;
        uint64_t distinct = 0;
        for (const VertexId element : f.CoreVertices(node)) {
          for (const VertexId v : f.ElementMembers(element)) {
            if (stamp[v] != mark) {
              stamp[v] = mark;
              ++distinct;
            }
          }
        }
        community_vertices_[node] = distinct;
      }
    }
  }

  const double arity = static_cast<double>(f.arity());
  for (TreeNodeId t = 0; t < num_nodes; ++t) {
    const uint64_t verts = community_vertices_[t];
    density_[t] = verts == 0
                      ? 0.0
                      : arity * static_cast<double>(f.CoreSize(t)) /
                            static_cast<double>(verts);
  }
  best_ = BestNodeByLevel(f, density_);
  stage.AddCounter("nodes", num_nodes);
  stage.AddCounter("elements", f.NumElements());
}

void ElementSearchIndex::CommunityOf(TreeNodeId t, SearchWorkspace* ws,
                                     std::vector<VertexId>* out) const {
  if (t == kInvalidNode) return;
  const FlatHcdIndex& f = *flat_;
  if (ws->stamp.size() != f.NumGraphVertices()) {
    ws->stamp.assign(f.NumGraphVertices(), 0);
    ws->epoch = 0;
  }
  if (++ws->epoch == 0) {  // epoch wrap: one full clear every 2^32 queries
    std::fill(ws->stamp.begin(), ws->stamp.end(), 0);
    ws->epoch = 1;
  }
  const uint32_t mark = ws->epoch;
  const size_t first = out->size();
  for (const VertexId element : f.CoreVertices(t)) {
    for (const VertexId v : f.ElementMembers(element)) {
      if (ws->stamp[v] != mark) {
        ws->stamp[v] = mark;
        out->push_back(v);
      }
    }
  }
  std::sort(out->begin() + first, out->end());
}

}  // namespace hcd
