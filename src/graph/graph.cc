#include "graph/graph.h"

#include <algorithm>

namespace hcd {

Graph::Graph(ArrayRef<EdgeIndex> offsets, ArrayRef<VertexId> adj)
    : offsets_(std::move(offsets)), adj_(std::move(adj)) {
  HCD_CHECK(!offsets_.empty());
  HCD_CHECK_EQ(offsets_.front(), 0u);
  HCD_CHECK_EQ(offsets_.back(), adj_.size());
  HCD_CHECK_EQ(adj_.size() % 2, 0u) << "undirected graph needs even adjacency";
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

EdgeList Graph::Edges() const {
  EdgeList edges;
  edges.reserve(NumEdges());
  for (VertexId v = 0; v < NumVertices(); ++v) {
    for (VertexId u : Neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

double Graph::AverageDegree() const {
  if (NumVertices() == 0) return 0.0;
  return static_cast<double>(adj_.size()) / NumVertices();
}

VertexId Graph::MaxDegree() const {
  VertexId best = 0;
  for (VertexId v = 0; v < NumVertices(); ++v) best = std::max(best, Degree(v));
  return best;
}

}  // namespace hcd
