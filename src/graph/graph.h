#ifndef HCD_GRAPH_GRAPH_H_
#define HCD_GRAPH_GRAPH_H_

#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mapped_file.h"
#include "graph/types.h"

namespace hcd {

/// Immutable undirected simple graph in compressed sparse row (CSR) form.
///
/// Invariants (established by GraphBuilder, assumed by every algorithm):
///  - vertices are 0..NumVertices()-1;
///  - no self-loops, no parallel edges;
///  - adjacency is symmetric: u in Neighbors(v) iff v in Neighbors(u);
///  - each adjacency list is sorted ascending (enables binary-search
///    membership tests and deterministic iteration).
///
/// The two arrays are ArrayRef sections (common/mapped_file.h), the storage
/// seam FlatHcdIndex uses too: a built graph owns them, and a graph loaded
/// by IngestBinary aliases its adjacency inside the mapped file. Copies of
/// an owned graph are deep; copies of a loaded graph are views that co-own
/// the mapping. Either way the graph is immutable.
class Graph {
 public:
  /// Constructs an empty graph (0 vertices).
  Graph() : offsets_{0} {}

  /// Constructs from raw CSR arrays. `offsets` has n+1 entries; `adj` has
  /// offsets[n] entries. Callers normally use GraphBuilder instead; this
  /// constructor CHECK-fails on malformed shapes but does not re-verify
  /// symmetry or sortedness (see GraphBuilder).
  Graph(std::vector<EdgeIndex> offsets, std::vector<VertexId> adj)
      : Graph(ArrayRef<EdgeIndex>(std::move(offsets)),
              ArrayRef<VertexId>(std::move(adj))) {}

  /// The same over sections that may alias storage owned elsewhere (the
  /// mapped file of IngestBinary, which has verified every invariant).
  Graph(ArrayRef<EdgeIndex> offsets, ArrayRef<VertexId> adj);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Number of vertices n.
  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of undirected edges m.
  EdgeIndex NumEdges() const { return offsets_.back() / 2; }

  /// Degree of `v`.
  VertexId Degree(VertexId v) const {
    HCD_DCHECK(v < NumVertices());
    return static_cast<VertexId>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of `v`, sorted ascending.
  std::span<const VertexId> Neighbors(VertexId v) const {
    HCD_DCHECK(v < NumVertices());
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True iff edge {u, v} exists. O(log Degree(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Start index of v's adjacency slice in the flat adjacency array.
  EdgeIndex AdjOffset(VertexId v) const { return offsets_[v]; }

  /// Flat adjacency array of size 2m (both directions of every edge);
  /// mapped() when it lives in a loaded graph file.
  const ArrayRef<VertexId>& AdjArray() const { return adj_; }

  /// All undirected edges as (min, max) pairs, sorted.
  EdgeList Edges() const;

  /// 2m / n, or 0 for the empty graph.
  double AverageDegree() const;

  /// Largest vertex degree.
  VertexId MaxDegree() const;

 private:
  ArrayRef<EdgeIndex> offsets_;  // size n+1
  ArrayRef<VertexId> adj_;       // size 2m
};

}  // namespace hcd

#endif  // HCD_GRAPH_GRAPH_H_
