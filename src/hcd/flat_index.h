#ifndef HCD_HCD_FLAT_INDEX_H_
#define HCD_HCD_FLAT_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/mapped_file.h"
#include "common/status.h"
#include "graph/types.h"
#include "hcd/forest.h"
#include "hcd/hierarchy_kind.h"
#include "hcd/primary_values.h"

namespace hcd {

/// Immutable, query-facing representation of a hierarchical core
/// decomposition (Section II-B).
///
/// The builders write an `HcdForest`: levels, parents and tid, nothing
/// grouped per node. `Freeze` renumbers its nodes in preorder, groups the
/// elements by node and packs everything into flat CSR arrays. Preorder
/// numbering gives every node a contiguous subtree interval, which is what
/// makes the index cheap to serve from:
///
///   - subtree of t        = node ids [t, t + SubtreeNodes(t))
///   - children of t       = t + 1, then each next child one subtree later
///                           (c + SubtreeNodes(c)), up to the end of t's
///                           subtree; the roots tile [0, NumNodes()) the
///                           same way from 0. Neither is stored.
///   - CoreVertices(t)     = vertices[vertex_offsets[t],
///                                    vertex_offsets[t + SubtreeNodes(t)])
///     an O(1) span, because a node's descendants' vertices are stored
///     right after its own.
///   - Vertices(t)         = vertices[vertex_offsets[t], vertex_offsets[t+1])
///     (the next preorder node starts where t's own vertices end), in
///     ascending id order.
///
/// The bottom-up accumulations of Algorithms 3-5 also get two fast shapes:
/// reverse preorder (children always follow parents, so a single descending
/// id loop is a valid serial schedule) and the precomputed descending-level
/// groups (nodes of equal level are mutually independent, so each group is a
/// parallel step).
///
/// The snapshot format (hcd/serialize.h, "HCDFOR05") is exactly the `Data`
/// struct below written section by section under one header for every
/// kind, so loading is a handful of bulk reads followed by `Adopt`
/// validation.
///
/// An index of any kind may carry the search tables (Section IV-D) next
/// to its forest: one PrimaryValues row per node and per-level best-node
/// tables, NumBestTables(kind) of them. A core index's rows are PBKS's
/// accumulated primary values with one table per metric; a truss or
/// nucleus index's rows count each community's distinct member vertices,
/// with one table over density. SearchIndex (search/search_index.h) is a
/// view over them, so a snapshot that carries them serves without
/// recomputing anything. WithSearchTables adds them to a built index while
/// sharing, not copying, its forest sections.
///
/// One index class serves all three decomposition families: for truss and
/// nucleus hierarchies the "vertices" here are element ids (edges /
/// triangles) and `ElementMembers` materializes an element back to its
/// graph vertices; every structural accessor (subtree spans, level groups,
/// Tid, CoreVertices) is domain-agnostic and works unchanged.
class FlatHcdIndex {
 public:
  /// The packed arrays. N = node count, G = number of distinct levels,
  /// P = number of placed elements (== sum of per-node element counts),
  /// n = number of elements in the decomposed domain.
  ///
  /// For the core hierarchy the elements ARE graph vertices (n = the graph's
  /// vertex count and `element_members` stays empty). For truss / nucleus
  /// hierarchies the "vertices" of this index are element ids (edges /
  /// triangles) and `element_members` materializes each element back to its
  /// member graph vertices with stride ElementArity(kind).
  ///
  /// Sections are storage-agnostic ArrayRefs: Freeze produces owned
  /// (vector-backed) sections, while MapFlatIndex aliases the snapshot's
  /// mmap'd bytes directly — same accessors, same bytes, zero copies. Aliased sections co-own the mapping, so a Data (and any index
  /// adopted from it) keeps the file mapped for as long as it lives.
  struct Data {
    HierarchyKind kind = HierarchyKind::kCore;
    VertexId num_vertices = 0;               // n (elements)
    /// Graph vertex count: the id domain of element_members. Equals
    /// num_vertices for kCore (enforced by Adopt).
    VertexId num_graph_vertices = 0;
    /// [ElementArity(kind) * n] member vertices per element id, in canonical
    /// order (edge endpoints ascending, triangle corners ascending). Empty
    /// for kCore.
    ArrayRef<VertexId> element_members;
    ArrayRef<uint32_t> levels;               // [N] core level per node
    ArrayRef<TreeNodeId> parents;            // [N] preorder parent; roots map
                                             //     to kInvalidNode
    ArrayRef<TreeNodeId> subtree_nodes;      // [N] nodes in subtree (incl. t)
    ArrayRef<uint32_t> vertex_offsets;       // [N+1] CSR into `vertices`
    ArrayRef<VertexId> vertices;             // [P] vertex sets in preorder
    ArrayRef<TreeNodeId> tid;                // [n] vertex -> node
    ArrayRef<TreeNodeId> desc_level_order;        // [N] level desc, id asc
    ArrayRef<uint32_t> level_group_offsets;       // [G+1] into the above

    // Search tables: present iff `search_tables`; both sections are empty
    // and num_graph_edges is 0 otherwise. L = the largest level.
    bool search_tables = false;
    uint64_t num_graph_edges = 0;            // m of the graph they describe
    ArrayRef<PrimaryValues> primaries;       // [N] one row per node
    ArrayRef<TreeNodeId> best_nodes;         // [NumBestTables(kind) *
                                             //     (L+1)], table-major,
                                             //     entry k = best node of
                                             //     level >= k

    /// True when any section aliases a mapped snapshot.
    bool mapped() const {
      return element_members.mapped() || levels.mapped() ||
             parents.mapped() || subtree_nodes.mapped() ||
             vertex_offsets.mapped() || vertices.mapped() || tid.mapped() ||
             desc_level_order.mapped() || level_group_offsets.mapped() ||
             primaries.mapped() || best_nodes.mapped();
    }
  };

  FlatHcdIndex() {
    data_.vertex_offsets.assign(1, 0);
    data_.level_group_offsets.assign(1, 0);
  }

  /// Validates `data` against every structural invariant of the layout
  /// (each node's parent is the innermost subtree interval enclosing it,
  /// which pins the subtree sizes; level ordering, CSR monotonicity,
  /// tid <-> vertices consistency,
  /// desc_level_order permutation) and, when present, of the search tables
  /// (one row per node; NumBestTables(kind) best-node tables, each L + 1
  /// entries long, entry k a node of level >= k). Returns
  /// Corruption on any violation; on success moves the arrays into
  /// `*out`. This is the single funnel through which untrusted snapshot
  /// bytes become a live index.
  static Status Adopt(Data data, FlatHcdIndex* out);

  /// `base`'s forest with search tables: every forest section of `*out` is
  /// a view of `base`'s (ArrayRef::Share; `*out` co-owns `base`, nothing
  /// is copied), and the tables are `primaries` and `best_nodes`, computed
  /// over a graph of `num_graph_edges` edges. Tables `base` already
  /// carries are replaced. The tables pass Adopt's checks or the call
  /// returns Corruption.
  static Status WithSearchTables(std::shared_ptr<const FlatHcdIndex> base,
                                 uint64_t num_graph_edges,
                                 ArrayRef<PrimaryValues> primaries,
                                 ArrayRef<TreeNodeId> best_nodes,
                                 FlatHcdIndex* out);

  // --- accessors -------------------------------------------------------------

  TreeNodeId NumNodes() const {
    return static_cast<TreeNodeId>(data_.levels.size());
  }
  VertexId NumVertices() const { return data_.num_vertices; }

  // --- element domain ------------------------------------------------------

  HierarchyKind kind() const { return data_.kind; }
  /// Member vertices per element (1 core / 2 truss / 3 nucleus).
  uint32_t arity() const { return ElementArity(data_.kind); }
  /// Number of elements in the decomposed domain (alias of NumVertices:
  /// the index's "vertices" are element ids).
  VertexId NumElements() const { return data_.num_vertices; }
  /// Graph vertex count — the id domain element members come from. Equals
  /// NumVertices() for kCore.
  VertexId NumGraphVertices() const { return data_.num_graph_vertices; }

  /// Member graph vertices of `element`, canonical ascending order.
  /// Valid only for kind() != kCore (a core element IS its vertex).
  std::span<const VertexId> ElementMembers(VertexId element) const {
    const uint32_t a = arity();
    return std::span<const VertexId>(data_.element_members)
        .subspan(static_cast<size_t>(element) * a, a);
  }

  uint32_t Level(TreeNodeId node) const { return data_.levels[node]; }
  TreeNodeId Parent(TreeNodeId node) const { return data_.parents[node]; }

  /// Nodes in the subtree rooted at `node`, including the node itself.
  TreeNodeId SubtreeNodes(TreeNodeId node) const {
    return data_.subtree_nodes[node];
  }

  /// Vertices owned by the node itself (V(T_i) = S ∩ H_k).
  std::span<const VertexId> Vertices(TreeNodeId node) const {
    return std::span<const VertexId>(data_.vertices)
        .subspan(data_.vertex_offsets[node],
                 data_.vertex_offsets[node + 1] - data_.vertex_offsets[node]);
  }

  /// Node containing v, or kInvalidNode if v was never placed.
  TreeNodeId Tid(VertexId v) const { return data_.tid[v]; }

  /// Vertices of the node's original k-core. O(1): the subtree's vertex
  /// sets are contiguous in preorder.
  std::span<const VertexId> CoreVertices(TreeNodeId node) const {
    const uint32_t begin = data_.vertex_offsets[node];
    const uint32_t end =
        data_.vertex_offsets[node + data_.subtree_nodes[node]];
    return std::span<const VertexId>(data_.vertices)
        .subspan(begin, end - begin);
  }

  /// Number of vertices in the node's original k-core. O(1).
  uint64_t CoreSize(TreeNodeId node) const {
    return data_.vertex_offsets[node + data_.subtree_nodes[node]] -
           data_.vertex_offsets[node];
  }

  /// Node ids ordered by descending level (ties by preorder id);
  /// precomputed, so no sort and no allocation.
  std::span<const TreeNodeId> NodesByDescendingLevel() const {
    return data_.desc_level_order;
  }

  /// Descending-level grouping of NodesByDescendingLevel: group g holds all
  /// nodes of the g-th largest level. Nodes within a group never have
  /// ancestor/descendant relations, so a group is one parallel step of the
  /// bottom-up accumulations (Algorithm 3 lines 6-9).
  size_t NumLevelGroups() const {
    return data_.level_group_offsets.size() - 1;
  }
  std::span<const TreeNodeId> LevelGroup(size_t g) const {
    return std::span<const TreeNodeId>(data_.desc_level_order)
        .subspan(data_.level_group_offsets[g],
                 data_.level_group_offsets[g + 1] -
                     data_.level_group_offsets[g]);
  }

  // --- search tables --------------------------------------------------------

  /// True when the index carries its search tables (see Data).
  bool HasSearchTables() const { return data_.search_tables; }
  /// Edge count of the graph the search tables describe (0 without them).
  uint64_t NumGraphEdges() const { return data_.num_graph_edges; }
  /// One row per node: the accumulated primary values of its k-core, or
  /// for an element index its community's distinct member vertices in
  /// n_s (empty without search tables).
  std::span<const PrimaryValues> Primaries() const { return data_.primaries; }
  /// Best-node table `table` (< NumBestTables(kind())): entry k is the
  /// best-scoring node of level >= k under that table's metric.
  std::span<const TreeNodeId> BestNodes(size_t table) const {
    const size_t len = data_.best_nodes.size() / NumBestTables(data_.kind);
    return std::span<const TreeNodeId>(data_.best_nodes)
        .subspan(table * len, len);
  }

  /// Read-only view of the packed arrays; the serializer writes these
  /// verbatim, which is what makes snapshots round-trip bit-identically.
  const Data& data() const { return data_; }

  /// True when the sections alias a mapped snapshot (MapFlatIndex) rather
  /// than owning their storage.
  bool mapped() const { return data_.mapped(); }

 private:
  friend FlatHcdIndex Freeze(const HcdForest& forest);
  friend FlatHcdIndex Freeze(const HcdForest& forest, HierarchyKind kind,
                             std::vector<VertexId> element_members,
                             VertexId num_graph_vertices);

  Data data_;
};

/// Renumbers the forest into preorder and packs it into a FlatHcdIndex.
/// Builds builder-id child lists from the parent pointers for its own
/// traversal (the index keeps none), sizes every subtree in
/// a level-synchronous bottom-up pass, numbers each tree by a DFS
/// (parallel across roots), and places every node's elements by a
/// counting scatter over tid, in ascending element id. The forest must
/// satisfy the builder contract (every parent edge strictly decreases the
/// level walking up); violations abort — untrusted inputs must go through
/// MapFlatIndex, which returns Status instead.
FlatHcdIndex Freeze(const HcdForest& forest);

/// Kind-tagged freeze of a truss or nucleus forest: same preorder packing,
/// with the forest's element domain recorded and each element's member
/// vertices moved in alongside (`element_members` is arity-strided by
/// element id, covering ALL element ids 0..forest.NumVertices(), placed or
/// not — for a truss forest this is exactly EdgeIndexer::edges flattened).
/// `num_graph_vertices` is the graph vertex count the member ids live in.
/// The per-kind wrappers FreezeTruss (src/truss) and FreezeNucleus
/// (src/nucleus) build the member array from their indexers; call those
/// instead of this directly.
FlatHcdIndex Freeze(const HcdForest& forest, HierarchyKind kind,
                    std::vector<VertexId> element_members,
                    VertexId num_graph_vertices);

/// Counting sort of node ids by descending level, ties by ascending id,
/// with the group boundaries (one group per distinct level): the
/// `desc_level_order` and `level_group_offsets` sections of a forest with
/// these levels.
void BuildDescLevelOrder(std::span<const uint32_t> levels,
                         std::vector<TreeNodeId>* order,
                         std::vector<uint32_t>* group_offsets);

}  // namespace hcd

#endif  // HCD_HCD_FLAT_INDEX_H_
