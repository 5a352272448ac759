#ifndef HCD_HCD_FLAT_INDEX_H_
#define HCD_HCD_FLAT_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/mapped_file.h"
#include "common/status.h"
#include "graph/types.h"
#include "hcd/forest.h"
#include "hcd/hierarchy_kind.h"

namespace hcd {

/// Immutable, query-facing representation of a hierarchical core
/// decomposition (Section II-B).
///
/// `HcdForest` stays the builder-facing structure (NewNode / AddVertex /
/// SetParent); `Freeze` renumbers its nodes in preorder and packs everything
/// into flat CSR arrays. Preorder numbering gives every node a contiguous
/// subtree interval, which is what makes the index cheap to serve from:
///
///   - subtree of t        = node ids [t, t + SubtreeNodes(t))
///   - CoreVertices(t)     = vertices[vertex_offsets[t],
///                                    vertex_offsets[t + SubtreeNodes(t)])
///     an O(1) span — the DFS + allocation of HcdForest::CoreVertices is
///     gone because a node's descendants' vertices are stored right after
///     its own.
///   - Vertices(t)         = vertices[vertex_offsets[t], vertex_offsets[t+1])
///     (the next preorder node starts where t's own vertices end).
///
/// The bottom-up accumulations of Algorithms 3-5 also get two fast shapes:
/// reverse preorder (children always follow parents, so a single descending
/// id loop is a valid serial schedule) and the precomputed descending-level
/// groups (nodes of equal level are mutually independent, so each group is a
/// parallel step).
///
/// The snapshot formats (hcd/serialize.h) are exactly the `Data` struct
/// below written section by section — v2 ("HCDFOR02") for core indexes,
/// the kind-tagged v3 ("HCDFOR03") for truss/nucleus — so loading is a
/// handful of bulk reads followed by `Adopt` validation.
///
/// One index class serves all three decomposition families: for truss and
/// nucleus hierarchies the "vertices" here are element ids (edges /
/// triangles) and `ElementMembers` materializes an element back to its
/// graph vertices; every structural accessor (subtree spans, level groups,
/// Tid, CoreVertices) is domain-agnostic and works unchanged.
class FlatHcdIndex {
 public:
  /// The packed arrays. N = node count, R = root count, G = number of
  /// distinct levels, P = number of placed elements (== sum of per-node
  /// element counts), n = number of elements in the decomposed domain.
  ///
  /// For the core hierarchy the elements ARE graph vertices (n = the graph's
  /// vertex count and `element_members` stays empty). For truss / nucleus
  /// hierarchies the "vertices" of this index are element ids (edges /
  /// triangles) and `element_members` materializes each element back to its
  /// member graph vertices with stride ElementArity(kind).
  ///
  /// Sections are storage-agnostic ArrayRefs: Freeze and the copying loader
  /// produce owned (vector-backed) sections, while MapFlatIndex aliases the
  /// snapshot's mmap'd bytes directly — same accessors, same bytes, zero
  /// copies. Aliased sections co-own the mapping, so a Data (and any index
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
    ArrayRef<uint32_t> child_offsets;        // [N+1] CSR into `children`
    ArrayRef<TreeNodeId> children;           // [N-R] ascending within a node
    ArrayRef<uint32_t> vertex_offsets;       // [N+1] CSR into `vertices`
    ArrayRef<VertexId> vertices;             // [P] vertex sets in preorder
    ArrayRef<TreeNodeId> tid;                // [n] vertex -> node
    ArrayRef<TreeNodeId> desc_level_order;        // [N] level desc, id asc
    ArrayRef<uint32_t> level_group_offsets;       // [G+1] into the above
    ArrayRef<TreeNodeId> roots;              // [R] ascending preorder ids

    /// True when any section aliases a mapped snapshot.
    bool mapped() const {
      return element_members.mapped() || levels.mapped() ||
             parents.mapped() || subtree_nodes.mapped() ||
             child_offsets.mapped() || children.mapped() ||
             vertex_offsets.mapped() || vertices.mapped() || tid.mapped() ||
             desc_level_order.mapped() || level_group_offsets.mapped() ||
             roots.mapped();
    }
  };

  FlatHcdIndex() {
    data_.child_offsets.assign(1, 0);
    data_.vertex_offsets.assign(1, 0);
    data_.level_group_offsets.assign(1, 0);
  }

  /// Validates `data` against every structural invariant of the layout
  /// (preorder parent/subtree nesting, level ordering, CSR monotonicity,
  /// children <-> parents bijection, tid <-> vertices consistency,
  /// desc_level_order permutation). Returns Corruption on any violation;
  /// on success moves the arrays into `*out`. This is the single funnel
  /// through which untrusted snapshot bytes become a live index.
  static Status Adopt(Data data, FlatHcdIndex* out);

  // --- accessors (mirror HcdForest) ----------------------------------------

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

  std::span<const TreeNodeId> Children(TreeNodeId node) const {
    return std::span<const TreeNodeId>(data_.children)
        .subspan(data_.child_offsets[node],
                 data_.child_offsets[node + 1] - data_.child_offsets[node]);
  }

  /// Vertices owned by the node itself (V(T_i) = S ∩ H_k).
  std::span<const VertexId> Vertices(TreeNodeId node) const {
    return std::span<const VertexId>(data_.vertices)
        .subspan(data_.vertex_offsets[node],
                 data_.vertex_offsets[node + 1] - data_.vertex_offsets[node]);
  }

  /// Node containing v, or kInvalidNode if v was never placed.
  TreeNodeId Tid(VertexId v) const { return data_.tid[v]; }

  std::span<const TreeNodeId> Roots() const { return data_.roots; }

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

  /// Node ids ordered by descending level (ties by preorder id). Unlike
  /// HcdForest::NodesByDescendingLevel this is precomputed — no sort, no
  /// allocation.
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

  /// Read-only view of the packed arrays; the v2 serializer writes these
  /// verbatim, which is what makes snapshots round-trip bit-identically.
  const Data& data() const { return data_; }

  /// True when the sections alias a mapped snapshot (MapFlatIndex) rather
  /// than owning their storage.
  bool mapped() const { return data_.mapped(); }

 private:
  friend FlatHcdIndex Freeze(const HcdForest& forest);
  friend FlatHcdIndex Freeze(const HcdForest& forest, HierarchyKind kind,
                             std::span<const VertexId> element_members,
                             VertexId num_graph_vertices);

  Data data_;
};

/// Renumbers the forest into preorder and packs it into a FlatHcdIndex.
/// Parallel across roots (one DFS per tree) with a level-synchronous
/// bottom-up sizing pass. The forest must satisfy the builder contract
/// (every parent edge strictly decreases the level walking up); violations
/// abort, as in HcdForest::BuildChildren — untrusted inputs must go through
/// LoadFlatIndex / MapFlatIndex, which return Status instead.
FlatHcdIndex Freeze(const HcdForest& forest);

/// Freeze and release the builder representation's memory.
FlatHcdIndex Freeze(HcdForest&& forest);

/// Kind-tagged freeze: same preorder packing, with the forest's element
/// domain recorded and each element's member vertices carried alongside
/// (`element_members` is arity-strided by element id, covering ALL element
/// ids 0..forest.NumVertices(), placed or not — for a truss forest this is
/// exactly EdgeIndexer::edges flattened). `num_graph_vertices` is the graph
/// vertex count the member ids live in. The per-kind wrappers FreezeTruss
/// (src/truss) and FreezeNucleus (src/nucleus) build the member array from
/// their indexers; call those instead of this directly.
FlatHcdIndex Freeze(const HcdForest& forest, HierarchyKind kind,
                    std::span<const VertexId> element_members,
                    VertexId num_graph_vertices);

}  // namespace hcd

#endif  // HCD_HCD_FLAT_INDEX_H_
