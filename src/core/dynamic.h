#ifndef HCD_CORE_DYNAMIC_H_
#define HCD_CORE_DYNAMIC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/core_decomposition.h"
#include "graph/graph.h"

namespace hcd {

/// One edge mutation in a batch: insert or remove the undirected edge
/// {u, v}. Endpoint order does not matter.
enum class EdgeOp : uint8_t { kInsert = 0, kRemove = 1 };
struct EdgeUpdate {
  VertexId u = 0;
  VertexId v = 0;
  EdgeOp op = EdgeOp::kInsert;
};

/// Per-batch report of ApplyBatch. `subcores_touched` counts the
/// independent subcore clusters the batch decomposed into (the units the
/// parallel path runs concurrently); `rounds` counts the coreness strata
/// the scheduler peeled through.
struct BatchStats {
  size_t requested = 0;   ///< updates handed in
  size_t applied = 0;     ///< net edge mutations actually performed
  size_t deduped = 0;     ///< dropped because a later op canceled/repeated it
  size_t redundant = 0;   ///< insert-of-present / remove-of-absent, skipped
  size_t rounds = 0;
  size_t subcores_touched = 0;
  size_t parallel_rounds = 0;  ///< rounds that ran clusters under OpenMP
  size_t coreness_changed = 0;
  /// Vertices whose coreness differs from before the batch (ascending).
  std::vector<VertexId> changed_vertices;
  /// The net edge set actually mutated, as (min, max) endpoint pairs.
  std::vector<std::pair<VertexId, VertexId>> applied_edges;
};

/// Incrementally maintained core decomposition under edge updates (the
/// traversal/subcore algorithm of the streaming literature the paper
/// builds on; the substrate of hierarchical core maintenance [15]).
///
/// Theory used: inserting or deleting one edge changes any coreness by at
/// most 1, and the only candidates are vertices with coreness K =
/// min(c(u), c(v)) reachable from the updated edge through vertices of
/// coreness exactly K (the *subcore*). Each update therefore:
///  1. collects the subcore by BFS,
///  2. computes each member's candidate degree (neighbors of coreness >= K
///     for deletions, or > K plus subcore members for insertions),
///  3. peels members below the threshold; the survivors (insert) or the
///     peeled (delete) change coreness by one.
/// Cost per update: O(size of the touched subcore + its adjacency), far
/// below recomputation on large graphs.
///
/// ApplyBatch extends this to batches (after the parallel batch-dynamic
/// k-core line of work, arXiv 2106.03824): it validates and dedups the
/// batch to a net edge set, then repeatedly takes the stratum of pending
/// updates whose current root coreness K = min(c(u), c(v)) is smallest,
/// partitions that stratum into clusters by connected component of the
/// coreness-K subgraph (plus shared endpoints), and applies the clusters
/// in parallel. Within a round only values K+-1 are written and no vertex
/// ever *enters* coreness K, so distinct K-components stay disjoint for
/// the whole round — each cluster touches private state, which is what
/// makes the parallel schedule exact (equal to some sequential order of
/// the same single-edge updates, each of which is exact). An update whose
/// root coreness drifts off K mid-round (an earlier cluster member moved
/// an endpoint) is deferred to a later round rather than applied.
///
/// Storage is an edit layer over an immutable CSR base, shared (not
/// copied) with whoever published it, plus a dense per-vertex slot table.
/// A vertex's row is read straight from the base until the first update
/// that touches it materialises a private copy of the row; only batch
/// endpoints are ever written, so a batch of b edges owns at most 2b rows.
/// An edited row is a sorted vector (binary-search membership, O(degree)
/// insert and erase), so ToGraph copies it as it is. ApplyBatch
/// materialises every endpoint of the net batch serially before the first
/// round, so the slot table is read-only while clusters run concurrently
/// and each cluster writes only the rows of its own endpoints. Commit
/// publishes the edited graph as the next base and drops every edited row.
class DynamicCoreIndex {
 public:
  /// Serves `base` with its known decomposition `cd`: shares the CSR and
  /// copies only the coreness array, so no row is copied and no peeling
  /// runs. `cd.coreness` must cover exactly the base's vertices
  /// (CHECK-fails otherwise) and must be the base's true coreness.
  DynamicCoreIndex(std::shared_ptr<const Graph> base,
                   const CoreDecomposition& cd);

  /// Convenience for callers without a shared graph or a decomposition:
  /// copies the CSR into a private base and computes coreness with BZ.
  explicit DynamicCoreIndex(const Graph& graph);

  VertexId NumVertices() const {
    return static_cast<VertexId>(coreness_.size());
  }
  EdgeIndex NumEdges() const { return num_edges_; }

  /// Current coreness of v.
  uint32_t Coreness(VertexId v) const { return coreness_[v]; }

  /// The whole coreness array (e.g. to stamp a CoreDecomposition for a
  /// rebuild without touching per-vertex accessors n times).
  const std::vector<uint32_t>& CorenessValues() const { return coreness_; }

  /// Largest current coreness.
  uint32_t KMax() const;

  bool HasEdge(VertexId u, VertexId v) const;

  /// Rows materialised since construction or the last Commit.
  size_t EditedRows() const { return edited_.size(); }

  /// Inserts edge {u,v} and updates corenesses. InvalidArgument on
  /// self-loops, out-of-range ids, or existing edges.
  Status InsertEdge(VertexId u, VertexId v);

  /// Removes edge {u,v} and updates corenesses. NotFound if absent.
  Status RemoveEdge(VertexId u, VertexId v);

  /// Applies a whole batch of updates (see the class comment for the
  /// schedule). The batch is validated first — InvalidArgument on any
  /// self-loop or out-of-range id, with nothing applied. Updates that the
  /// batch itself cancels (insert then remove of the same edge) or that
  /// are no-ops against the current graph (insert of a present edge,
  /// remove of an absent one) are skipped and counted in `stats`.
  /// Afterwards every coreness equals the from-scratch value on the
  /// updated graph, bit-identically. The thread count selects the
  /// schedule: with one OpenMP thread, or one net update, the updates are
  /// applied one by one, with the same result.
  Status ApplyBatch(std::span<const EdgeUpdate> updates,
                    BatchStats* stats = nullptr);

  /// Materializes the current graph as an immutable CSR Graph (e.g. to
  /// rebuild the HCD with PhcdBuild after a batch of updates). Unedited
  /// rows are copied straight from the base and edited rows from their
  /// sorted copies, in parallel.
  Graph ToGraph() const;

  /// ToGraph, then rebase onto the result and drop every edited row, in
  /// one step so the base can never drift from the edits. Returns the new
  /// base, ready to be published: the caller and the index share it.
  std::shared_ptr<const Graph> Commit();

 private:
  /// Reusable per-thread scratch for one single-edge update.
  struct Scratch {
    std::vector<uint8_t> in_sub;
    std::vector<uint32_t> cd;
    std::vector<VertexId> stack;
    void EnsureSize(size_t n) {
      if (in_sub.size() < n) {
        in_sub.assign(n, 0);
        cd.assign(n, 0);
      }
    }
  };

  /// The subcore algorithms, post-validation. The edge mutation itself
  /// happens inside (insert before the BFS, remove before the peel), as
  /// the single-edge routines require.
  void InsertEdgeImpl(VertexId u, VertexId v, Scratch& scratch);
  void RemoveEdgeImpl(VertexId u, VertexId v, Scratch& scratch);

  static constexpr uint32_t kUnedited = ~uint32_t{0};

  /// Current neighbors of v: its edited row if it has one, else the base
  /// row.
  std::span<const VertexId> Neighbors(VertexId v) const {
    const uint32_t slot = slot_[v];
    return slot == kUnedited ? base_->Neighbors(v)
                             : std::span<const VertexId>(edited_[slot]);
  }

  /// v's edited row, copied from the base on first use. Serial only: it
  /// may grow `edited_` and write `slot_`, which the parallel rounds read.
  std::vector<VertexId>& Materialize(VertexId v);

  /// v's edited row; v must already be materialised.
  std::vector<VertexId>& EditedRow(VertexId v) {
    HCD_DCHECK(slot_[v] != kUnedited);
    return edited_[slot_[v]];
  }

  std::shared_ptr<const Graph> base_;
  std::vector<uint32_t> slot_;  ///< index into edited_, or kUnedited
  std::vector<std::vector<VertexId>> edited_;  ///< sorted rows
  std::vector<uint32_t> coreness_;
  EdgeIndex num_edges_ = 0;
  Scratch scratch_;  ///< serial-path scratch (parallel rounds use a pool)
};

}  // namespace hcd

#endif  // HCD_CORE_DYNAMIC_H_
