#ifndef HCD_ENGINE_SNAPSHOT_H_
#define HCD_ENGINE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "core/core_decomposition.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "search/metrics.h"
#include "search/pbks.h"
#include "search/search_index.h"

namespace hcd {

/// One immutable generation of the serve-phase state: the graph, its core
/// decomposition, the frozen FlatHcdIndex, and the eager SearchIndex. A
/// SnapshotState is reference-counted (std::shared_ptr<const
/// SnapshotState>), so its lifetime is governed by the snapshots that view
/// it, not by the engine that built it: a builder may publish a new
/// generation and be destroyed while in-flight readers finish on the old
/// one. This is the ownership unit the live update path hot-swaps
/// (engine/live.h) — RCU with shared_ptr as the grace period.
///
/// The graph, decomposition and flat index are themselves held through
/// shared_ptr<const T>: a state shares rather than copies the pieces its
/// builder already has, and two generations that agree on a piece (e.g.
/// the graph across a pure re-freeze) can share it too. Only the
/// SearchIndex is per-generation by value, built in place over the other
/// three.
///
/// `epoch` is the generation number: 0 for the state a build-phase
/// HcdEngine publishes, incremented by one for every batch a LiveEngine
/// applies. Results cached against a snapshot stay valid exactly as long
/// as the epoch matches.
class SnapshotState {
 public:
  /// Builds a state from the finished serve-phase pieces (none may be
  /// null). The SearchIndex is constructed in place over them (recording
  /// its "search.preprocess" / "search.primary_*" stages), so the four
  /// parts can never disagree about which generation they belong to.
  static std::shared_ptr<const SnapshotState> Create(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const CoreDecomposition> cd,
      std::shared_ptr<const FlatHcdIndex> flat, uint64_t epoch);

  const Graph& graph() const { return *graph_; }
  const CoreDecomposition& coreness() const { return *cd_; }
  const FlatHcdIndex& flat() const { return *flat_; }
  const SearchIndex& search_index() const { return search_; }
  uint64_t epoch() const { return epoch_; }

  /// The shared pieces, for builders deriving the next generation.
  const std::shared_ptr<const Graph>& shared_graph() const { return graph_; }
  const std::shared_ptr<const CoreDecomposition>& shared_coreness() const {
    return cd_;
  }
  const std::shared_ptr<const FlatHcdIndex>& shared_flat() const {
    return flat_;
  }

 private:
  SnapshotState(std::shared_ptr<const Graph> graph,
                std::shared_ptr<const CoreDecomposition> cd,
                std::shared_ptr<const FlatHcdIndex> flat, uint64_t epoch)
      : graph_(std::move(graph)),
        cd_(std::move(cd)),
        flat_(std::move(flat)),
        epoch_(epoch),
        search_(*graph_, *cd_, *flat_) {}

  const std::shared_ptr<const Graph> graph_;
  const std::shared_ptr<const CoreDecomposition> cd_;
  const std::shared_ptr<const FlatHcdIndex> flat_;
  const uint64_t epoch_;
  const SearchIndex search_;  // last: built over the members above
};

/// The serve-phase view of one built pipeline: a shared-ownership handle on
/// a SnapshotState. Every piece behind it is immutable; any number of
/// worker threads may call Search on one snapshot concurrently, each with
/// its own SearchWorkspace — the same build-once/serve-many shape as an
/// inference server's loaded model.
///
/// A snapshot is a cheaply copyable value (one shared_ptr): copies share
/// the same underlying state and keep it alive. Unlike the pre-refactor
/// raw-pointer snapshot, a QuerySnapshot does NOT require the engine that
/// built it to stay alive: the state is dropped when the last snapshot
/// referencing it is destroyed, which is what makes mutation-while-serving
/// well defined — a writer publishes a fresh SnapshotState and readers
/// drain off the old one at their own pace.
class QuerySnapshot {
 public:
  explicit QuerySnapshot(std::shared_ptr<const SnapshotState> state)
      : state_(std::move(state)) {}

  const Graph& graph() const { return state_->graph(); }
  const CoreDecomposition& coreness() const { return state_->coreness(); }
  const FlatHcdIndex& flat() const { return state_->flat(); }
  const SearchIndex& search_index() const { return state_->search_index(); }

  /// Generation number of the underlying state (see SnapshotState).
  uint64_t epoch() const { return state_->epoch(); }

  /// The shared state itself, e.g. to hold the graph alive independently
  /// of this snapshot value.
  const std::shared_ptr<const SnapshotState>& state() const { return state_; }

  /// Hot serve path: scores every tree node under `metric` into
  /// `ws->scores` and returns the best node. No allocation once the
  /// workspace is warm, no shared mutable state — safe to call from many
  /// threads at once. Records no stage, so a served query never touches a
  /// metrics registry. A nonzero `trace_id` is attached to the "serve.query"
  /// span (as "0x<hex>" text), tying a self-mode bench query to the same
  /// request-scoped id scheme the wire server uses.
  SearchHit Search(Metric metric, SearchWorkspace* ws,
                   uint64_t trace_id = 0) const;

  /// Allocating convenience wrapper: same scores and best node as the
  /// workspace overload, returned as a self-contained SearchResult.
  SearchResult Search(Metric metric) const;

  /// Vertices of a search hit's k-core: an O(1) view into the frozen
  /// index's preorder vertex array (empty if nothing was found). The span
  /// borrows from the shared state: it stays valid while any copy of this
  /// snapshot (or its state()) is alive, even across a LiveEngine swap.
  std::span<const VertexId> CoreVertices(TreeNodeId node) const {
    if (node == kInvalidNode) return {};
    return state_->flat().CoreVertices(node);
  }

 private:
  std::shared_ptr<const SnapshotState> state_;
};

}  // namespace hcd

#endif  // HCD_ENGINE_SNAPSHOT_H_
