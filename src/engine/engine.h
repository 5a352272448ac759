#ifndef HCD_ENGINE_ENGINE_H_
#define HCD_ENGINE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/core_decomposition.h"
#include "engine/snapshot.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "hcd/forest.h"
#include "hcd/hierarchy_kind.h"
#include "hcd/vertex_rank.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/triangle_index.h"
#include "search/element_search.h"
#include "search/metrics.h"
#include "search/pbks.h"
#include "search/search_index.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"

namespace hcd {

/// Which HCD construction algorithm the engine runs.
enum class EngineAlgo {
  kPhcd,   ///< parallel PHCD (Algorithm 2); serial specialization at p=1
  kLcps,   ///< serial LCPS baseline
  kNaive,  ///< definition-driven per-k BFS oracle (tests / ground truth)
};

/// "phcd", "lcps" or "naive".
const char* EngineAlgoName(EngineAlgo algo);

/// Parses an algorithm name; returns false (and leaves `*algo` untouched)
/// on anything but "phcd" / "lcps" / "naive".
bool ParseEngineAlgo(std::string_view name, EngineAlgo* algo);

/// Configuration shared by every consumer of the pipeline (CLI, examples,
/// benchmarks).
struct EngineOptions {
  EngineAlgo algo = EngineAlgo::kPhcd;
  /// Which decomposition family the hierarchy stages build: k-core
  /// (vertices), k-truss (edges) or (3,4)-nucleus (triangles). The
  /// construction stages dispatch on this; the frozen index is kind-tagged
  /// and every downstream flat-index consumer works unchanged. Non-core
  /// kinds record kind-prefixed stage names ("truss.decomposition",
  /// "truss.construction", "truss.construction.freeze", ...).
  HierarchyKind hierarchy = HierarchyKind::kCore;
  /// OpenMP threads for every engine-run stage; 0 keeps the ambient
  /// setting. Applied per stage via ThreadCountGuard, so the global OpenMP
  /// state is never leaked.
  int threads = 0;
  /// OpenMP threads for graph ingest (Load's parallel read/parse/build);
  /// 0 falls back to `threads`. Lets I/O-bound loading use a different
  /// width than the compute stages.
  int io_threads = 0;
};

/// The build-phase pipeline object behind every consumer of the library:
/// owns (or borrows) one graph and computes each derived stage lazily, at
/// most once — core decomposition, vertex rank, HCD forest, frozen flat
/// index, search index. Repeated accessor calls return the same cached
/// object, so e.g. all CLI commands and a long-lived query server pay for
/// each stage once.
///
/// Thread counts are applied per stage with ThreadCountGuard (never by
/// mutating global OpenMP state), and every stage is a ScopedStage: its
/// wall time and cheap counters reach whichever process-wide backends are
/// installed (StageTelemetry, Tracer, MetricsRegistry; see
/// common/telemetry.h).
///
/// Thread-safety: the engine itself is not thread-safe — one engine is
/// driven by one orchestrating thread. Concurrency lives on the serve side:
/// Snapshot() finishes every query-side stage and returns an immutable
/// QuerySnapshot that any number of worker threads may query at once (see
/// engine/snapshot.h).
class HcdEngine {
 public:
  /// Owning constructor: the engine keeps the graph alive.
  explicit HcdEngine(Graph graph, EngineOptions options = {});

  /// Borrowing constructor: `*graph` must outlive the engine. Lets
  /// benchmarks construct many engines over one loaded dataset without
  /// copying it.
  explicit HcdEngine(const Graph* graph, EngineOptions options = {});

  HcdEngine(const HcdEngine&) = delete;
  HcdEngine& operator=(const HcdEngine&) = delete;

  /// Loads a graph (binary when `path` ends in ".bin", else SNAP edge-list
  /// text) through the parallel validated ingest layer and wraps it in an
  /// engine. Records a "load" stage (counters: n, m, bytes, edges_dropped)
  /// around the ingest sub-stages ("load.read", "load.parse", "load.remap",
  /// "load.build" / "load.validate"), which complete first.
  static Status Load(const std::string& path, const EngineOptions& options,
                     std::unique_ptr<HcdEngine>* out);

  const Graph& graph() const { return *graph_; }
  const EngineOptions& options() const { return options_; }

  /// Core decomposition (stage "decomposition"): PKC for phcd/lcps, the
  /// serial BZ reference for naive. Computed on first call.
  const CoreDecomposition& Coreness();

  /// Vertex rank over Coreness() (stage "rank"). Computed on first call.
  const VertexRank& Rank();

  /// Hierarchy forest of options().hierarchy built by options().algo
  /// (stage "construction" / "truss.construction" /
  /// "nucleus.construction"; for non-core kinds, kNaive selects the
  /// definition-driven oracle builder and anything else the parallel PHCD
  /// lift). Computed on first call. Builder-facing; query-side consumers
  /// should use Flat().
  const HcdForest& Forest();

  /// Immutable kind-tagged flat index frozen from Forest() (stage
  /// "construction.freeze", kind-prefixed for non-core kinds). Computed on
  /// first call; this is the representation every query path (search,
  /// stats, export) serves from.
  const FlatHcdIndex& Flat();

  /// Installs a prebuilt flat index (typically loaded or mmapped from a
  /// snapshot via hcd/serialize.h) as the engine's Flat() stage, skipping
  /// construction entirely. Fails with InvalidArgument if the index's kind
  /// does not match options().hierarchy, if its graph-vertex domain does not
  /// match the engine's graph, or if a flat index is already cached (built
  /// or adopted) — adoption must happen before the first Flat() call.
  /// Mapped indexes are shared as-is: the engine (and any snapshot sealed
  /// from it) co-owns the mapping, no bytes are copied.
  Status AdoptFlat(std::shared_ptr<const FlatHcdIndex> flat);

  /// Edge indexer of the graph (stage "truss.index"); the element
  /// substrate of truss and nucleus hierarchies. Computed on first call.
  const EdgeIndexer& Edges();

  /// Triangle indexer over Edges() (stage "nucleus.index"). Computed on
  /// first call.
  const TriangleIndexer& Triangles();

  /// Truss decomposition by support peeling (stage "truss.decomposition").
  /// Computed on first call.
  const TrussDecomposition& Trussness();

  /// (3,4)-nucleus decomposition (stage "nucleus.decomposition"). Computed
  /// on first call.
  const NucleusDecomposition& NucleusTheta();

  /// Memoized eager element-community search index over Flat(); requires a
  /// non-core hierarchy (stage "search.element"). The returned object is
  /// deeply const and serves concurrent readers, the element analogue of
  /// Searcher().
  const ElementSearchIndex& ElementSearcher();

  /// Memoized eager search index over Coreness() and Flat(); constructing
  /// it runs the PBKS preprocessing and both primary-value passes (stages
  /// "search.preprocess", "search.primary_a", "search.primary_b"). The
  /// index lives inside the engine's SnapshotState, so requesting it seals
  /// the serve-phase state (see Snapshot()).
  const SearchIndex& Searcher();

  /// Finishes every query-side stage (Coreness, Forest, Flat, Searcher),
  /// seals them into one refcounted immutable SnapshotState (epoch 0) and
  /// returns a shared-ownership view over it. Cheap once built; repeated
  /// calls return snapshots over the same state. Snapshots own the state:
  /// they stay valid after the engine is destroyed, so worker threads can
  /// keep serving while the builder goes away. The state shares the
  /// engine's cached graph, coreness and flat index (they are refcounted
  /// internally), so sealing neither copies nor invalidates references
  /// handed out by the accessors above; only a borrowed graph is copied,
  /// because the state must own everything it serves.
  QuerySnapshot Snapshot();

  /// Search via the cached search index (one "search.score" stage per
  /// call). Equivalent to Snapshot().Search(metric) with the engine's own
  /// reusable workspace.
  SearchResult Search(Metric metric);

 private:
  /// Builds state_ from the cached stages (first call only).
  const SnapshotState& SealedState();

  std::shared_ptr<const Graph> owned_graph_;  ///< null when borrowing
  const Graph* graph_;
  EngineOptions options_;
  // Stage caches. Coreness and the flat index are refcounted so sealing
  // shares them with the SnapshotState without a move or copy — references
  // handed out before Snapshot() stay valid after it. Rank and the builder
  // forest are build-side only and never sealed.
  std::shared_ptr<const CoreDecomposition> cd_;
  std::optional<VertexRank> rank_;
  std::optional<HcdForest> forest_;
  std::shared_ptr<const FlatHcdIndex> flat_;
  std::shared_ptr<const SnapshotState> state_;
  SearchWorkspace workspace_;
  // Element-hierarchy stage caches (truss / nucleus only).
  std::optional<EdgeIndexer> eidx_;
  std::optional<TriangleIndexer> tidx_;
  std::optional<TrussDecomposition> td_;
  std::optional<NucleusDecomposition> nd_;
  std::optional<ElementSearchIndex> element_searcher_;
};

}  // namespace hcd

#endif  // HCD_ENGINE_ENGINE_H_
