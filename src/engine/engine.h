#ifndef HCD_ENGINE_ENGINE_H_
#define HCD_ENGINE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "core/core_decomposition.h"
#include "engine/snapshot.h"
#include "graph/graph.h"
#include "hcd/flat_index.h"
#include "hcd/forest.h"
#include "hcd/hierarchy_kind.h"
#include "nucleus/nucleus_decomposition.h"
#include "nucleus/triangle_index.h"
#include "search/search_index.h"
#include "truss/edge_index.h"
#include "truss/truss_decomposition.h"

namespace hcd {

/// Configuration shared by every consumer of the pipeline (CLI, examples,
/// benchmarks).
struct EngineOptions {
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
};

/// Loads a graph (binary when `path` ends in ".bin", else SNAP edge-list
/// text) through the parallel validated ingest layer, with
/// `options.threads` threads.
/// Records a "load" stage (counters: n, m, bytes, edges_dropped) around the
/// ingest sub-stages ("load.read", "load.parse", "load.remap", "load.build"
/// / "load.validate"), which complete first.
Status LoadGraph(const std::string& path, const EngineOptions& options,
                 Graph* graph);

/// Checks that a prebuilt flat index can serve a graph: its kind must be
/// `kind`, it must cover exactly `graph_vertices` graph vertices (a core
/// index's vertex domain, an element index's NumGraphVertices()), and
/// search tables it carries must describe a graph of `graph_edges` edges.
/// InvalidArgument otherwise.
Status CheckSnapshotFits(const FlatHcdIndex& flat, HierarchyKind kind,
                         VertexId graph_vertices, EdgeIndex graph_edges);

/// The build-phase pipeline object behind every consumer of the library:
/// owns (or borrows) one graph and computes each derived stage lazily, at
/// most once — core decomposition, frozen flat index (built through a
/// transient HCD forest), search index. Repeated accessor calls
/// return the same cached object, so e.g. all CLI commands and a
/// long-lived query server pay for each stage once.
///
/// Thread counts are applied per stage with ThreadCountGuard (never by
/// mutating global OpenMP state), and every stage is a ScopedStage: its
/// wall time and cheap counters reach whichever of the two process-wide
/// backends are installed (Tracer, MetricsRegistry; see
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

  /// Loads a graph with LoadGraph (which records the "load" stage) and
  /// wraps it in an engine.
  static Status Load(const std::string& path, const EngineOptions& options,
                     std::unique_ptr<HcdEngine>* out);

  const Graph& graph() const { return *graph_; }
  const EngineOptions& options() const { return options_; }

  /// Core decomposition by PKC (stage "decomposition"). Computed on first
  /// call. After a core index was adopted (AdoptFlat) it is read off the
  /// index instead (CoreDecompositionOf, span "coreness.from_index"), with
  /// no "decomposition" stage.
  const CoreDecomposition& Coreness();

  /// Immutable kind-tagged flat index of options().hierarchy (stage
  /// "construction.freeze", kind-prefixed for non-core kinds). Computed on
  /// first call: builds the hierarchy forest with PHCD (PhcdBuild,
  /// BuildTrussHierarchy or BuildNucleusHierarchy; stage "construction" /
  /// "truss.construction" / "nucleus.construction"), freezes it and
  /// releases it inside the freeze stage. This is the representation every
  /// query path (search, stats, export) serves from; the builder forest is
  /// not kept, so a caller that needs an HcdForest, or one built by an
  /// oracle (LcpsBuild, NaiveHcdBuild, ...), calls the builder itself.
  const FlatHcdIndex& Flat();

  /// Installs a prebuilt flat index (typically loaded or mmapped from a
  /// snapshot via hcd/serialize.h) as the engine's Flat() stage, skipping
  /// construction entirely. Fails with InvalidArgument if the index does not
  /// fit options().hierarchy and the engine's graph (CheckSnapshotFits), or
  /// if a flat index is already cached (built or adopted) — adoption must
  /// happen before the first Flat() call.
  /// Mapped indexes are shared as-is: the engine (and any snapshot sealed
  /// from it) co-owns the mapping, no bytes are copied. A core index
  /// implies Coreness(), and one that carries its search tables seals
  /// without building them: a restart runs neither PKC nor PBKS. A truss or
  /// nucleus index that carries them serves Searcher() as it is, with no
  /// decomposition, construction or "search.element" stage.
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

  /// The search index of options().hierarchy: a deeply const view over the
  /// search tables of a flat index, which serves concurrent readers.
  ///   - core: the sealed state's index. Sealing builds the tables when
  ///     Flat() lacks them (stages "search.preprocess", "search.primary_a",
  ///     "search.primary_b"), so requesting it seals the serve-phase state
  ///     (see Snapshot()).
  ///   - truss / nucleus: Flat() with its tables. They are built (stage
  ///     "search.element") only when Flat() lacks them, e.g. for an
  ///     adopted forest-only snapshot; Flat() then returns the tabled index,
  ///     which shares the old one's sections, so earlier references stay
  ///     valid.
  const SearchIndex& Searcher();

  /// Finishes every query-side stage (Coreness, Flat, Searcher),
  /// seals them into one refcounted immutable SnapshotState (epoch 0) and
  /// returns a shared-ownership view over it. Cheap once built; repeated
  /// calls return snapshots over the same state. Snapshots own the state:
  /// they stay valid after the engine is destroyed, so worker threads can
  /// keep serving while the builder goes away. The state shares the
  /// engine's cached graph, coreness and flat index (they are refcounted
  /// internally), so sealing neither copies nor invalidates references
  /// handed out by the accessors above; only a borrowed graph is copied,
  /// because the state must own everything it serves. The state's flat
  /// index is Flat() with its search tables attached (sharing Flat()'s
  /// sections), or Flat() itself when it already carries them.
  QuerySnapshot Snapshot();

 private:
  /// Builds state_ from the cached stages (first call only).
  const SnapshotState& SealedState();

  /// The hierarchy forest Flat() freezes; not cached.
  HcdForest BuildForest();

  /// Hands the heap pages a hierarchy build freed back to the OS once the
  /// engine is gone (malloc_trim on glibc). glibc keeps freed heap memory
  /// resident unless the top of the heap happens to be free, so without
  /// this the resident size after identical builds differs by several
  /// MiB, depending on where small unrelated allocations landed. Declared
  /// first so it runs after every stage cache below is destroyed; armed
  /// only where Flat() builds a forest, so an engine over an adopted index
  /// (a snapshot restart) never trims.
  struct BuildHeapRelease {
    bool armed = false;
    ~BuildHeapRelease();
  } heap_release_;

  std::shared_ptr<const Graph> owned_graph_;  ///< null when borrowing
  const Graph* graph_;
  EngineOptions options_;
  // Stage caches. Coreness and the flat index are refcounted so sealing
  // shares them with the SnapshotState without a move or copy — references
  // handed out before Snapshot() stay valid after it.
  std::shared_ptr<const CoreDecomposition> cd_;
  std::shared_ptr<const FlatHcdIndex> flat_;
  std::shared_ptr<const SnapshotState> state_;
  // Element-hierarchy stage caches (truss / nucleus only).
  std::optional<EdgeIndexer> eidx_;
  std::optional<TriangleIndexer> tidx_;
  std::optional<TrussDecomposition> td_;
  std::optional<NucleusDecomposition> nd_;
  std::optional<SearchIndex> element_searcher_;
};

}  // namespace hcd

#endif  // HCD_ENGINE_ENGINE_H_
