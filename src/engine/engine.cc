#include "engine/engine.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "graph/ingest.h"
#include "hcd/phcd.h"
#include "hcd/query.h"
#include "nucleus/nucleus_hierarchy.h"
#include "parallel/omp_utils.h"
#include "truss/truss_hierarchy.h"

namespace hcd {
namespace {

bool HasSuffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

HcdEngine::BuildHeapRelease::~BuildHeapRelease() {
#if defined(__GLIBC__)
  if (armed) malloc_trim(0);
#endif
}

HcdEngine::HcdEngine(Graph graph, EngineOptions options)
    : owned_graph_(std::make_shared<const Graph>(std::move(graph))),
      graph_(owned_graph_.get()),
      options_(options) {}

HcdEngine::HcdEngine(const Graph* graph, EngineOptions options)
    : graph_(graph), options_(options) {}

Status LoadGraph(const std::string& path, const EngineOptions& options,
                 Graph* graph) {
  ScopedStage stage("load");
  IngestOptions ingest_options;
  ingest_options.io_threads = options.threads;
  IngestStats ingest_stats;
  Status s = HasSuffix(path, ".bin")
                 ? IngestBinary(path, ingest_options, graph, &ingest_stats)
                 : IngestEdgeListText(path, ingest_options, graph,
                                      &ingest_stats);
  if (!s.ok()) return s;
  stage.AddCounter("n", graph->NumVertices());
  stage.AddCounter("m", graph->NumEdges());
  stage.AddCounter("bytes", ingest_stats.bytes);
  stage.AddCounter("edges_dropped", ingest_stats.self_loops_dropped +
                                        ingest_stats.duplicates_dropped);
  return Status::Ok();
}

Status CheckSnapshotFits(const FlatHcdIndex& flat, HierarchyKind kind,
                         VertexId graph_vertices, EdgeIndex graph_edges) {
  if (flat.kind() != kind) {
    return Status::InvalidArgument(
        std::string("snapshot kind ") + HierarchyKindName(flat.kind()) +
        " does not match hierarchy " + HierarchyKindName(kind));
  }
  const VertexId covered = flat.kind() == HierarchyKind::kCore
                               ? flat.NumVertices()
                               : flat.NumGraphVertices();
  if (covered != graph_vertices) {
    return Status::InvalidArgument(
        "snapshot covers " + std::to_string(covered) +
        " graph vertices but the graph has " +
        std::to_string(graph_vertices));
  }
  if (flat.HasSearchTables() && flat.NumGraphEdges() != graph_edges) {
    return Status::InvalidArgument(
        "snapshot search tables describe " +
        std::to_string(flat.NumGraphEdges()) +
        " graph edges but the graph has " + std::to_string(graph_edges));
  }
  return Status::Ok();
}

Status HcdEngine::Load(const std::string& path, const EngineOptions& options,
                       std::unique_ptr<HcdEngine>* out) {
  Graph graph;
  Status s = LoadGraph(path, options, &graph);
  if (!s.ok()) return s;
  out->reset(new HcdEngine(std::move(graph), options));
  return Status::Ok();
}

const CoreDecomposition& HcdEngine::Coreness() {
  if (cd_ == nullptr) {
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    if (flat_ != nullptr && options_.hierarchy == HierarchyKind::kCore) {
      // An adopted core index already records every vertex's coreness as
      // the level of its node: read it off instead of peeling.
      ScopedSpan span("coreness.from_index");
      cd_ = std::make_shared<const CoreDecomposition>(
          CoreDecompositionOf(*flat_));
      span.AddArg("k_max", cd_->k_max);
    } else {
      cd_ = std::make_shared<const CoreDecomposition>(
          PkcCoreDecomposition(*graph_));
    }
  }
  return *cd_;
}

const EdgeIndexer& HcdEngine::Edges() {
  if (!eidx_) {
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    ScopedStage stage("truss.index");
    eidx_ = BuildEdgeIndexer(*graph_);
    stage.AddCounter("edges", eidx_->NumEdges());
  }
  return *eidx_;
}

const TriangleIndexer& HcdEngine::Triangles() {
  if (!tidx_) {
    const EdgeIndexer& eidx = Edges();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    ScopedStage stage("nucleus.index");
    tidx_ = BuildTriangleIndexer(*graph_, eidx);
    stage.AddCounter("triangles", tidx_->NumTriangles());
  }
  return *tidx_;
}

const TrussDecomposition& HcdEngine::Trussness() {
  if (!td_) {
    const EdgeIndexer& eidx = Edges();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    td_ = PeelTrussDecomposition(*graph_, eidx);
  }
  return *td_;
}

const NucleusDecomposition& HcdEngine::NucleusTheta() {
  if (!nd_) {
    const EdgeIndexer& eidx = Edges();
    const TriangleIndexer& tidx = Triangles();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    nd_ = PeelNucleusDecomposition(*graph_, eidx, tidx);
  }
  return *nd_;
}

HcdForest HcdEngine::BuildForest() {
  if (options_.hierarchy == HierarchyKind::kTruss) {
    const EdgeIndexer& eidx = Edges();
    const TrussDecomposition& td = Trussness();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    return BuildTrussHierarchy(*graph_, eidx, td);
  }
  if (options_.hierarchy == HierarchyKind::kNucleus) {
    const EdgeIndexer& eidx = Edges();
    const TriangleIndexer& tidx = Triangles();
    const NucleusDecomposition& nd = NucleusTheta();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    return BuildNucleusHierarchy(*graph_, eidx, tidx, nd);
  }
  const CoreDecomposition& cd = Coreness();
  std::optional<ThreadCountGuard> guard;
  if (options_.threads > 0) guard.emplace(options_.threads);
  return PhcdBuild(*graph_, cd);
}

const FlatHcdIndex& HcdEngine::Flat() {
  if (flat_ != nullptr) return *flat_;
  heap_release_.armed = true;
  HcdForest forest = BuildForest();
  std::optional<ThreadCountGuard> guard;
  if (options_.threads > 0) guard.emplace(options_.threads);
  const HierarchyKind kind = options_.hierarchy;
  ScopedStage stage(kind == HierarchyKind::kCore
                        ? std::string("construction.freeze")
                        : std::string(HierarchyKindName(kind)) +
                              ".construction.freeze");
  switch (kind) {
    case HierarchyKind::kCore:
      flat_ = std::make_shared<const FlatHcdIndex>(Freeze(forest));
      break;
    case HierarchyKind::kTruss:
      flat_ = std::make_shared<const FlatHcdIndex>(
          FreezeTruss(*graph_, *eidx_, forest));
      break;
    case HierarchyKind::kNucleus:
      flat_ = std::make_shared<const FlatHcdIndex>(
          FreezeNucleus(*graph_, *tidx_, forest));
      break;
  }
  // Serving reads only the frozen index, so the builder forest (levels,
  // parents and an n-entry tid) is not kept: it goes here, inside the
  // freeze stage, before anything the search tables allocate can stack on
  // it.
  {
    ScopedSpan span("freeze.release_forest");
    forest = HcdForest();
  }
  stage.AddCounter("nodes", flat_->NumNodes());
  return *flat_;
}

Status HcdEngine::AdoptFlat(std::shared_ptr<const FlatHcdIndex> flat) {
  if (flat == nullptr) {
    return Status::InvalidArgument("AdoptFlat: null index");
  }
  if (flat_ != nullptr) {
    return Status::InvalidArgument(
        "AdoptFlat: a flat index is already cached; adopt before the first "
        "Flat() call");
  }
  const Status fits = CheckSnapshotFits(*flat, options_.hierarchy,
                                        graph_->NumVertices(),
                                        graph_->NumEdges());
  if (!fits.ok()) {
    return Status::InvalidArgument("AdoptFlat: " + fits.message());
  }
  flat_ = std::move(flat);
  return Status::Ok();
}

const SnapshotState& HcdEngine::SealedState() {
  if (state_ == nullptr) {
    HCD_CHECK(options_.hierarchy == HierarchyKind::kCore)
        << "snapshot sealing scores core hierarchies; element hierarchies "
           "serve through Searcher()";
    Coreness();
    Flat();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    // The state shares the engine's refcounted caches — sealing costs no
    // recomputation, no copy, and invalidates no outstanding references.
    // Only a borrowed graph is copied, because the state must own
    // everything it serves (the caller's graph may die first).
    std::shared_ptr<const Graph> graph =
        owned_graph_ != nullptr ? owned_graph_
                                : std::make_shared<const Graph>(*graph_);
    state_ = SnapshotState::Create(std::move(graph), cd_, flat_,
                                   /*epoch=*/0);
  }
  return *state_;
}

const SearchIndex& HcdEngine::Searcher() {
  if (options_.hierarchy == HierarchyKind::kCore) {
    return SealedState().search_index();
  }
  if (!element_searcher_) {
    Flat();
    if (!flat_->HasSearchTables()) {
      std::optional<ThreadCountGuard> guard;
      if (options_.threads > 0) guard.emplace(options_.threads);
      flat_ = BuildElementSearchTables(std::move(flat_), graph_->NumEdges());
    }
    element_searcher_.emplace(flat_);
  }
  return *element_searcher_;
}

QuerySnapshot HcdEngine::Snapshot() {
  SealedState();
  return QuerySnapshot(state_);
}

}  // namespace hcd
