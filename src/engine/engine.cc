#include "engine/engine.h"

#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "graph/ingest.h"
#include "hcd/lcps.h"
#include "hcd/naive_hcd.h"
#include "hcd/phcd.h"
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

const char* EngineAlgoName(EngineAlgo algo) {
  switch (algo) {
    case EngineAlgo::kPhcd: return "phcd";
    case EngineAlgo::kLcps: return "lcps";
    case EngineAlgo::kNaive: return "naive";
  }
  return "?";
}

bool ParseEngineAlgo(std::string_view name, EngineAlgo* algo) {
  if (name == "phcd") {
    *algo = EngineAlgo::kPhcd;
  } else if (name == "lcps") {
    *algo = EngineAlgo::kLcps;
  } else if (name == "naive") {
    *algo = EngineAlgo::kNaive;
  } else {
    return false;
  }
  return true;
}

HcdEngine::HcdEngine(Graph graph, EngineOptions options)
    : owned_graph_(std::make_shared<const Graph>(std::move(graph))),
      graph_(owned_graph_.get()),
      options_(options) {}

HcdEngine::HcdEngine(const Graph* graph, EngineOptions options)
    : graph_(graph), options_(options) {}

Status HcdEngine::Load(const std::string& path, const EngineOptions& options,
                       std::unique_ptr<HcdEngine>* out) {
  Graph graph;
  {
    ScopedStage stage("load");
    IngestOptions ingest_options;
    ingest_options.io_threads =
        options.io_threads > 0 ? options.io_threads : options.threads;
    IngestStats ingest_stats;
    Status s = HasSuffix(path, ".bin")
                   ? IngestBinary(path, ingest_options, &graph, &ingest_stats)
                   : IngestEdgeListText(path, ingest_options, &graph,
                                        &ingest_stats);
    if (!s.ok()) return s;
    stage.AddCounter("n", graph.NumVertices());
    stage.AddCounter("m", graph.NumEdges());
    stage.AddCounter("bytes", ingest_stats.bytes);
    stage.AddCounter("edges_dropped", ingest_stats.self_loops_dropped +
                                          ingest_stats.duplicates_dropped);
  }
  out->reset(new HcdEngine(std::move(graph), options));
  return Status::Ok();
}

const CoreDecomposition& HcdEngine::Coreness() {
  if (cd_ == nullptr) {
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    cd_ = std::make_shared<const CoreDecomposition>(
        options_.algo == EngineAlgo::kNaive
            ? BzCoreDecomposition(*graph_)
            : PkcCoreDecomposition(*graph_));
  }
  return *cd_;
}

const VertexRank& HcdEngine::Rank() {
  if (!rank_) {
    const CoreDecomposition& cd = Coreness();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    ScopedStage stage("rank");
    rank_ = ComputeVertexRank(cd);
  }
  return *rank_;
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
    ScopedStage stage("truss.decomposition");
    td_ = PeelTrussDecomposition(*graph_, eidx);
    stage.AddCounter("k_max", td_->k_max);
  }
  return *td_;
}

const NucleusDecomposition& HcdEngine::NucleusTheta() {
  if (!nd_) {
    const EdgeIndexer& eidx = Edges();
    const TriangleIndexer& tidx = Triangles();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    ScopedStage stage("nucleus.decomposition");
    nd_ = PeelNucleusDecomposition(*graph_, eidx, tidx);
    stage.AddCounter("k_max", nd_->k_max);
  }
  return *nd_;
}

const HcdForest& HcdEngine::Forest() {
  if (forest_) return *forest_;
  if (options_.hierarchy == HierarchyKind::kTruss) {
    const EdgeIndexer& eidx = Edges();
    const TrussDecomposition& td = Trussness();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    ScopedStage stage("truss.construction");
    forest_ = options_.algo == EngineAlgo::kNaive
                  ? NaiveTrussHierarchy(*graph_, eidx, td)
                  : BuildTrussHierarchy(*graph_, eidx, td);
    stage.AddCounter("nodes", forest_->NumNodes());
    return *forest_;
  }
  if (options_.hierarchy == HierarchyKind::kNucleus) {
    const EdgeIndexer& eidx = Edges();
    const TriangleIndexer& tidx = Triangles();
    const NucleusDecomposition& nd = NucleusTheta();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    ScopedStage stage("nucleus.construction");
    forest_ = options_.algo == EngineAlgo::kNaive
                  ? NaiveNucleusHierarchy(*graph_, eidx, tidx, nd)
                  : BuildNucleusHierarchy(*graph_, eidx, tidx, nd);
    stage.AddCounter("nodes", forest_->NumNodes());
    return *forest_;
  }
  {
    const CoreDecomposition& cd = Coreness();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    switch (options_.algo) {
      case EngineAlgo::kPhcd:
        forest_ = PhcdBuild(*graph_, cd);
        break;
      case EngineAlgo::kLcps:
        forest_ = LcpsBuild(*graph_, cd);
        break;
      case EngineAlgo::kNaive: {
        // The oracle builder records no stage of its own; time it here.
        ScopedStage stage("construction");
        forest_ = NaiveHcdBuild(*graph_, cd);
        stage.AddCounter("nodes", forest_->NumNodes());
        break;
      }
    }
  }
  return *forest_;
}

const FlatHcdIndex& HcdEngine::Flat() {
  if (flat_ == nullptr) {
    const HcdForest& forest = Forest();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    switch (options_.hierarchy) {
      case HierarchyKind::kCore: {
        ScopedStage stage("construction.freeze");
        flat_ = std::make_shared<const FlatHcdIndex>(Freeze(forest));
        stage.AddCounter("nodes", flat_->NumNodes());
        break;
      }
      case HierarchyKind::kTruss: {
        ScopedStage stage("truss.construction.freeze");
        flat_ = std::make_shared<const FlatHcdIndex>(
            FreezeTruss(*graph_, *eidx_, forest));
        stage.AddCounter("nodes", flat_->NumNodes());
        break;
      }
      case HierarchyKind::kNucleus: {
        ScopedStage stage("nucleus.construction.freeze");
        flat_ = std::make_shared<const FlatHcdIndex>(
            FreezeNucleus(*graph_, *tidx_, forest));
        stage.AddCounter("nodes", flat_->NumNodes());
        break;
      }
    }
  }
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
  if (flat->kind() != options_.hierarchy) {
    return Status::InvalidArgument(
        std::string("AdoptFlat: snapshot kind ") +
        HierarchyKindName(flat->kind()) + " does not match engine hierarchy " +
        HierarchyKindName(options_.hierarchy));
  }
  const VertexId index_graph_vertices = flat->kind() == HierarchyKind::kCore
                                            ? flat->NumVertices()
                                            : flat->NumGraphVertices();
  if (index_graph_vertices != graph_->NumVertices()) {
    return Status::InvalidArgument(
        "AdoptFlat: snapshot covers " + std::to_string(index_graph_vertices) +
        " graph vertices but the graph has " +
        std::to_string(graph_->NumVertices()));
  }
  flat_ = std::move(flat);
  return Status::Ok();
}

const ElementSearchIndex& HcdEngine::ElementSearcher() {
  if (!element_searcher_) {
    HCD_CHECK(options_.hierarchy != HierarchyKind::kCore)
        << "ElementSearcher serves element hierarchies; use Searcher()";
    Flat();
    std::optional<ThreadCountGuard> guard;
    if (options_.threads > 0) guard.emplace(options_.threads);
    element_searcher_.emplace(flat_);
  }
  return *element_searcher_;
}

const SnapshotState& HcdEngine::SealedState() {
  if (state_ == nullptr) {
    HCD_CHECK(options_.hierarchy == HierarchyKind::kCore)
        << "snapshot sealing scores core hierarchies; element hierarchies "
           "serve through ElementSearcher()";
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
  return SealedState().search_index();
}

QuerySnapshot HcdEngine::Snapshot() {
  SealedState();
  return QuerySnapshot(state_);
}

SearchResult HcdEngine::Search(Metric metric) {
  // Sealing first keeps the search-index stages outside this one.
  const QuerySnapshot snapshot = Snapshot();
  ScopedStage stage("search.score");
  const SearchHit hit = snapshot.Search(metric, &workspace_);
  stage.AddCounter("nodes", snapshot.flat().NumNodes());
  SearchResult result;
  result.best_node = hit.best_node;
  result.best_score = hit.best_score;
  result.scores = workspace_.scores;
  return result;
}

}  // namespace hcd
