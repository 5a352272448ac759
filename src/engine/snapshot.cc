#include "engine/snapshot.h"

#include <string>
#include <utility>

#include "common/check.h"
#include "common/trace.h"

namespace hcd {

std::shared_ptr<const SnapshotState> SnapshotState::Create(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const CoreDecomposition> cd,
    std::shared_ptr<const FlatHcdIndex> flat, uint64_t epoch) {
  if (!flat->HasSearchTables()) {
    flat = BuildSearchTables(*graph, *cd, std::move(flat));
  }
  HCD_CHECK_EQ(flat->NumGraphEdges(), graph->NumEdges())
      << "search tables describe another graph";
  // make_shared is off the table because the constructor is private; one
  // extra allocation for the control block is fine.
  return std::shared_ptr<const SnapshotState>(new SnapshotState(
      std::move(graph), std::move(cd), std::move(flat), epoch));
}

SearchHit QuerySnapshot::Search(Metric metric, SearchWorkspace* ws,
                                uint64_t trace_id) const {
  // One span per served query, on the serving thread's own timeline, so a
  // trace of a multi-threaded bench shows per-thread query interleaving.
  ScopedSpan span("serve.query");
  if (trace_id != 0) span.AddArg("trace_id", TraceIdHex(trace_id));
  span.AddArg("metric", std::string(MetricName(metric)));
  span.AddArg("epoch", state_->epoch());
  const SearchHit hit =
      SearchInto(state_->flat(), state_->search_index(), metric, ws);
  span.AddArg("best_node", hit.best_node);
  return hit;
}

SearchResult QuerySnapshot::Search(Metric metric) const {
  SearchWorkspace ws;
  const SearchHit hit = Search(metric, &ws);
  SearchResult result;
  result.best_node = hit.best_node;
  result.best_score = hit.best_score;
  result.scores = std::move(ws.scores);
  return result;
}

}  // namespace hcd
