#include "engine/snapshot.h"

#include <utility>

#include "common/check.h"

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

}  // namespace hcd
