// Graph-visualization application (Section I): exports the HCD of a graph
// as Graphviz DOT and JSON, the hierarchy rendering used for exploring
// networks (internet topology, brains, ...). Runs the pipeline through the
// engine so the two exports share one decomposition and one frozen index.
//
// Run: ./build/examples/hierarchy_viz [out.dot [out.json]]

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/engine.h"
#include "graph/generators.h"
#include "hcd/export.h"

int main(int argc, char** argv) {
  const std::string dot_path = argc > 1 ? argv[1] : "hcd.dot";
  const std::string json_path = argc > 2 ? argv[2] : "hcd.json";

  // A branching planted hierarchy renders a rich, readable tree.
  hcd::HcdEngine engine(
      hcd::PlantedHierarchy(hcd::BranchingSpec(3, 12, 3, 2, 8), 12));
  const hcd::FlatHcdIndex& flat = engine.Flat();

  std::printf("graph: n=%u m=%llu; HCD has %u nodes\n",
              engine.graph().NumVertices(),
              static_cast<unsigned long long>(engine.graph().NumEdges()),
              flat.NumNodes());

  {
    std::ofstream out(dot_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", dot_path.c_str());
      return 1;
    }
    out << hcd::ForestToDot(flat);
  }
  {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << hcd::ForestToJson(flat);
  }
  std::printf("wrote %s and %s (render with: dot -Tsvg %s -o hcd.svg)\n",
              dot_path.c_str(), json_path.c_str(), dot_path.c_str());
  return 0;
}
