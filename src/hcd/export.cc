#include "hcd/export.h"

#include <algorithm>
#include <sstream>

namespace hcd {

std::string ForestToDot(const FlatHcdIndex& index, const DotOptions& options) {
  std::ostringstream out;
  out << "digraph hcd {\n";
  out << "  rankdir=BT;\n";
  out << "  node [shape=box, style=filled];\n";
  uint32_t max_level = 1;
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    max_level = std::max(max_level, index.Level(t));
  }
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    out << "  n" << t << " [label=\"k=" << index.Level(t) << " |V|="
        << index.Vertices(t).size() << "\\n{";
    const auto verts = index.Vertices(t);
    for (size_t i = 0; i < verts.size() && i < options.max_vertices_per_label;
         ++i) {
      if (i > 0) out << ",";
      out << verts[i];
    }
    if (verts.size() > options.max_vertices_per_label) out << ",...";
    out << "}\"";
    if (options.color_by_level) {
      // Map level to one of 9 blues (1 = lightest).
      uint32_t shade = 1 + (index.Level(t) * 8) / std::max(max_level, 1u);
      out << ", colorscheme=blues9, fillcolor=" << std::min(shade, 9u);
    }
    out << "];\n";
  }
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    if (index.Parent(t) != kInvalidNode) {
      out << "  n" << t << " -> n" << index.Parent(t) << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string ForestToJson(const FlatHcdIndex& index) {
  std::ostringstream out;
  out << "[\n";
  for (TreeNodeId t = 0; t < index.NumNodes(); ++t) {
    out << "  {\"id\": " << t << ", \"level\": " << index.Level(t)
        << ", \"parent\": ";
    if (index.Parent(t) == kInvalidNode) {
      out << "null";
    } else {
      out << index.Parent(t);
    }
    out << ", \"vertices\": [";
    const auto verts = index.Vertices(t);
    for (size_t i = 0; i < verts.size(); ++i) {
      if (i > 0) out << ", ";
      out << verts[i];
    }
    out << "]}";
    if (t + 1 < index.NumNodes()) out << ",";
    out << "\n";
  }
  out << "]\n";
  return out.str();
}

}  // namespace hcd
