#ifndef HCD_HCD_EXPORT_H_
#define HCD_HCD_EXPORT_H_

#include <string>

#include "hcd/flat_index.h"

namespace hcd {

/// Options controlling DOT rendering of a forest.
struct DotOptions {
  /// Print at most this many vertex ids inside each node label.
  uint32_t max_vertices_per_label = 8;
  /// Color nodes by level (Graphviz "colorscheme=blues9" style).
  bool color_by_level = true;
};

/// Renders the hierarchy as Graphviz DOT (one graph node per tree node,
/// edges parent -> child), the paper's visualization application.
std::string ForestToDot(const FlatHcdIndex& index, const DotOptions& options = {});

/// Renders the hierarchy as a JSON document: an array of
/// {"id", "level", "parent", "vertices"} objects, ids in preorder.
std::string ForestToJson(const FlatHcdIndex& index);

}  // namespace hcd

#endif  // HCD_HCD_EXPORT_H_
