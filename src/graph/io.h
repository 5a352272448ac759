#ifndef HCD_GRAPH_IO_H_
#define HCD_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace hcd {

/// Loads a whitespace-separated edge-list text file ("u v" per line) in the
/// SNAP format: lines starting with '#' or '%' are comments; directed inputs
/// are symmetrized; self-loops are dropped; vertex ids need not be
/// contiguous — distinct raw ids are compacted in ascending-raw-id order
/// (the canonical numbering, identical for every thread count). Lines of
/// any length are accepted. On success stores the normalized graph in
/// `*graph`. This is a convenience wrapper over IngestEdgeListText
/// (graph/ingest.h), which additionally exposes thread-count control,
/// per-stage telemetry and ingest statistics.
Status LoadEdgeListText(const std::string& path, Graph* graph);

/// Writes `graph` as an edge-list text file (one "u v" line per undirected
/// edge, u < v), with a comment header. Flush/close failures (e.g. full
/// disk) surface as IoError; the file is replaced through ReplaceFile
/// (common/replace_file.h), like SaveBinary's.
Status SaveEdgeListText(const Graph& graph, const std::string& path);

/// Binary CSR snapshot (format documented in graph/binary_format.h). Much
/// faster to reload than text for benchmark datasets. Loading maps the
/// file and validates the header against the file size and the CSR arrays
/// structurally (see IngestBinary in graph/ingest.h). Saving checks
/// flush/close and replaces a regular file atomically (write to
/// `<path>.tmp.<pid>`, then rename), so a process that has the old file
/// mapped keeps its bytes.
Status SaveBinary(const Graph& graph, const std::string& path);
Status LoadBinary(const std::string& path, Graph* graph);

}  // namespace hcd

#endif  // HCD_GRAPH_IO_H_
