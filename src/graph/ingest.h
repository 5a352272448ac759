#ifndef HCD_GRAPH_INGEST_H_
#define HCD_GRAPH_INGEST_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace hcd {

/// Knobs for the parallel ingest pipeline (text parse and binary load).
/// Each ingest records its stages: "load.read", "load.parse", "load.remap",
/// "load.build" (text) and "load.read", "load.validate" (binary).
struct IngestOptions {
  /// OpenMP threads for every ingest stage (read, parse, remap, build,
  /// validate); 0 keeps the ambient setting. Applied with a scoped guard.
  int io_threads = 0;
};

/// What ingest saw and normalized; all counters are zero-initialized and
/// only the ones relevant to the chosen format are filled.
struct IngestStats {
  uint64_t bytes = 0;             ///< file size consumed
  uint64_t lines = 0;             ///< text lines scanned (incl. comments)
  uint64_t edges_parsed = 0;      ///< edge records parsed from text
  uint64_t vertices = 0;          ///< distinct vertices after remap
  uint64_t self_loops_dropped = 0;
  uint64_t duplicates_dropped = 0;
};

/// Parallel, validated replacement for the serial text loader. The file is
/// read into memory, split into newline-aligned chunks parsed concurrently
/// into per-chunk edge buffers, and raw 64-bit ids are remapped to the
/// canonical order "ascending raw id" (deterministic and independent of
/// the thread count — loading the same file at any `io_threads` yields a
/// byte-identical CSR). Lines of any length are handled; malformed lines
/// fail with Corruption carrying the 1-based line number. Self-loops and
/// duplicate/reversed edges are dropped by the parallel CSR build.
Status IngestEdgeListText(const std::string& path, const IngestOptions& options,
                          Graph* graph, IngestStats* stats = nullptr);

/// Validated binary CSR load (format in graph/binary_format.h). Before any
/// allocation the header is checked against the real file size, so corrupt
/// headers cannot trigger absurd allocations; after reading, offsets must
/// be monotone with the documented endpoints and every adjacency slice
/// must be strictly ascending, in range and self-loop free (checked in
/// parallel). Violations return Corruption instead of corrupting
/// downstream algorithms.
Status IngestBinary(const std::string& path, const IngestOptions& options,
                    Graph* graph, IngestStats* stats = nullptr);

}  // namespace hcd

#endif  // HCD_GRAPH_INGEST_H_
