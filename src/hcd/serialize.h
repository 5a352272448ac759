#ifndef HCD_HCD_SERIALIZE_H_
#define HCD_HCD_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "hcd/flat_index.h"

namespace hcd {

/// Snapshot formats
/// ----------------
/// v2 ("HCDFOR02"): the FlatHcdIndex layout itself. A fixed 64-byte header
/// (magic + section element counts) followed by the index's arrays written
/// verbatim, each section zero-padded to 8-byte alignment. Every section sits
/// at an aligned offset the header fixes, so loading maps the file and
/// aliases each section in place, then funnels through FlatHcdIndex::Adopt,
/// which validates all structural invariants: corrupt files of any version
/// yield Status::Corruption — never an abort. v2 carries no kind tag and
/// always loads as HierarchyKind::kCore.
///
/// v3 ("HCDFOR03"): the kind-tagged flat layout for non-core hierarchies
/// (truss / nucleus). A fixed 96-byte header — magic, kind, graph vertex
/// count, then the v2 section counts plus the element-member count — and
/// the v2 sections followed by one trailing element_members section
/// (arity * element count vertices, the element -> member-vertex
/// materialization). Core indexes keep writing v2 (v4 with search
/// tables), so existing snapshots and their hashes are untouched; a v3
/// file tagged kCore is rejected as non-canonical.
///
/// v4 ("HCDFOR04"): a core index with its search tables
/// (FlatHcdIndex::HasSearchTables), so a restart maps them instead of
/// re-peeling the graph and rerunning PBKS. A fixed 80-byte header —
/// magic, the six v2 counts, the graph's edge count, the best-node entry
/// count, one reserved word (0) — then the v2 sections unchanged, then two
/// more: the primaries (one 40-byte PrimaryValues row of five uint64 per
/// node) and the best-node tables (kNumBestTables tables of max level + 1
/// uint32 node ids each, table-major, padded to 8 bytes). The version
/// follows from the index: a forest-only core index still writes v2,
/// byte-identical to before, and one with tables writes v4.
///
/// Trust model. A snapshot is trusted to describe the graph it is served
/// with, as the forest always was: the loader checks structure, not
/// meaning. Adopt proves the forest's invariants and, for v4, that there
/// is one row per node, that each table has max level + 1 entries, and
/// that every entry is a node of level >= its index (the rows' values are
/// not read, so a mapped file's rows page in only when scored); CheckSnapshotFits (engine/engine.h) matches the
/// vertex count and, for v4, the edge count against the serving graph.
/// Tallies that are plausible but wrong (say, a file saved for another
/// graph with the same n and m) score wrongly; they can never read out of
/// bounds or abort.
///
/// Any other magic, including the retired v1 builder stream ("HCDFOR01"),
/// is rejected with Status::Corruption.

/// Writes a flat snapshot: v2 for a core index without search tables
/// (byte-identical to the pre-kind format), v4 for one with them, v3 for
/// truss / nucleus. Byte-for-byte deterministic:
/// saving a loaded index reproduces the input file exactly. The file is
/// replaced atomically through ReplaceFile (common/replace_file.h): a
/// process that has the old file mapped keeps reading the old bytes, and a
/// failed save leaves any existing `path` untouched.
Status SaveFlatIndex(const FlatHcdIndex& index, const std::string& path);

/// Loads a v2/v3/v4 snapshot (v2 and v4 adopt as kCore) by mapping the
/// file read-only and aliasing every section, the v4 search tables
/// included, in place; the index's ArrayRefs co-own the mapping, whose
/// residency shows in `hcd_snapshot_mapped_bytes`. The file size must match
/// the header-declared section layout exactly before any section is
/// aliased, so a truncated or over-long file fails with Status::Corruption,
/// never with a fault. Nonzero section padding is Corruption too, so that a
/// loaded index re-saves to the file's own bytes. The aliased sections then
/// funnel through FlatHcdIndex::Adopt. Runs as the "load.snapshot.map"
/// stage, with the file's `bytes` and the index's `nodes` as counters.
Status MapFlatIndex(const std::string& path, FlatHcdIndex* index);

}  // namespace hcd

#endif  // HCD_HCD_SERIALIZE_H_
