#ifndef HCD_HCD_SERIALIZE_H_
#define HCD_HCD_SERIALIZE_H_

#include <string>

#include "common/status.h"
#include "hcd/flat_index.h"

namespace hcd {

/// Snapshot format ("HCDFOR05")
/// ------------------------------
/// The FlatHcdIndex layout itself, one format for every hierarchy kind. A
/// fixed 80-byte header of ten uint64 words: the magic, the kind tag, the
/// graph vertex count, the element count n, the node count N, the placed
/// element count, the level group count, the search-table flag (0 or 1),
/// the graph edge count the tables describe and the best-node entry count.
/// Then the index's sections verbatim, in this order, each zero-padded to
/// 8-byte alignment: levels, parents, subtree_nodes [N each],
/// vertex_offsets [N+1], vertices [placed], tid [n], desc_level_order [N],
/// level_group_offsets [groups+1], element_members [arity * n, none for a
/// core index], primaries [N 40-byte PrimaryValues rows of five uint64,
/// with tables only] and best_nodes [NumBestTables(kind) tables of max
/// level + 1 node ids each, table-major]. Child lists and the root list
/// are not stored: in preorder the subtree sizes give both. Every section
/// sits at an aligned offset the header fixes, so loading maps the file
/// and aliases each section in place, then funnels through
/// FlatHcdIndex::Adopt, which validates all structural invariants: a
/// corrupt file yields Status::Corruption, never an abort.
///
/// Trust model. A snapshot is trusted to describe the graph it is served
/// with, as the forest always was: the loader checks structure, not
/// meaning. Adopt proves the forest's invariants and, with search tables,
/// that there is one row per node, that each table has max level + 1
/// entries, and that every entry is a node of level >= its index (the
/// rows' values are not read, so a mapped file's rows page in only when
/// scored); CheckSnapshotFits (engine/engine.h) matches the vertex count
/// and, with tables, the edge count against the serving graph. Tallies
/// that are plausible but wrong (say, a file saved for another graph with
/// the same n and m) score wrongly; they can never read out of bounds or
/// abort.
///
/// Any other magic is rejected with Status::Corruption, the retired
/// formats included: the v1 builder stream ("HCDFOR01") and the
/// per-kind flat layouts v2-v4 ("HCDFOR02" core, "HCDFOR03" truss and
/// nucleus, "HCDFOR04" core with search tables), which also stored child
/// and root lists. Snapshots are derived data: rebuild an old file with
/// `hcd_cli build` (`--hierarchy=truss|nucleus` for element kinds).

/// Writes a snapshot of `index`. Byte-for-byte deterministic: saving a
/// loaded index reproduces the input file exactly. The file is
/// replaced atomically through ReplaceFile (common/replace_file.h): a
/// process that has the old file mapped keeps reading the old bytes, and a
/// failed save leaves any existing `path` untouched.
Status SaveFlatIndex(const FlatHcdIndex& index, const std::string& path);

/// Loads a snapshot by mapping the file read-only and aliasing every
/// section, the search tables included, in place; the index's ArrayRefs
/// co-own the mapping, whose residency shows in
/// `hcd_snapshot_mapped_bytes`. The file size must match the
/// header-declared section layout exactly before any section is aliased,
/// so a truncated or over-long file fails with Status::Corruption, never
/// with a fault. Nonzero section padding is Corruption too, so that a
/// loaded index re-saves to the file's own bytes. The aliased sections then
/// funnel through FlatHcdIndex::Adopt. Runs as the "load.snapshot.map"
/// stage, with the file's `bytes` and the index's `nodes` as counters.
Status MapFlatIndex(const std::string& path, FlatHcdIndex* index);

}  // namespace hcd

#endif  // HCD_HCD_SERIALIZE_H_
