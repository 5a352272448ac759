#ifndef HCD_HCD_SERIALIZE_H_
#define HCD_HCD_SERIALIZE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "hcd/flat_index.h"

namespace hcd {

/// Snapshot formats
/// ----------------
/// v2 ("HCDFOR02"): the FlatHcdIndex layout itself. A fixed 64-byte header
/// (magic + section element counts) followed by the index's arrays written
/// verbatim, each section padded to 8-byte alignment. Loading is a handful
/// of bulk reads (mmap-friendly: every section sits at a computable aligned
/// offset) funneled through FlatHcdIndex::Adopt, which validates all
/// structural invariants, so corrupt files of either version yield
/// Status::Corruption — never an abort. v2 carries no kind tag and always
/// loads as HierarchyKind::kCore.
///
/// v3 ("HCDFOR03"): the kind-tagged flat layout for non-core hierarchies
/// (truss / nucleus). A fixed 96-byte header — magic, kind, graph vertex
/// count, then the v2 section counts plus the element-member count — and
/// the v2 sections followed by one trailing element_members section
/// (arity * element count vertices, the element -> member-vertex
/// materialization). Core indexes keep writing v2, byte-identical to
/// before, so existing snapshots and their hashes are untouched; a v3
/// file tagged kCore is rejected as non-canonical.
///
/// Any other magic, including the retired v1 builder stream ("HCDFOR01"),
/// is rejected with Status::Corruption.

/// Writes a flat snapshot: v2 for a core index (byte-identical to the
/// pre-kind format), v3 for truss / nucleus. Byte-for-byte deterministic:
/// saving a loaded index reproduces the input file exactly. The file is
/// replaced atomically: the bytes go to `<path>.tmp.<pid>`, which is
/// renamed over `path` once written and closed, so a process that has the
/// old file mapped keeps reading the old bytes, and a failed save removes
/// the temporary file and leaves any existing `path` untouched. No fsync:
/// durability across power loss is not promised.
Status SaveFlatIndex(const FlatHcdIndex& index, const std::string& path);

/// Loads a v2/v3 snapshot into a flat index, reading it section by section
/// as whole arrays (v2 adopts as kCore).
Status LoadFlatIndex(const std::string& path, FlatHcdIndex* index);

/// Zero-copy load: mmaps the file read-only and aliases every v2/v3 section
/// in place (the index's ArrayRefs co-own the mapping), after proving the
/// file size matches the header-declared section layout exactly — a
/// truncated or padded file fails with Status::Corruption before any byte
/// past the header is touched, never with a fault. The aliased sections
/// still funnel through FlatHcdIndex::Adopt, so every structural-corruption
/// case the copying loader rejects is rejected here too. The resulting index
/// answers bit-identically to a read-loaded one.
Status MapFlatIndex(const std::string& path, FlatHcdIndex* index);

/// How snapshot bytes reach memory: kRead copies them into owned arrays,
/// kMmap aliases the mapped file (page-cache backed, shared across
/// processes, demand-paged).
enum class SnapshotMode {
  kRead,
  kMmap,
};

/// "read" / "mmap".
const char* SnapshotModeName(SnapshotMode mode);

/// Parses "read" / "mmap"; returns false (leaving `*mode` untouched) on
/// anything else.
bool ParseSnapshotMode(std::string_view text, SnapshotMode* mode);

/// Dispatches to LoadFlatIndex or MapFlatIndex by mode.
Status LoadFlatSnapshot(const std::string& path, SnapshotMode mode,
                        FlatHcdIndex* index);

}  // namespace hcd

#endif  // HCD_HCD_SERIALIZE_H_
