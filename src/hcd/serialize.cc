#include "hcd/serialize.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/mapped_file.h"
#include "common/replace_file.h"
#include "common/telemetry.h"

namespace hcd {
namespace {

constexpr uint64_t kForestMagicV2 = 0x484344464f523032ULL;  // "HCDFOR02"
constexpr uint64_t kForestMagicV3 = 0x484344464f523033ULL;  // "HCDFOR03"
constexpr uint64_t kForestMagicV4 = 0x484344464f523034ULL;  // "HCDFOR04"

// v2 header: kForestMagicV2, num_vertices, num_nodes, num_roots,
// num_children, num_placed, num_level_groups, reserved (0).
constexpr size_t kV2HeaderWords = 8;
constexpr size_t kV2HeaderBytes = kV2HeaderWords * sizeof(uint64_t);
// v3 header: kForestMagicV3, kind, num_graph_vertices, num_vertices
// (elements), num_nodes, num_roots, num_children, num_placed,
// num_level_groups, num_element_members, reserved, reserved (0).
constexpr size_t kV3HeaderWords = 12;
constexpr size_t kV3HeaderBytes = kV3HeaderWords * sizeof(uint64_t);
// v4 header: kForestMagicV4, num_vertices, num_nodes, num_roots,
// num_children, num_placed, num_level_groups, num_graph_edges,
// num_best_nodes, reserved (0).
constexpr size_t kV4HeaderWords = 10;
constexpr size_t kV4HeaderBytes = kV4HeaderWords * sizeof(uint64_t);
constexpr size_t kMaxHeaderWords = kV3HeaderWords;
// Sections are padded to 8 bytes so each starts at an aligned offset.
constexpr uint64_t kSectionAlign = 8;

/// Bytes a section of `count` elements of `element_bytes` each takes in the
/// file, padding included. Callers bound `count` so the product cannot
/// overflow.
uint64_t PaddedSectionBytes(uint64_t count,
                            uint64_t element_bytes = sizeof(uint32_t)) {
  const uint64_t bytes = count * element_bytes;
  return (bytes + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

// Sections hold 4-byte ids and offsets, or 8-byte-aligned rows of 64-bit
// counts (PrimaryValues); both alias correctly at an 8-byte file offset.
template <typename T>
constexpr bool kSectionElement =
    sizeof(T) % sizeof(uint32_t) == 0 && alignof(T) <= kSectionAlign;

template <typename T>
bool WriteSection(std::FILE* f, const ArrayRef<T>& v) {
  static_assert(kSectionElement<T>);
  const uint64_t bytes = v.size() * sizeof(T);
  if (bytes > 0 && std::fwrite(v.data(), sizeof(T), v.size(), f) != v.size()) {
    return false;
  }
  const uint64_t pad = PaddedSectionBytes(v.size(), sizeof(T)) - bytes;
  if (pad > 0) {
    const char zeros[kSectionAlign] = {};
    if (std::fwrite(zeros, 1, pad, f) != pad) return false;
  }
  return true;
}

/// Validated header counts of a v2/v3/v4 flat snapshot. One struct serves
/// every version (v2 is a kCore header with no member section, v4 a v2
/// header plus search tables), so the size check and the section aliasing
/// share a single source of truth for the layout.
struct FlatHeader {
  HierarchyKind kind = HierarchyKind::kCore;
  uint64_t n = 0;             ///< elements (index "vertices")
  uint64_t ng = 0;            ///< graph vertices (== n for v2)
  uint64_t num_nodes = 0;
  uint64_t num_roots = 0;
  uint64_t num_children = 0;
  uint64_t num_placed = 0;
  uint64_t num_level_groups = 0;
  uint64_t num_members = 0;   ///< element_members section (0 for v2)
  bool search_tables = false;  ///< v4: primaries + best_nodes follow
  uint64_t num_edges = 0;      ///< v4: graph edges the tables describe
  uint64_t num_best = 0;       ///< v4: best_nodes entries
  uint64_t header_bytes = 0;  ///< kV2/kV3/kV4HeaderBytes
};

/// Parses + sanity-checks the v2 header words after the magic.
Status ParseFlatHeaderV2(const uint64_t* words, const std::string& path,
                         FlatHeader* h) {
  h->kind = HierarchyKind::kCore;
  h->n = words[0];
  h->ng = words[0];  // v2 is always kCore: elements ARE graph vertices
  h->num_nodes = words[1];
  h->num_roots = words[2];
  h->num_children = words[3];
  h->num_placed = words[4];
  h->num_level_groups = words[5];
  h->num_members = 0;
  h->header_bytes = kV2HeaderBytes;
  const uint64_t reserved = words[6];
  if (h->n >= kInvalidVertex || h->num_nodes >= kInvalidNode ||
      h->num_roots > h->num_nodes ||
      h->num_children != h->num_nodes - h->num_roots ||
      h->num_placed > h->n || h->num_level_groups > h->num_nodes ||
      reserved != 0 ||
      (h->num_nodes > 0 && (h->num_roots == 0 || h->num_level_groups == 0))) {
    return Status::Corruption(path + ": implausible header counts");
  }
  return Status::Ok();
}

/// Parses + sanity-checks the v4 header words after the magic: a v2
/// header whose reserved word is the graph edge count, then the best-node
/// entry count. Each of the kNumBestTables tables has one entry per level
/// (levels are 32-bit), which bounds the count before any size arithmetic.
Status ParseFlatHeaderV4(const uint64_t* words, const std::string& path,
                         FlatHeader* h) {
  uint64_t v2_words[kV2HeaderWords - 1] = {};
  std::copy(words, words + kV2HeaderWords - 2, v2_words);  // reserved: 0
  HCD_RETURN_IF_ERROR(ParseFlatHeaderV2(v2_words, path, h));
  h->search_tables = true;
  h->num_edges = words[6];
  h->num_best = words[7];
  h->header_bytes = kV4HeaderBytes;
  if (words[8] != 0 || h->num_best % kNumBestTables != 0 ||
      h->num_best / kNumBestTables > (uint64_t{1} << 32) ||
      (h->num_nodes == 0) != (h->num_best == 0)) {
    return Status::Corruption(path + ": implausible header counts");
  }
  return Status::Ok();
}

/// Parses + sanity-checks the v3 header words after the magic.
Status ParseFlatHeaderV3(const uint64_t* words, const std::string& path,
                         FlatHeader* h) {
  const uint64_t kind_raw = words[0];
  // A v3 file tagged kCore is rejected as non-canonical: the writer emits
  // v2 for core indexes, so accepting both would break byte-identical
  // round-trips.
  if (kind_raw > static_cast<uint64_t>(HierarchyKind::kNucleus) ||
      kind_raw == static_cast<uint64_t>(HierarchyKind::kCore)) {
    return Status::Corruption(path + ": bad hierarchy kind tag");
  }
  h->kind = static_cast<HierarchyKind>(kind_raw);
  h->ng = words[1];
  h->n = words[2];
  h->num_nodes = words[3];
  h->num_roots = words[4];
  h->num_children = words[5];
  h->num_placed = words[6];
  h->num_level_groups = words[7];
  h->num_members = words[8];
  h->header_bytes = kV3HeaderBytes;
  const uint64_t reserved = words[9] | words[10];
  if (h->n >= kInvalidVertex || h->ng >= kInvalidVertex ||
      h->num_nodes >= kInvalidNode || h->num_roots > h->num_nodes ||
      h->num_children != h->num_nodes - h->num_roots ||
      h->num_placed > h->n || h->num_level_groups > h->num_nodes ||
      reserved != 0 || h->num_members != ElementArity(h->kind) * h->n ||
      (h->num_nodes > 0 && (h->num_roots == 0 || h->num_level_groups == 0))) {
    return Status::Corruption(path + ": implausible header counts");
  }
  return Status::Ok();
}

/// The exact byte size a well-formed file with this header must have. The
/// header fixes every section size, so this doubles as the layout's offset
/// arithmetic: sections follow the header in declaration order, each padded
/// to kSectionAlign. (PaddedSectionBytes(0) == 0, so the v2 case — no
/// element_members section — falls out of num_members == 0.)
uint64_t ExpectedFlatFileSize(const FlatHeader& h) {
  return h.header_bytes +
         4 * PaddedSectionBytes(h.num_nodes) +      // levels, parents,
                                                    // subtree_nodes,
                                                    // desc_level_order
         2 * PaddedSectionBytes(h.num_nodes + 1) +  // child/vertex offsets
         PaddedSectionBytes(h.num_children) +
         PaddedSectionBytes(h.num_placed) + PaddedSectionBytes(h.n) +
         PaddedSectionBytes(h.num_level_groups + 1) +
         PaddedSectionBytes(h.num_roots) + PaddedSectionBytes(h.num_members) +
         (h.search_tables
              ? PaddedSectionBytes(h.num_nodes, sizeof(PrimaryValues)) +
                    PaddedSectionBytes(h.num_best)
              : 0);
}

/// Header words (magic included) of a known format version, or 0 for an
/// unknown magic.
size_t HeaderWords(uint64_t magic) {
  switch (magic) {
    case kForestMagicV2: return kV2HeaderWords;
    case kForestMagicV3: return kV3HeaderWords;
    case kForestMagicV4: return kV4HeaderWords;
    default: return 0;
  }
}

/// Parses the header words after `magic` (a known version), then proves
/// the file is exactly as long as that header's section layout.
Status ParseFlatHeader(uint64_t magic, const uint64_t* words,
                       uint64_t file_size, const std::string& path,
                       FlatHeader* h) {
  if (magic == kForestMagicV2) {
    HCD_RETURN_IF_ERROR(ParseFlatHeaderV2(words, path, h));
  } else if (magic == kForestMagicV3) {
    HCD_RETURN_IF_ERROR(ParseFlatHeaderV3(words, path, h));
  } else {
    HCD_RETURN_IF_ERROR(ParseFlatHeaderV4(words, path, h));
  }
  if (ExpectedFlatFileSize(*h) != file_size) {
    return Status::Corruption(path + ": section sizes do not match file size");
  }
  return Status::Ok();
}

/// Zero-copy body shared by every version: aliases each section inside the
/// mapping at its computed offset and funnels through Adopt's validation.
/// The caller proved the file size matches the header exactly BEFORE this
/// runs, so no alias — and no validation read through one — can touch
/// bytes past the mapping (truncation is a Status, never a SIGBUS).
Status MapFlatBody(const std::shared_ptr<const MappedFile>& file,
                   const FlatHeader& h, const std::string& path,
                   FlatHcdIndex* index) {
  FlatHcdIndex::Data d;
  d.kind = h.kind;
  d.num_vertices = static_cast<VertexId>(h.n);
  d.num_graph_vertices = static_cast<VertexId>(h.ng);
  uint64_t offset = h.header_bytes;
  bool zero_padding = true;
  // Sections start at 8-byte offsets inside a page-aligned mapping, so the
  // casts below are always aligned (kSectionElement). The writer pads with
  // zeros, and so must the file: a loaded index re-saves to its own bytes.
  auto alias = [&]<typename T>(uint64_t count, ArrayRef<T>* section) {
    const uint8_t* begin = file->data() + offset;
    *section = ArrayRef<T>(reinterpret_cast<const T*>(begin),
                           static_cast<size_t>(count), file);
    offset += PaddedSectionBytes(count, sizeof(T));
    zero_padding =
        zero_padding && std::all_of(begin + count * sizeof(T),
                                    file->data() + offset,
                                    [](uint8_t b) { return b == 0; });
  };
  alias(h.num_nodes, &d.levels);
  alias(h.num_nodes, &d.parents);
  alias(h.num_nodes, &d.subtree_nodes);
  alias(h.num_nodes + 1, &d.child_offsets);
  alias(h.num_children, &d.children);
  alias(h.num_nodes + 1, &d.vertex_offsets);
  alias(h.num_placed, &d.vertices);
  alias(h.n, &d.tid);
  alias(h.num_nodes, &d.desc_level_order);
  alias(h.num_level_groups + 1, &d.level_group_offsets);
  alias(h.num_roots, &d.roots);
  if (h.kind != HierarchyKind::kCore) {
    alias(h.num_members, &d.element_members);
  }
  if (h.search_tables) {
    d.search_tables = true;
    d.num_graph_edges = h.num_edges;
    alias(h.num_nodes, &d.primaries);
    alias(h.num_best, &d.best_nodes);
  }
  if (!zero_padding) {
    return Status::Corruption(path + ": nonzero section padding");
  }

  Status s = FlatHcdIndex::Adopt(std::move(d), index);
  if (!s.ok()) return Status(s.code(), path + ": " + s.message());
  return Status::Ok();
}

/// Writes the whole snapshot of `index` to `f`; false on a short write.
bool WriteFlatIndex(const FlatHcdIndex& index, std::FILE* f) {
  const FlatHcdIndex::Data& d = index.data();
  bool ok;
  if (d.search_tables) {
    // Only core indexes carry search tables (Adopt checks it).
    const uint64_t header[kV4HeaderWords] = {
        kForestMagicV4,
        d.num_vertices,
        d.levels.size(),
        d.roots.size(),
        d.children.size(),
        d.vertices.size(),
        index.NumLevelGroups(),
        d.num_graph_edges,
        d.best_nodes.size(),
        0,  // reserved
    };
    ok = std::fwrite(header, sizeof(uint64_t), kV4HeaderWords, f) ==
         kV4HeaderWords;
  } else if (d.kind == HierarchyKind::kCore) {
    // Forest-only core snapshots stay v2, bit-identical to the pre-kind
    // format.
    const uint64_t header[kV2HeaderWords] = {
        kForestMagicV2,
        d.num_vertices,
        d.levels.size(),
        d.roots.size(),
        d.children.size(),
        d.vertices.size(),
        index.NumLevelGroups(),
        0,  // reserved
    };
    ok = std::fwrite(header, sizeof(uint64_t), kV2HeaderWords, f) ==
         kV2HeaderWords;
  } else {
    const uint64_t header[kV3HeaderWords] = {
        kForestMagicV3,
        static_cast<uint64_t>(d.kind),
        d.num_graph_vertices,
        d.num_vertices,
        d.levels.size(),
        d.roots.size(),
        d.children.size(),
        d.vertices.size(),
        index.NumLevelGroups(),
        d.element_members.size(),
        0,  // reserved
        0,  // reserved
    };
    ok = std::fwrite(header, sizeof(uint64_t), kV3HeaderWords, f) ==
         kV3HeaderWords;
  }
  ok = ok && WriteSection(f, d.levels) && WriteSection(f, d.parents) &&
       WriteSection(f, d.subtree_nodes) && WriteSection(f, d.child_offsets) &&
       WriteSection(f, d.children) && WriteSection(f, d.vertex_offsets) &&
       WriteSection(f, d.vertices) && WriteSection(f, d.tid) &&
       WriteSection(f, d.desc_level_order) &&
       WriteSection(f, d.level_group_offsets) && WriteSection(f, d.roots);
  if (d.kind != HierarchyKind::kCore) {
    ok = ok && WriteSection(f, d.element_members);
  }
  if (d.search_tables) {
    ok = ok && WriteSection(f, d.primaries) && WriteSection(f, d.best_nodes);
  }
  return ok;
}

}  // namespace

Status SaveFlatIndex(const FlatHcdIndex& index, const std::string& path) {
  return ReplaceFile(
      path, [&index](std::FILE* f) { return WriteFlatIndex(index, f); });
}

Status MapFlatIndex(const std::string& path, FlatHcdIndex* index) {
  ScopedStage stage("load.snapshot.map");
  std::shared_ptr<const MappedFile> file;
  HCD_RETURN_IF_ERROR(MappedFile::Open(path, &file));
  stage.AddCounter("bytes", file->size());
  if (file->size() < sizeof(uint64_t)) {
    return Status::Corruption(path + ": truncated header");
  }
  uint64_t magic = 0;
  std::memcpy(&magic, file->data(), sizeof(magic));
  const size_t header_words = HeaderWords(magic);
  if (header_words == 0) return Status::Corruption(path + ": bad magic");
  if (file->size() < header_words * sizeof(uint64_t)) {
    return Status::Corruption(path + ": truncated header");
  }
  uint64_t words[kMaxHeaderWords - 1] = {};  // magic excluded
  std::memcpy(words, file->data() + sizeof(uint64_t),
              (header_words - 1) * sizeof(uint64_t));
  // The whole file size must match the header exactly BEFORE any section is
  // aliased: a truncated file must fail here with a Status, never fault on
  // a later page access.
  FlatHeader h;
  HCD_RETURN_IF_ERROR(ParseFlatHeader(magic, words, file->size(), path, &h));
  HCD_RETURN_IF_ERROR(MapFlatBody(file, h, path, index));
  stage.AddCounter("nodes", index->NumNodes());
  return Status::Ok();
}

}  // namespace hcd
