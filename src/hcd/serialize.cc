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

constexpr uint64_t kForestMagic = 0x484344464f523035ULL;  // "HCDFOR05"

// Header: kForestMagic, kind, num_graph_vertices, num_vertices (elements),
// num_nodes, num_placed, num_level_groups, search_tables (0 or 1),
// num_graph_edges, num_best_nodes.
constexpr size_t kHeaderWords = 10;
constexpr size_t kHeaderBytes = kHeaderWords * sizeof(uint64_t);
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

/// Validated header counts: the single source of truth for the section
/// layout, shared by the size check and the section aliasing. Sections a
/// kind does not have (core's element members, the tables of an index
/// without them) have count 0 and take no bytes.
struct FlatHeader {
  HierarchyKind kind = HierarchyKind::kCore;
  uint64_t n = 0;              ///< elements (index "vertices")
  uint64_t ng = 0;             ///< graph vertices
  uint64_t num_nodes = 0;
  uint64_t num_placed = 0;
  uint64_t num_level_groups = 0;
  uint64_t num_members = 0;    ///< arity * n, 0 for kCore
  bool search_tables = false;  ///< primaries + best_nodes present
  uint64_t num_edges = 0;      ///< graph edges the tables describe
  uint64_t num_primaries = 0;  ///< num_nodes with tables, else 0
  uint64_t num_best = 0;       ///< best_nodes entries
};

/// Parses the header words after the magic, bounds every count before any
/// size arithmetic, then proves the file is exactly as long as the header's
/// section layout: sections follow the header in file order, each padded
/// to kSectionAlign. Everything else is Adopt's to check.
Status ParseFlatHeader(const uint64_t* words, uint64_t file_size,
                       const std::string& path, FlatHeader* h) {
  const uint64_t kind_raw = words[0];
  h->ng = words[1];
  h->n = words[2];
  h->num_nodes = words[3];
  h->num_placed = words[4];
  h->num_level_groups = words[5];
  const uint64_t tables = words[6];
  h->num_edges = words[7];
  h->num_best = words[8];
  if (kind_raw > static_cast<uint64_t>(HierarchyKind::kNucleus) ||
      h->n >= kInvalidVertex || h->ng >= kInvalidVertex ||
      h->num_nodes >= kInvalidNode ||
      h->num_placed > h->n || h->num_level_groups > h->num_nodes ||
      tables > 1 || h->num_best > kNumBestTables * (uint64_t{1} << 32)) {
    return Status::Corruption(path + ": implausible header counts");
  }
  h->kind = static_cast<HierarchyKind>(kind_raw);
  h->num_members =
      h->kind == HierarchyKind::kCore ? 0 : ElementArity(h->kind) * h->n;
  h->search_tables = tables == 1;
  h->num_primaries = h->search_tables ? h->num_nodes : 0;
  const uint64_t expected =
      kHeaderBytes +
      4 * PaddedSectionBytes(h->num_nodes) +  // levels, parents,
                                              // subtree_nodes, desc order
      PaddedSectionBytes(h->num_nodes + 1) +  // vertex_offsets
      PaddedSectionBytes(h->num_placed) + PaddedSectionBytes(h->n) +
      PaddedSectionBytes(h->num_level_groups + 1) +
      PaddedSectionBytes(h->num_members) +
      PaddedSectionBytes(h->num_primaries, sizeof(PrimaryValues)) +
      PaddedSectionBytes(h->num_best);
  if (expected != file_size) {
    return Status::Corruption(path + ": section sizes do not match file size");
  }
  return Status::Ok();
}

/// Zero-copy body: aliases each section inside the mapping at its computed
/// offset and funnels through Adopt's validation. The caller proved the
/// file size matches the header exactly BEFORE this runs, so no alias —
/// and no validation read through one — can touch bytes past the mapping
/// (truncation is a Status, never a SIGBUS).
Status MapFlatBody(const std::shared_ptr<const MappedFile>& file,
                   const FlatHeader& h, const std::string& path,
                   FlatHcdIndex* index) {
  FlatHcdIndex::Data d;
  d.kind = h.kind;
  d.num_vertices = static_cast<VertexId>(h.n);
  d.num_graph_vertices = static_cast<VertexId>(h.ng);
  d.search_tables = h.search_tables;
  d.num_graph_edges = h.num_edges;
  uint64_t offset = kHeaderBytes;
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
  alias(h.num_nodes + 1, &d.vertex_offsets);
  alias(h.num_placed, &d.vertices);
  alias(h.n, &d.tid);
  alias(h.num_nodes, &d.desc_level_order);
  alias(h.num_level_groups + 1, &d.level_group_offsets);
  alias(h.num_members, &d.element_members);
  alias(h.num_primaries, &d.primaries);
  alias(h.num_best, &d.best_nodes);
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
  const uint64_t header[kHeaderWords] = {
      kForestMagic,
      static_cast<uint64_t>(d.kind),
      d.num_graph_vertices,
      d.num_vertices,
      d.levels.size(),
      d.vertices.size(),
      index.NumLevelGroups(),
      d.search_tables ? uint64_t{1} : uint64_t{0},
      d.num_graph_edges,
      d.best_nodes.size(),
  };
  return std::fwrite(header, sizeof(uint64_t), kHeaderWords, f) ==
             kHeaderWords &&
         WriteSection(f, d.levels) && WriteSection(f, d.parents) &&
         WriteSection(f, d.subtree_nodes) &&
         WriteSection(f, d.vertex_offsets) && WriteSection(f, d.vertices) &&
         WriteSection(f, d.tid) && WriteSection(f, d.desc_level_order) &&
         WriteSection(f, d.level_group_offsets) &&
         WriteSection(f, d.element_members) && WriteSection(f, d.primaries) &&
         WriteSection(f, d.best_nodes);
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
  // Any other magic, the retired HCDFOR01-04 included, is not a snapshot.
  if (magic != kForestMagic) return Status::Corruption(path + ": bad magic");
  if (file->size() < kHeaderBytes) {
    return Status::Corruption(path + ": truncated header");
  }
  uint64_t words[kHeaderWords - 1] = {};  // magic excluded
  std::memcpy(words, file->data() + sizeof(uint64_t), sizeof(words));
  // The whole file size must match the header exactly BEFORE any section is
  // aliased: a truncated file must fail here with a Status, never fault on
  // a later page access.
  FlatHeader h;
  HCD_RETURN_IF_ERROR(ParseFlatHeader(words, file->size(), path, &h));
  HCD_RETURN_IF_ERROR(MapFlatBody(file, h, path, index));
  stage.AddCounter("nodes", index->NumNodes());
  return Status::Ok();
}

}  // namespace hcd
