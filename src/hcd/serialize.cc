#include "hcd/serialize.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "common/mapped_file.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace hcd {
namespace {

constexpr uint64_t kForestMagicV2 = 0x484344464f523032ULL;  // "HCDFOR02"
constexpr uint64_t kForestMagicV3 = 0x484344464f523033ULL;  // "HCDFOR03"

// v2 header: kForestMagicV2, num_vertices, num_nodes, num_roots,
// num_children, num_placed, num_level_groups, reserved (0).
constexpr size_t kV2HeaderWords = 8;
constexpr size_t kV2HeaderBytes = kV2HeaderWords * sizeof(uint64_t);
// v3 header: kForestMagicV3, kind, num_graph_vertices, num_vertices
// (elements), num_nodes, num_roots, num_children, num_placed,
// num_level_groups, num_element_members, reserved, reserved (0).
constexpr size_t kV3HeaderWords = 12;
constexpr size_t kV3HeaderBytes = kV3HeaderWords * sizeof(uint64_t);
// Sections are padded to 8 bytes so each starts at an aligned offset.
constexpr uint64_t kSectionAlign = 8;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status OpenForRead(const std::string& path, FilePtr* f, uint64_t* file_size) {
  f->reset(std::fopen(path.c_str(), "rb"));
  if (*f == nullptr) return Status::IoError("cannot open " + path);
  if (std::fseek(f->get(), 0, SEEK_END) != 0) {
    return Status::IoError("cannot seek " + path);
  }
  const long end = std::ftell(f->get());
  if (end < 0) return Status::IoError("cannot stat " + path);
  *file_size = static_cast<uint64_t>(end);
  std::rewind(f->get());
  return Status::Ok();
}

uint64_t PaddedSectionBytes(uint64_t count) {
  const uint64_t bytes = count * sizeof(uint32_t);
  return (bytes + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

template <typename T>
bool WriteSection(std::FILE* f, const ArrayRef<T>& v) {
  static_assert(sizeof(T) == sizeof(uint32_t));
  const uint64_t bytes = v.size() * sizeof(T);
  if (bytes > 0 && std::fwrite(v.data(), sizeof(T), v.size(), f) != v.size()) {
    return false;
  }
  const uint64_t pad = PaddedSectionBytes(v.size()) - bytes;
  if (pad > 0) {
    const char zeros[kSectionAlign] = {};
    if (std::fwrite(zeros, 1, pad, f) != pad) return false;
  }
  return true;
}

/// Bulk-reads one v2 section of a known element count (the count was
/// already validated against the file size, so the resize is safe). This is
/// the copying path; MapFlatBody below aliases the same bytes instead.
template <typename T>
bool ReadSection(std::FILE* f, uint64_t count, ArrayRef<T>* v) {
  static_assert(sizeof(T) == sizeof(uint32_t));
  v->resize(count);
  if (count > 0 && std::fread(v->data(), sizeof(T), count, f) != count) {
    return false;
  }
  const long pad =
      static_cast<long>(PaddedSectionBytes(count) - count * sizeof(T));
  return pad == 0 || std::fseek(f, pad, SEEK_CUR) == 0;
}

/// Observes one snapshot load in the metrics registry, labeled by how the
/// bytes reached memory ("read" = copying loader, "mmap" = zero-copy map).
void RecordSnapshotLoad(const char* mode, double seconds) {
  if (MetricsRegistry* registry = MetricsRegistry::Current()) {
    registry
        ->GetHistogram("hcd_snapshot_load_seconds",
                       "Wall time to load one flat snapshot into a servable "
                       "index",
                       {{"mode", mode}})
        ->Observe(seconds);
  }
}

/// Validated header counts of a v2/v3 flat snapshot. One struct serves both
/// versions (v2 is a kCore header with no member section), so the copying
/// loader and the zero-copy mapper share a single source of truth for the
/// section layout.
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
  uint64_t header_bytes = 0;  ///< kV2HeaderBytes or kV3HeaderBytes
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
         PaddedSectionBytes(h.num_roots) + PaddedSectionBytes(h.num_members);
}

/// Copying body shared by v2 and v3: bulk-reads each section into owned
/// ArrayRefs and funnels through Adopt. The file size was already proven to
/// match the header exactly, so every fread is in bounds.
Status ReadFlatBody(std::FILE* f, const FlatHeader& h, const std::string& path,
                    FlatHcdIndex* index) {
  FlatHcdIndex::Data d;
  d.kind = h.kind;
  d.num_vertices = static_cast<VertexId>(h.n);
  d.num_graph_vertices = static_cast<VertexId>(h.ng);
  bool ok = ReadSection(f, h.num_nodes, &d.levels) &&
            ReadSection(f, h.num_nodes, &d.parents) &&
            ReadSection(f, h.num_nodes, &d.subtree_nodes) &&
            ReadSection(f, h.num_nodes + 1, &d.child_offsets) &&
            ReadSection(f, h.num_children, &d.children) &&
            ReadSection(f, h.num_nodes + 1, &d.vertex_offsets) &&
            ReadSection(f, h.num_placed, &d.vertices) &&
            ReadSection(f, h.n, &d.tid) &&
            ReadSection(f, h.num_nodes, &d.desc_level_order) &&
            ReadSection(f, h.num_level_groups + 1, &d.level_group_offsets) &&
            ReadSection(f, h.num_roots, &d.roots);
  if (ok && h.kind != HierarchyKind::kCore) {
    ok = ReadSection(f, h.num_members, &d.element_members);
  }
  if (!ok) return Status::Corruption(path + ": truncated sections");

  Status s = FlatHcdIndex::Adopt(std::move(d), index);
  if (!s.ok()) return Status(s.code(), path + ": " + s.message());
  return Status::Ok();
}

Status LoadFlatV2Body(std::FILE* f, uint64_t file_size,
                      const std::string& path, FlatHcdIndex* index) {
  uint64_t words[kV2HeaderWords - 1];  // magic already consumed
  if (std::fread(words, sizeof(uint64_t), std::size(words), f) !=
      std::size(words)) {
    return Status::Corruption(path + ": truncated header");
  }
  FlatHeader h;
  HCD_RETURN_IF_ERROR(ParseFlatHeaderV2(words, path, &h));
  // The whole file size must match exactly before anything is allocated.
  if (ExpectedFlatFileSize(h) != file_size) {
    return Status::Corruption(path + ": section sizes do not match file size");
  }
  return ReadFlatBody(f, h, path, index);
}

Status LoadFlatV3Body(std::FILE* f, uint64_t file_size,
                      const std::string& path, FlatHcdIndex* index) {
  uint64_t words[kV3HeaderWords - 1];  // magic already consumed
  if (std::fread(words, sizeof(uint64_t), std::size(words), f) !=
      std::size(words)) {
    return Status::Corruption(path + ": truncated header");
  }
  FlatHeader h;
  HCD_RETURN_IF_ERROR(ParseFlatHeaderV3(words, path, &h));
  // The whole file size must match exactly before anything is allocated.
  if (ExpectedFlatFileSize(h) != file_size) {
    return Status::Corruption(path + ": section sizes do not match file size");
  }
  return ReadFlatBody(f, h, path, index);
}

/// Zero-copy body shared by v2 and v3: aliases each section inside the
/// mapping at its computed offset and funnels through the same Adopt
/// validation the copying loader uses. The caller proved the file size
/// matches the header exactly BEFORE this runs, so no alias — and no
/// validation read through one — can touch bytes past the mapping
/// (truncation is a Status, never a SIGBUS).
Status MapFlatBody(const std::shared_ptr<const MappedFile>& file,
                   const FlatHeader& h, const std::string& path,
                   FlatHcdIndex* index) {
  FlatHcdIndex::Data d;
  d.kind = h.kind;
  d.num_vertices = static_cast<VertexId>(h.n);
  d.num_graph_vertices = static_cast<VertexId>(h.ng);
  uint64_t offset = h.header_bytes;
  // Sections start at 8-byte offsets inside a page-aligned mapping, so the
  // uint32 casts below are always aligned.
  auto alias = [&]<typename T>(uint64_t count, ArrayRef<T>* section) {
    *section = ArrayRef<T>(
        reinterpret_cast<const T*>(file->data() + offset),
        static_cast<size_t>(count), file);
    offset += PaddedSectionBytes(count);
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

  Status s = FlatHcdIndex::Adopt(std::move(d), index);
  if (!s.ok()) return Status(s.code(), path + ": " + s.message());
  return Status::Ok();
}

/// Writes the whole snapshot of `index` to `f`; false on a short write.
bool WriteFlatIndex(const FlatHcdIndex& index, std::FILE* f) {
  const FlatHcdIndex::Data& d = index.data();
  bool ok;
  if (d.kind == HierarchyKind::kCore) {
    // Core snapshots stay v2, bit-identical to the pre-kind format.
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
  return ok;
}

}  // namespace

Status SaveFlatIndex(const FlatHcdIndex& index, const std::string& path) {
  // The bytes go to a temporary file in the same directory, which is then
  // renamed over `path`: a process that has the old file mapped keeps its
  // own, unchanged inode, where truncating in place would change validated
  // bytes under its mapping (and cut away pages past a smaller new file).
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + tmp);
  const bool wrote = WriteFlatIndex(index, f);
  // fclose flushes the stdio buffer, so it can be the call that fails.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

Status LoadFlatIndex(const std::string& path, FlatHcdIndex* index) {
  ScopedSpan span("load.snapshot.read");
  span.AddArg("path", path);
  Timer timer;

  FilePtr f;
  uint64_t file_size = 0;
  HCD_RETURN_IF_ERROR(OpenForRead(path, &f, &file_size));
  span.AddArg("bytes", file_size);

  uint64_t magic = 0;
  if (std::fread(&magic, sizeof(magic), 1, f.get()) != 1) {
    return Status::Corruption(path + ": truncated header");
  }
  Status s;
  if (magic == kForestMagicV2) {
    s = LoadFlatV2Body(f.get(), file_size, path, index);
  } else if (magic == kForestMagicV3) {
    s = LoadFlatV3Body(f.get(), file_size, path, index);
  } else {
    return Status::Corruption(path + ": bad magic");
  }
  if (s.ok()) RecordSnapshotLoad("read", timer.Seconds());
  return s;
}

Status MapFlatIndex(const std::string& path, FlatHcdIndex* index) {
  ScopedSpan span("load.snapshot.map");
  span.AddArg("path", path);
  Timer timer;

  std::shared_ptr<const MappedFile> file;
  HCD_RETURN_IF_ERROR(MappedFile::Open(path, &file));
  span.AddArg("bytes", file->size());
  if (file->size() < sizeof(uint64_t)) {
    return Status::Corruption(path + ": truncated header");
  }
  uint64_t magic = 0;
  std::memcpy(&magic, file->data(), sizeof(magic));
  if (magic != kForestMagicV2 && magic != kForestMagicV3) {
    return Status::Corruption(path + ": bad magic");
  }

  const size_t header_words =
      magic == kForestMagicV2 ? kV2HeaderWords : kV3HeaderWords;
  if (file->size() < header_words * sizeof(uint64_t)) {
    return Status::Corruption(path + ": truncated header");
  }
  uint64_t words[kV3HeaderWords - 1];  // magic excluded; v3 is the larger
  std::memcpy(words, file->data() + sizeof(uint64_t),
              (header_words - 1) * sizeof(uint64_t));
  FlatHeader h;
  if (magic == kForestMagicV2) {
    HCD_RETURN_IF_ERROR(ParseFlatHeaderV2(words, path, &h));
  } else {
    HCD_RETURN_IF_ERROR(ParseFlatHeaderV3(words, path, &h));
  }
  // The whole file size must match the header exactly BEFORE any section is
  // aliased: a truncated file must fail here with a Status, never fault on
  // a later page access.
  if (ExpectedFlatFileSize(h) != file->size()) {
    return Status::Corruption(path + ": section sizes do not match file size");
  }
  Status s = MapFlatBody(file, h, path, index);
  if (s.ok()) RecordSnapshotLoad("mmap", timer.Seconds());
  return s;
}

const char* SnapshotModeName(SnapshotMode mode) {
  return mode == SnapshotMode::kMmap ? "mmap" : "read";
}

bool ParseSnapshotMode(std::string_view text, SnapshotMode* mode) {
  if (text == "read") {
    *mode = SnapshotMode::kRead;
    return true;
  }
  if (text == "mmap") {
    *mode = SnapshotMode::kMmap;
    return true;
  }
  return false;
}

Status LoadFlatSnapshot(const std::string& path, SnapshotMode mode,
                        FlatHcdIndex* index) {
  return mode == SnapshotMode::kMmap ? MapFlatIndex(path, index)
                                     : LoadFlatIndex(path, index);
}

}  // namespace hcd
