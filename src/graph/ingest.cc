#include "graph/ingest.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/telemetry.h"
#include "common/trace.h"
#include "graph/binary_format.h"
#include "graph/builder.h"
#include "graph/types.h"
#include "parallel/omp_utils.h"
#include "parallel/primitives.h"

namespace hcd {
namespace {

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

/// pread the exact byte range [file_off, file_off + size) into `dst`,
/// tolerating short reads and EINTR. False on error or premature EOF.
bool PreadExact(int fd, char* dst, uint64_t size, uint64_t file_off) {
  while (size > 0) {
    const ssize_t got = ::pread(fd, dst, size, static_cast<off_t>(file_off));
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;  // EOF before the range ended
    dst += got;
    size -= static_cast<uint64_t>(got);
    file_off += static_cast<uint64_t>(got);
  }
  return true;
}

/// Reads [file_off, file_off + size) in parallel 32 MB slices (page-cached
/// files decompress from the kernel faster with several readers).
bool PreadParallelChunks(int fd, char* dst, uint64_t size, uint64_t file_off) {
  constexpr uint64_t kSlice = uint64_t{32} << 20;
  const uint64_t slices = (size + kSlice - 1) / kSlice;
  std::atomic<bool> ok{true};
  ParallelFor(uint64_t{0}, slices, [&](uint64_t s) {
    ScopedSpan span("load.read.slice");
    const uint64_t begin = s * kSlice;
    const uint64_t len = std::min(kSlice, size - begin);
    span.AddArg("slice", s);
    span.AddArg("bytes", len);
    if (!PreadExact(fd, dst + begin, len, file_off + begin)) {
      ok.store(false, std::memory_order_relaxed);
    }
  });
  return ok.load();
}

/// Loads the whole file into `*buf`. Regular files are sized via fstat and
/// read in parallel; anything else (pipe, device) falls back to a
/// sequential read loop.
Status ReadWholeFile(const std::string& path, std::vector<char>* buf) {
  FdCloser f{::open(path.c_str(), O_RDONLY)};
  if (f.fd < 0) return Status::IoError("cannot open " + path);
  struct stat st;
  if (::fstat(f.fd, &st) != 0) return Status::IoError("cannot stat " + path);
  if (!S_ISREG(st.st_mode)) {
    buf->clear();
    char tmp[1 << 16];
    for (;;) {
      const ssize_t got = ::read(f.fd, tmp, sizeof(tmp));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("read failed on " + path);
      }
      if (got == 0) break;
      buf->insert(buf->end(), tmp, tmp + got);
    }
    return Status::Ok();
  }
  buf->resize(static_cast<size_t>(st.st_size));
  if (!PreadParallelChunks(f.fd, buf->data(), buf->size(), 0)) {
    return Status::IoError("read failed on " + path);
  }
  return Status::Ok();
}

/// An edge as parsed from text, before id compaction.
struct RawEdge {
  uint64_t u = 0;
  uint64_t v = 0;
};

enum class ParseErrorKind { kNone, kExpectedUv, kIdOverflow };

/// Per-chunk parse result; the error (if any) carries the byte offset of
/// the offending line so line numbers only get counted on failure.
struct ChunkParse {
  std::vector<RawEdge> edges;
  uint64_t lines = 0;
  ParseErrorKind error = ParseErrorKind::kNone;
  size_t error_offset = 0;
};

inline bool IsSpace(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// Parses an unsigned 64-bit integer at `*p`; advances past the digits.
/// False when no digit is present or the value overflows.
bool ParseU64(const char** p, const char* end, uint64_t* out,
              bool* overflow) {
  const char* q = *p;
  if (q == end || *q < '0' || *q > '9') return false;
  uint64_t value = 0;
  while (q != end && *q >= '0' && *q <= '9') {
    const uint64_t digit = static_cast<uint64_t>(*q - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      *overflow = true;
      return false;
    }
    value = value * 10 + digit;
    ++q;
  }
  *p = q;
  *out = value;
  return true;
}

/// Parses one newline-aligned slice [begin, end) of the file buffer.
/// `base` is the buffer start, used to report error byte offsets.
ChunkParse ParseChunk(const char* base, const char* begin, const char* end) {
  ChunkParse out;
  out.edges.reserve(static_cast<size_t>((end - begin) / 12) + 1);
  const char* p = begin;
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* line_end = nl != nullptr ? nl : end;
    ++out.lines;
    const char* q = p;
    while (q != line_end && IsSpace(*q)) ++q;
    if (q != line_end && *q != '#' && *q != '%') {
      RawEdge e;
      bool overflow = false;
      bool ok = ParseU64(&q, line_end, &e.u, &overflow);
      if (ok) {
        while (q != line_end && IsSpace(*q)) ++q;
        ok = ParseU64(&q, line_end, &e.v, &overflow);
      }
      if (!ok) {
        out.error = overflow ? ParseErrorKind::kIdOverflow
                             : ParseErrorKind::kExpectedUv;
        out.error_offset = static_cast<size_t>(p - base);
        return out;
      }
      // Anything after the second id is ignored, matching the historical
      // sscanf("%u %u") leniency toward trailing columns.
      out.edges.push_back(e);
    }
    p = line_end + 1;
  }
  return out;
}

/// 1-based line number of the line starting at byte `offset`.
uint64_t LineNumberAt(const std::vector<char>& buf, size_t offset) {
  uint64_t line = 1;
  const char* p = buf.data();
  const char* end = p + offset;
  while (p < end) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<size_t>(end - p)));
    if (nl == nullptr) break;
    ++line;
    p = nl + 1;
  }
  return line;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

Status IngestEdgeListText(const std::string& path, const IngestOptions& options,
                          Graph* graph, IngestStats* stats) {
  std::optional<ThreadCountGuard> guard;
  if (options.io_threads > 0) guard.emplace(options.io_threads);

  std::vector<char> buf;
  {
    ScopedStage stage("load.read");
    HCD_RETURN_IF_ERROR(ReadWholeFile(path, &buf));
    stage.AddCounter("bytes", buf.size());
  }
  if (stats != nullptr) stats->bytes = buf.size();

  // Newline-aligned chunks; chunking never changes the result, only how
  // the parse work is spread.
  const size_t threads = static_cast<size_t>(std::max(1, MaxThreads()));
  const size_t target =
      std::max(size_t{4096}, buf.size() / std::max(size_t{1}, threads * 8));
  std::vector<const char*> chunk_begin;
  {
    const char* p = buf.data();
    const char* end = buf.data() + buf.size();
    while (p < end) {
      chunk_begin.push_back(p);
      const char* next = p + std::min(static_cast<size_t>(end - p), target);
      const char* nl = next == end
                           ? end
                           : static_cast<const char*>(std::memchr(
                                 next, '\n', static_cast<size_t>(end - next)));
      p = nl == nullptr || nl == end ? end : nl + 1;
    }
    chunk_begin.push_back(end);
  }
  const size_t num_chunks = chunk_begin.size() - 1;

  std::vector<ChunkParse> parsed(num_chunks);
  uint64_t total_lines = 0;
  uint64_t total_edges = 0;
  {
    ScopedStage stage("load.parse");
    // Static scheduling: only ~threads*8 chunky iterations, so the dynamic
    // wrapper's 512-iteration grain would hand them all to one thread.
    ParallelFor(size_t{0}, num_chunks, [&](size_t c) {
      // Per-chunk span: worker threads record into their own buffers, so a
      // trace shows every chunk's parse time and which thread took it.
      ScopedSpan span("load.parse.chunk");
      parsed[c] = ParseChunk(buf.data(), chunk_begin[c], chunk_begin[c + 1]);
      span.AddArg("chunk", c);
      span.AddArg("edges", parsed[c].edges.size());
    });
    for (const ChunkParse& c : parsed) {
      if (c.error != ParseErrorKind::kNone) {
        const uint64_t line = LineNumberAt(buf, c.error_offset);
        const char* what = c.error == ParseErrorKind::kIdOverflow
                               ? ": vertex id overflows 64 bits"
                               : ": expected 'u v'";
        return Status::Corruption(path + ":" + std::to_string(line) + what);
      }
      total_lines += c.lines;
      total_edges += c.edges.size();
    }
    stage.AddCounter("lines", total_lines);
    stage.AddCounter("edges", total_edges);
  }
  if (stats != nullptr) {
    stats->lines = total_lines;
    stats->edges_parsed = total_edges;
  }

  // Deterministic remap: distinct raw ids in ascending order become
  // vertices 0..n-1 (documented canonical order; independent of chunking
  // and thread count).
  std::vector<uint64_t> first_edge(num_chunks + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    first_edge[c + 1] = first_edge[c] + parsed[c].edges.size();
  }
  std::vector<RawEdge> raw(total_edges);
  ParallelFor(size_t{0}, num_chunks, [&](size_t c) {
    std::copy(parsed[c].edges.begin(), parsed[c].edges.end(),
              raw.begin() + static_cast<ptrdiff_t>(first_edge[c]));
    parsed[c].edges.clear();
    parsed[c].edges.shrink_to_fit();
  });

  EdgeList edges(total_edges);
  uint64_t num_ids = 0;
  {
    ScopedStage stage("load.remap");
    std::vector<uint64_t> ids(2 * total_edges);
    ParallelFor(size_t{0}, static_cast<size_t>(total_edges), [&](size_t i) {
      ids[2 * i] = raw[i].u;
      ids[2 * i + 1] = raw[i].v;
    });
    ParallelSort(ids);
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    num_ids = ids.size();
    if (num_ids >= kInvalidVertex) {
      return Status::Corruption(path + ": too many distinct vertex ids (" +
                                std::to_string(num_ids) + ")");
    }
    ParallelFor(size_t{0}, static_cast<size_t>(total_edges), [&](size_t i) {
      const auto at = [&ids](uint64_t raw_id) {
        return static_cast<VertexId>(
            std::lower_bound(ids.begin(), ids.end(), raw_id) - ids.begin());
      };
      edges[i] = {at(raw[i].u), at(raw[i].v)};
    });
    stage.AddCounter("vertices", num_ids);
  }
  raw.clear();
  raw.shrink_to_fit();
  if (stats != nullptr) stats->vertices = num_ids;

  {
    ScopedStage stage("load.build");
    GraphBuilder b;
    b.AddEdgesUnfiltered(std::move(edges));
    BuildStats bstats;
    *graph = std::move(b).Build(static_cast<VertexId>(num_ids), &bstats);
    stage.AddCounter("self_loops_dropped", bstats.self_loops_dropped);
    stage.AddCounter("duplicates_dropped", bstats.duplicates_dropped);
    if (stats != nullptr) {
      stats->self_loops_dropped = bstats.self_loops_dropped;
      stats->duplicates_dropped = bstats.duplicates_dropped;
    }
  }
  return Status::Ok();
}

Status IngestBinary(const std::string& path, const IngestOptions& options,
                    Graph* graph, IngestStats* stats) {
  std::optional<ThreadCountGuard> guard;
  if (options.io_threads > 0) guard.emplace(options.io_threads);

  std::vector<EdgeIndex> offsets;
  std::vector<VertexId> adj;
  uint64_t n = 0;
  uint64_t adj_size = 0;
  {
    ScopedStage stage("load.read");
    FdCloser f{::open(path.c_str(), O_RDONLY)};
    if (f.fd < 0) return Status::IoError("cannot open " + path);
    struct stat st;
    if (::fstat(f.fd, &st) != 0) return Status::IoError("cannot stat " + path);
    const uint64_t file_size = static_cast<uint64_t>(st.st_size);
    stage.AddCounter("bytes", file_size);
    if (stats != nullptr) stats->bytes = file_size;

    char header[internal::kBinaryHeaderBytes];
    if (file_size < internal::kBinaryHeaderBytes ||
        !PreadExact(f.fd, header, sizeof(header), 0)) {
      return Status::Corruption(path + ": truncated header");
    }
    const uint64_t magic = ReadU64(header);
    const uint32_t version = ReadU32(header + 8);
    n = ReadU64(header + 12);
    adj_size = ReadU64(header + 20);
    if (magic != internal::kBinaryMagic) {
      return Status::Corruption(path + ": bad magic");
    }
    if (version != internal::kBinaryVersion) {
      return Status::Corruption(path + ": unsupported version " +
                                std::to_string(version));
    }
    // Sanity-check the header against the real file size BEFORE allocating
    // anything: a corrupt n / adj_size must fail cleanly, not reserve
    // multi-GB buffers.
    if (n >= kInvalidVertex) {
      return Status::Corruption(path + ": vertex count " + std::to_string(n) +
                                " exceeds the 32-bit id space");
    }
    if (adj_size % 2 != 0) {
      return Status::Corruption(path + ": odd adjacency size " +
                                std::to_string(adj_size) +
                                " (undirected CSR stores both directions)");
    }
    const uint64_t body = file_size - internal::kBinaryHeaderBytes;
    const uint64_t offsets_bytes = (n + 1) * sizeof(EdgeIndex);
    if (offsets_bytes > body || adj_size > (body - offsets_bytes) / sizeof(VertexId) ||
        offsets_bytes + adj_size * sizeof(VertexId) != body) {
      return Status::Corruption(
          path + ": file size does not match header (n=" + std::to_string(n) +
          ", adj_size=" + std::to_string(adj_size) + ")");
    }

    offsets.resize(static_cast<size_t>(n) + 1);
    adj.resize(static_cast<size_t>(adj_size));
    bool ok = PreadParallelChunks(f.fd, reinterpret_cast<char*>(offsets.data()),
                                  offsets_bytes, internal::kBinaryHeaderBytes);
    ok = ok && (adj_size == 0 ||
                PreadParallelChunks(f.fd, reinterpret_cast<char*>(adj.data()),
                                    adj_size * sizeof(VertexId),
                                    internal::kBinaryHeaderBytes + offsets_bytes));
    if (!ok) return Status::Corruption(path + ": truncated body");
  }

  {
    ScopedStage stage("load.validate");
    if (offsets.front() != 0 || offsets.back() != adj_size) {
      return Status::Corruption(path + ": inconsistent offsets");
    }
    std::atomic<bool> monotone{true};
    ParallelFor(uint64_t{0}, n, [&](uint64_t v) {
      if (offsets[v] > offsets[v + 1]) {
        monotone.store(false, std::memory_order_relaxed);
      }
    });
    if (!monotone.load()) {
      return Status::Corruption(path + ": non-monotone offsets");
    }
    // With monotone offsets and back() == adj_size every slice is in
    // bounds, so the per-vertex scan below cannot read out of range.
    std::atomic<bool> adjacency_ok{true};
    ParallelForDynamic(uint64_t{0}, n, [&](uint64_t v) {
      for (EdgeIndex j = offsets[v]; j < offsets[v + 1]; ++j) {
        const VertexId a = adj[j];
        if (a >= n || a == v ||
            (j > offsets[v] && a <= adj[j - 1])) {
          adjacency_ok.store(false, std::memory_order_relaxed);
          return;
        }
      }
    });
    if (!adjacency_ok.load()) {
      return Status::Corruption(
          path + ": invalid adjacency (out-of-range, self-loop, unsorted or "
                 "duplicate neighbor)");
    }
    stage.AddCounter("n", n);
    stage.AddCounter("adj", adj_size);
  }
  if (stats != nullptr) stats->vertices = n;

  *graph = Graph(std::move(offsets), std::move(adj));
  return Status::Ok();
}

}  // namespace hcd
