// Regression and property tests for the hardened, parallel ingest path:
// self-loop/duplicate normalization in GraphBuilder::Build, long-line and
// error handling in the text loader, corrupt-file fixtures for the binary
// loader, seeded mutation fuzz tests for the binary and text loaders, the
// lifetime of a mapped graph, full-device save failures, round-trips, and
// thread-count equivalence of the parallel loader/builder.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/mapped_file.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/ingest.h"
#include "graph/io.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f), content.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// Assembles a binary CSR file byte-for-byte (graph/binary_format.h) so
/// each corruption can be planted precisely.
std::string BinaryFile(uint64_t n, uint64_t adj_size,
                       const std::vector<uint64_t>& offsets,
                       const std::vector<uint32_t>& adj) {
  std::string out;
  const uint64_t magic = 0x48434447524a5031ULL;
  const uint32_t version = 1;
  auto append = [&out](const void* p, size_t size) {
    out.append(static_cast<const char*>(p), size);
  };
  append(&magic, 8);
  append(&version, 4);
  append(&n, 8);
  append(&adj_size, 8);
  append(offsets.data(), offsets.size() * 8);
  append(adj.data(), adj.size() * 4);
  return out;
}

/// True iff both graphs have byte-identical CSR arrays (offsets + adj),
/// the equivalence the parallel ingest path promises across thread counts.
::testing::AssertionResult SameCsr(const Graph& a, const Graph& b) {
  if (a.NumVertices() != b.NumVertices()) {
    return ::testing::AssertionFailure()
           << "n " << a.NumVertices() << " vs " << b.NumVertices();
  }
  for (VertexId v = 0; v <= a.NumVertices(); ++v) {
    if (v < a.NumVertices() && a.AdjOffset(v) != b.AdjOffset(v)) {
      return ::testing::AssertionFailure() << "offset mismatch at " << v;
    }
  }
  const auto& aa = a.AdjArray();
  const auto& ba = b.AdjArray();
  if (aa.size() != ba.size() ||
      !std::equal(aa.begin(), aa.end(), ba.begin())) {
    return ::testing::AssertionFailure() << "adjacency arrays differ";
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Satellite 1: self-loops must never survive Build, even via the bulk path.

TEST(Builder, BulkBuildDropsSelfLoopsAndCounts) {
  EdgeList edges = {{0, 1}, {2, 2}, {1, 0}, {2, 2}, {1, 2}};
  GraphBuilder b;
  b.AddEdgesUnfiltered(std::move(edges));
  BuildStats stats;
  Graph g = std::move(b).Build(3, &stats);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_FALSE(g.HasEdge(2, 2));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (VertexId u : g.Neighbors(v)) EXPECT_NE(u, v);
  }
  EXPECT_EQ(stats.self_loops_dropped, 2u);
  EXPECT_EQ(stats.duplicates_dropped, 1u);
}

TEST(Ingest, TextSelfLoopDroppedButVertexKept) {
  const std::string path = TempPath("ingest_selfloop.txt");
  WriteFile(path, "5 5\n1 2\n");
  Graph g;
  IngestStats stats;
  ASSERT_TRUE(IngestEdgeListText(path, {}, &g, &stats).ok());
  // Canonical numbering: raw ids {1,2,5} -> {0,1,2}. The self-loop's
  // vertex exists but has no edges.
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_EQ(g.Degree(2), 0u);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Satellite 2: lines longer than any fixed buffer must parse as ONE record.

TEST(Ingest, TextHandlesLongLines) {
  const std::string path = TempPath("ingest_longline.txt");
  std::string content = "# ";
  content.append(900, 'x');  // long comment line
  content += "\n7";
  content.append(1500, ' ');  // an edge line far beyond 512 bytes
  content += "9\n1 2\n";
  WriteFile(path, content);
  Graph g;
  ASSERT_TRUE(LoadEdgeListText(path, &g).ok());
  // Raw ids {1,2,7,9}: exactly two edges, no bogus records from line
  // splitting (the old fgets(512) loader split both long lines).
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(2, 3));  // 7-9
  EXPECT_TRUE(g.HasEdge(0, 1));  // 1-2
  std::remove(path.c_str());
}

TEST(Ingest, TextMalformedLineReportsLineNumber) {
  const std::string path = TempPath("ingest_badline.txt");
  WriteFile(path, "1 2\n\n# comment\nnot numbers\n");
  Graph g;
  Status s = LoadEdgeListText(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find(":4:"), std::string::npos) << s.message();
  std::remove(path.c_str());
}

TEST(Ingest, TextRejectsOverflowingIds) {
  const std::string path = TempPath("ingest_overflow.txt");
  WriteFile(path, "1 99999999999999999999999\n");
  Graph g;
  Status s = LoadEdgeListText(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("overflows"), std::string::npos) << s.message();
  std::remove(path.c_str());
}

TEST(Ingest, TextAcceptsCrLfAndTrailingColumns) {
  const std::string path = TempPath("ingest_crlf.txt");
  WriteFile(path, "1 2 0.75 extra\r\n3 4\r\n\r\n");
  Graph g;
  ASSERT_TRUE(LoadEdgeListText(path, &g).ok());
  EXPECT_EQ(g.NumVertices(), 4u);
  EXPECT_EQ(g.NumEdges(), 2u);
  std::remove(path.c_str());
}

TEST(Ingest, TextCanonicalOrderIsAscendingRawId) {
  const std::string path = TempPath("ingest_order.txt");
  WriteFile(path, "30 10\n20 30\n");
  Graph g;
  ASSERT_TRUE(LoadEdgeListText(path, &g).ok());
  // {10,20,30} -> {0,1,2} regardless of appearance order.
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 1));
  std::remove(path.c_str());
}

TEST(Ingest, StatsCounters) {
  const std::string path = TempPath("ingest_stats.txt");
  WriteFile(path, "# header\n1 2\n2 1\n3 3\n1 2\n");
  Graph g;
  IngestStats stats;
  ASSERT_TRUE(IngestEdgeListText(path, {}, &g, &stats).ok());
  EXPECT_EQ(stats.lines, 5u);
  EXPECT_EQ(stats.edges_parsed, 4u);
  EXPECT_EQ(stats.vertices, 3u);
  EXPECT_EQ(stats.self_loops_dropped, 1u);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tentpole equivalence: parallel ingest == serial ingest, byte for byte.

TEST(Ingest, TextLoadIdenticalAcrossThreadCounts) {
  Graph source = ErdosRenyiGnm(3000, 9000, 11);
  const std::string path = TempPath("ingest_equiv.txt");
  ASSERT_TRUE(SaveEdgeListText(source, path).ok());
  Graph serial;
  IngestOptions serial_options;
  serial_options.io_threads = 1;
  ASSERT_TRUE(IngestEdgeListText(path, serial_options, &serial).ok());
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE(threads);
    Graph parallel;
    IngestOptions options;
    options.io_threads = threads;
    ASSERT_TRUE(IngestEdgeListText(path, options, &parallel).ok());
    EXPECT_TRUE(SameCsr(serial, parallel));
  }
  std::remove(path.c_str());
}

TEST(Builder, BuildIdenticalAcrossThreadCounts) {
  // Random multi-edge soup with self-loops, duplicates and reversals.
  Rng rng(42);
  EdgeList edges;
  for (int i = 0; i < 50000; ++i) {
    edges.emplace_back(static_cast<VertexId>(rng.Uniform(2000)),
                       static_cast<VertexId>(rng.Uniform(2000)));
  }
  auto build = [&edges](int threads) {
    ThreadCountGuard guard(threads);
    GraphBuilder b;
    EdgeList copy = edges;
    b.AddEdgesUnfiltered(std::move(copy));
    return std::move(b).Build(2100);
  };
  Graph serial = build(1);
  for (int threads : {4, 8}) {
    SCOPED_TRACE(threads);
    Graph parallel = build(threads);
    EXPECT_TRUE(SameCsr(serial, parallel));
  }
}

// ---------------------------------------------------------------------------
// Round-trip property tests (isolated vertices, duplicates, reversals).

TEST(Ingest, BinaryRoundTripExactWithIsolatedVertices) {
  Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(trial);
    EdgeList edges;
    for (int i = 0; i < 800; ++i) {
      edges.emplace_back(static_cast<VertexId>(rng.Uniform(300)),
                         static_cast<VertexId>(rng.Uniform(300)));
    }
    // num_vertices 350 leaves a tail of isolated vertices.
    Graph g = GraphFromEdges(edges, 350);
    const std::string path = TempPath("ingest_bin_roundtrip.bin");
    ASSERT_TRUE(SaveBinary(g, path).ok());
    Graph loaded;
    ASSERT_TRUE(LoadBinary(path, &loaded).ok());
    EXPECT_TRUE(SameCsr(g, loaded));
    std::remove(path.c_str());
  }
}

TEST(Ingest, TextRoundTripIsIdempotent) {
  Rng rng(9);
  EdgeList edges;
  for (int i = 0; i < 1200; ++i) {
    // Sparse non-contiguous raw ids, plus duplicates and reversals.
    VertexId u = static_cast<VertexId>(rng.Uniform(400) * 7);
    VertexId v = static_cast<VertexId>(rng.Uniform(400) * 7);
    edges.emplace_back(u, v);
    if (i % 5 == 0) edges.emplace_back(v, u);
  }
  Graph g0 = GraphFromEdges(edges);
  const std::string path = TempPath("ingest_txt_roundtrip.txt");
  ASSERT_TRUE(SaveEdgeListText(g0, path).ok());
  Graph g1;
  ASSERT_TRUE(LoadEdgeListText(path, &g1).ok());
  // Reload preserves structure (degree multiset and edge count)...
  EXPECT_EQ(g1.NumEdges(), g0.NumEdges());
  std::multiset<VertexId> d0;
  std::multiset<VertexId> d1;
  for (VertexId v = 0; v < g0.NumVertices(); ++v) {
    if (g0.Degree(v) > 0) d0.insert(g0.Degree(v));
  }
  for (VertexId v = 0; v < g1.NumVertices(); ++v) {
    if (g1.Degree(v) > 0) d1.insert(g1.Degree(v));
  }
  EXPECT_EQ(d0, d1);
  // ...and once ids are canonical, a second round-trip is exact.
  ASSERT_TRUE(SaveEdgeListText(g1, path).ok());
  Graph g2;
  ASSERT_TRUE(LoadEdgeListText(path, &g2).ok());
  EXPECT_TRUE(SameCsr(g1, g2));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Satellite 3: corrupt binary fixtures fail with Corruption, never UB.

TEST(IngestBinaryFixture, TruncatedHeader) {
  const std::string path = TempPath("corrupt_truncated.bin");
  WriteFile(path, std::string("HCDGRJP1\x01", 10));
  Graph g;
  EXPECT_EQ(LoadBinary(path, &g).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, AbsurdVertexCountRejectedBeforeAllocation) {
  // n = 10^15 must be rejected from the header alone (32-bit id space).
  const std::string path = TempPath("corrupt_absurd_n.bin");
  WriteFile(path, BinaryFile(1'000'000'000'000'000ULL, 0, {}, {}));
  Graph g;
  Status s = LoadBinary(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, OversizedHeaderVsFileSizeRejected) {
  // n = 4e9 fits 32 bits but implies a 32 GB offsets array; the file-size
  // cross-check must refuse before any allocation happens.
  const std::string path = TempPath("corrupt_oversized.bin");
  WriteFile(path, BinaryFile(4'000'000'000ULL, 2, {0, 1, 2}, {1, 0}));
  Graph g;
  Status s = LoadBinary(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("does not match"), std::string::npos)
      << s.message();
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, NonMonotoneOffsets) {
  const std::string path = TempPath("corrupt_nonmonotone.bin");
  WriteFile(path, BinaryFile(2, 2, {0, 3, 2}, {1, 0}));
  Graph g;
  Status s = LoadBinary(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("non-monotone"), std::string::npos)
      << s.message();
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, OffsetsNotStartingAtZero) {
  const std::string path = TempPath("corrupt_front.bin");
  WriteFile(path, BinaryFile(2, 2, {1, 1, 2}, {1, 0}));
  Graph g;
  EXPECT_EQ(LoadBinary(path, &g).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, NeighborIdOutOfRange) {
  const std::string path = TempPath("corrupt_oob_neighbor.bin");
  WriteFile(path, BinaryFile(2, 2, {0, 1, 2}, {5, 0}));
  Graph g;
  Status s = LoadBinary(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("invalid adjacency"), std::string::npos)
      << s.message();
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, SelfLoopInAdjacency) {
  const std::string path = TempPath("corrupt_selfloop.bin");
  WriteFile(path, BinaryFile(2, 2, {0, 1, 2}, {0, 1}));
  Graph g;
  EXPECT_EQ(LoadBinary(path, &g).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, UnsortedAdjacency) {
  const std::string path = TempPath("corrupt_unsorted.bin");
  WriteFile(path, BinaryFile(3, 4, {0, 2, 3, 4}, {2, 1, 0, 0}));
  Graph g;
  EXPECT_EQ(LoadBinary(path, &g).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, OddAdjacencySize) {
  const std::string path = TempPath("corrupt_odd.bin");
  WriteFile(path, BinaryFile(1, 1, {0, 1}, {0}));
  Graph g;
  Status s = LoadBinary(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("odd adjacency"), std::string::npos)
      << s.message();
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, TrailingGarbage) {
  Graph g = CompleteGraph(4);
  const std::string path = TempPath("corrupt_trailing.bin");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite("XXXX", 1, 4, f);
  std::fclose(f);
  Graph loaded;
  EXPECT_EQ(LoadBinary(path, &loaded).code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(IngestBinaryFixture, AsymmetricAdjacency) {
  // Every slice is sorted, in range and self-loop free, but 2 lists 0 while
  // 0 does not list 2. A truss build over such a graph would write its
  // reverse-edge cursor past the end of the adjacency.
  const std::string path = TempPath("corrupt_asymmetric.bin");
  WriteFile(path, BinaryFile(3, 4, {0, 1, 3, 4}, {1, 0, 2, 0}));
  Graph g;
  Status s = LoadBinary(path, &g);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("asymmetric"), std::string::npos)
      << s.message();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the binary loader: every mutated file either
// fails with Corruption or loads a graph that meets every graph.h
// invariant. Deterministic (fixed seed, fixed budget), so the ASan job
// that runs this suite sees the same inputs on every run.

/// Every graph.h invariant, checked by a plain walk that shares no code
/// with the loader: contiguous slices covering an even adjacency, ids in
/// range, no self-loops, strictly ascending slices and symmetry.
::testing::AssertionResult MeetsGraphInvariants(const Graph& g) {
  const VertexId n = g.NumVertices();
  EdgeIndex end = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (g.AdjOffset(v) != end) {
      return ::testing::AssertionFailure() << "slice of " << v << " moved";
    }
    const auto nbrs = g.Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u >= n || u == v || (i > 0 && nbrs[i - 1] >= u)) {
        return ::testing::AssertionFailure() << "bad neighbour of " << v;
      }
      if (!g.HasEdge(u, v)) {
        return ::testing::AssertionFailure()
               << "edge " << v << "-" << u << " stored from one end";
      }
    }
    end += nbrs.size();
  }
  if (end != g.AdjArray().size() || end % 2 != 0 ||
      g.NumEdges() * 2 != end) {
    return ::testing::AssertionFailure() << "adjacency size " << end;
  }
  return ::testing::AssertionSuccess();
}

/// One mutation of a SaveBinary image: a bit flip, a truncation, an edited
/// n or adj_size field, or neighbour ids swapped or duplicated.
std::string Mutate(const std::string& image, Rng& rng) {
  constexpr size_t kNField = 12;
  constexpr size_t kAdjSizeField = 20;
  std::string out = image;
  const auto put_u64 = [&out](size_t at, uint64_t value) {
    std::memcpy(out.data() + at, &value, sizeof(value));
  };
  const auto get_u64 = [&out](size_t at) {
    uint64_t value;
    std::memcpy(&value, out.data() + at, sizeof(value));
    return value;
  };
  uint64_t n = get_u64(kNField);
  const size_t adj_begin = 28 + (n + 1) * 8;
  const size_t adj_entries = (out.size() - adj_begin) / 4;
  const uint64_t kind = rng.Uniform(6);
  switch (kind) {
    case 0: {  // one to three bit flips anywhere
      for (uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        out[rng.Uniform(out.size())] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.Uniform(out.size()));
      break;
    case 2: {  // n edited by a small step, or to any value
      const uint64_t step = 1 + rng.Uniform(3);
      n = rng.Uniform(4) == 0 ? rng.Next64()
          : rng.Uniform(2) == 0 ? n + step
                                : n - step;
      put_u64(kNField, n);
      break;
    }
    case 3: {  // adj_size edited the same way
      const uint64_t adj_size = get_u64(kAdjSizeField);
      const uint64_t step = 1 + rng.Uniform(4);
      put_u64(kAdjSizeField, rng.Uniform(4) == 0 ? rng.Next64()
                             : rng.Uniform(2) == 0 ? adj_size + step
                                                   : adj_size - step);
      break;
    }
    case 4:    // two neighbour ids swapped, often next to each other
    case 5: {  // one neighbour id copied over another
      if (adj_entries < 2) break;
      const size_t i = rng.Uniform(adj_entries - 1);
      const size_t j = rng.Uniform(2) == 0 ? i + 1 : rng.Uniform(adj_entries);
      char* a = out.data() + adj_begin + 4 * i;
      char* b = out.data() + adj_begin + 4 * j;
      if (kind == 4) {
        std::swap_ranges(a, a + 4, b);
      } else {
        std::memmove(b, a, 4);
      }
      break;
    }
  }
  return out;
}

TEST(IngestBinaryFuzz, MutatedFilesFailCleanlyOrLoadValidGraphs) {
  constexpr int kMutationsPerGraph = 300;
  const std::string path = TempPath("ingest_fuzz.bin");
  Rng rng(20261019);
  int rejected = 0;
  int loaded = 0;
  for (const testing::GraphCase& c : testing::StandardGraphSuite()) {
    if (c.graph.NumEdges() == 0 || c.graph.NumEdges() > 3000) continue;
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(SaveBinary(c.graph, path).ok());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string image(28 + (c.graph.NumVertices() + 1) * 8 +
                          c.graph.AdjArray().size() * 4,
                      '\0');
    ASSERT_EQ(std::fread(image.data(), 1, image.size(), f), image.size());
    std::fclose(f);
    for (int i = 0; i < kMutationsPerGraph; ++i) {
      const std::string mutated = Mutate(image, rng);
      WriteFile(path, mutated);
      Graph g;
      const Status s = LoadBinary(path, &g);
      if (s.ok()) {
        ++loaded;
        ASSERT_TRUE(MeetsGraphInvariants(g)) << "mutation " << i;
      } else {
        ++rejected;
        ASSERT_EQ(s.code(), StatusCode::kCorruption)
            << "mutation " << i << ": " << s.ToString();
      }
    }
  }
  // The mutator does break files, and what it leaves intact still loads.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing of the text loader, on the same terms: every
// mutated edge list either fails with Corruption or loads a graph that
// meets every graph.h invariant. The images are SaveEdgeListText's own
// output, and the loader runs at 4 threads, so an image of a few thousand
// edges is parsed as several newline-aligned chunks.

/// The decimal ids a mutation may write over an id: the 32-bit and 64-bit
/// limits and one past each, and a number no 64-bit integer holds.
constexpr const char* kExtremeIds[] = {
    "0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999"};

/// One mutation of a SaveEdgeListText image: bit flips, a truncation,
/// inserted or erased bytes, an id rewritten to an extreme value, or one
/// line copied to another place.
std::string MutateText(const std::string& image, Rng& rng) {
  // Bytes the parser gives a meaning to, and a few it does not.
  constexpr char kAlphabet[] = "0123456789 \t\r\n#%-+xe";
  std::string out = image;
  const auto random_line = [&](size_t* begin, size_t* end) {
    size_t at = rng.Uniform(out.size());
    *begin = out.rfind('\n', at);
    *begin = *begin == std::string::npos ? 0 : *begin + 1;
    *end = out.find('\n', at);
    *end = *end == std::string::npos ? out.size() : *end + 1;
  };
  if (out.empty()) return out;
  switch (rng.Uniform(6)) {
    case 0:  // one to three bit flips anywhere
      for (uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        out[rng.Uniform(out.size())] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      break;
    case 1:  // truncation
      out.resize(rng.Uniform(out.size()));
      break;
    case 2:  // one to four bytes inserted
      for (uint64_t k = 1 + rng.Uniform(4); k > 0; --k) {
        out.insert(out.begin() + static_cast<ptrdiff_t>(
                                     rng.Uniform(out.size() + 1)),
                   kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)]);
      }
      break;
    case 3:  // up to 16 bytes erased
      out.erase(rng.Uniform(out.size()), 1 + rng.Uniform(16));
      break;
    case 4: {  // the id under a random byte rewritten
      size_t at = rng.Uniform(out.size());
      if (out[at] < '0' || out[at] > '9') break;
      size_t begin = at;
      while (begin > 0 && out[begin - 1] >= '0' && out[begin - 1] <= '9') {
        --begin;
      }
      while (at < out.size() && out[at] >= '0' && out[at] <= '9') ++at;
      out.replace(begin, at - begin,
                  kExtremeIds[rng.Uniform(std::size(kExtremeIds))]);
      break;
    }
    case 5: {  // a line copied over to before another one
      size_t begin = 0;
      size_t end = 0;
      random_line(&begin, &end);
      const std::string line = out.substr(begin, end - begin);
      random_line(&begin, &end);
      out.insert(begin, line);
      break;
    }
  }
  return out;
}

TEST(IngestTextFuzz, MutatedEdgeListsFailCleanlyOrLoadValidGraphs) {
  constexpr int kMutationsPerGraph = 300;
  const std::string path = TempPath("ingest_fuzz.txt");
  Rng rng(20261020);
  IngestOptions options;
  options.io_threads = 4;
  int rejected = 0;
  int loaded = 0;
  for (const testing::GraphCase& c : testing::StandardGraphSuite()) {
    if (c.graph.NumEdges() == 0 || c.graph.NumEdges() > 3000) continue;
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(SaveEdgeListText(c.graph, path).ok());
    std::string image;
    {
      std::FILE* f = std::fopen(path.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      char buf[4096];
      for (size_t got; (got = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
        image.append(buf, got);
      }
      std::fclose(f);
    }
    for (int i = 0; i < kMutationsPerGraph; ++i) {
      WriteFile(path, MutateText(image, rng));
      Graph g;
      IngestStats stats;
      const Status s = IngestEdgeListText(path, options, &g, &stats);
      if (s.ok()) {
        ++loaded;
        ASSERT_TRUE(MeetsGraphInvariants(g)) << "mutation " << i;
        ASSERT_EQ(g.NumVertices(), stats.vertices) << "mutation " << i;
        ASSERT_LE(g.NumEdges(), stats.edges_parsed) << "mutation " << i;
      } else {
        ++rejected;
        ASSERT_EQ(s.code(), StatusCode::kCorruption)
            << "mutation " << i << ": " << s.ToString();
      }
    }
  }
  // The mutator does break files, and what it leaves intact still loads.
  EXPECT_GT(rejected, 500);
  EXPECT_GT(loaded, 500);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// A loaded graph aliases its file's mapping, which outlives the path.

TEST(IngestBinaryMapped, AdjacencyIsMappedAndCountedWhileTheGraphLives) {
  testing::StageProbe probe;
  MetricsRegistry& registry = probe.registry();
  const Graph source = ErdosRenyiGnm(500, 2000, 17);
  const std::string path = TempPath("ingest_mapped_gauge.bin");
  ASSERT_TRUE(SaveBinary(source, path).ok());
  const uint64_t file_size =
      28 + (source.NumVertices() + 1) * 8 + source.AdjArray().size() * 4;
  const uint64_t before = MappedFile::TotalMappedBytes();
  {
    Graph g;
    const Status s = LoadBinary(path, &g);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(g.AdjArray().mapped());
    EXPECT_EQ(MappedFile::TotalMappedBytes(), before + file_size);
    EXPECT_EQ(registry.GetGauge("hcd_snapshot_mapped_bytes")->Value(),
              static_cast<double>(before + file_size));
    EXPECT_EQ(probe.Counter("load.read", "mapped_bytes"), file_size);
    EXPECT_TRUE(SameCsr(source, g));
  }
  EXPECT_EQ(MappedFile::TotalMappedBytes(), before);
  EXPECT_EQ(registry.GetGauge("hcd_snapshot_mapped_bytes")->Value(),
            static_cast<double>(before));
  probe.Stop();
  std::remove(path.c_str());
}

TEST(IngestBinaryMapped, LoadedGraphOutlivesItsPath) {
  const Graph source = BarabasiAlbert(400, 4, 23);
  const std::string path = TempPath("ingest_mapped_unlink.bin");
  ASSERT_TRUE(SaveBinary(source, path).ok());
  Graph g;
  ASSERT_TRUE(LoadBinary(path, &g).ok());
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_EQ(g.Edges(), source.Edges());
}

TEST(IngestBinaryMapped, LoadedGraphSurvivesASmallerSaveOverItsPath) {
  // SaveBinary replaces the file rather than truncating it: the loaded
  // graph keeps the old inode, none of whose pages lies past the end of
  // the shorter new file (touching one would raise SIGBUS).
  const Graph big = ErdosRenyiGnm(3000, 15000, 29);
  const Graph small = PathGraph(6);
  const std::string path = TempPath("ingest_mapped_resave.bin");
  ASSERT_TRUE(SaveBinary(big, path).ok());
  Graph g;
  ASSERT_TRUE(LoadBinary(path, &g).ok());
  ASSERT_TRUE(SaveBinary(small, path).ok());
  EXPECT_EQ(g.Edges(), big.Edges());
  Graph reloaded;
  ASSERT_TRUE(LoadBinary(path, &reloaded).ok());
  EXPECT_EQ(reloaded.Edges(), small.Edges());
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  EXPECT_NE(::access(tmp.c_str(), F_OK), 0) << "temporary file left behind";
  std::remove(path.c_str());
}

TEST(IngestBinaryMapped, CopyOfAMappedGraphOutlivesTheOriginal) {
  const Graph source = RMatGraph500(9, 3000, 31);
  const std::string path = TempPath("ingest_mapped_copy.bin");
  ASSERT_TRUE(SaveBinary(source, path).ok());
  const uint64_t before = MappedFile::TotalMappedBytes();
  Graph copy;
  {
    auto original = std::make_unique<Graph>();
    ASSERT_TRUE(LoadBinary(path, original.get()).ok());
    copy = *original;
    // The copy is a view of the same mapping, not a second one.
    EXPECT_EQ(copy.AdjArray().data(), original->AdjArray().data());
  }
  ASSERT_EQ(std::remove(path.c_str()), 0);
  EXPECT_TRUE(copy.AdjArray().mapped());
  EXPECT_GT(MappedFile::TotalMappedBytes(), before);
  EXPECT_TRUE(SameCsr(source, copy));
  copy = Graph();
  EXPECT_EQ(MappedFile::TotalMappedBytes(), before);
}

// ---------------------------------------------------------------------------
// Satellite 4: save must surface write failures, not return Ok over a
// truncated file. /dev/full fails every write/flush with ENOSPC.

TEST(Ingest, SaveSurfacesFullDeviceAsIoError) {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full not available";
  std::fclose(probe);
  Graph g = CompleteGraph(32);
  Status s = SaveBinary(g, "/dev/full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  s = SaveEdgeListText(g, "/dev/full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Telemetry plumbing: engine loads report the ingest sub-stages.

TEST(Ingest, EngineLoadRecordsIngestStages) {
  Graph g = ErdosRenyiGnm(200, 600, 3);
  const std::string text_path = TempPath("ingest_engine.txt");
  const std::string bin_path = TempPath("ingest_engine.bin");
  ASSERT_TRUE(SaveEdgeListText(g, text_path).ok());
  ASSERT_TRUE(SaveBinary(g, bin_path).ok());

  std::unique_ptr<HcdEngine> engine;
  {
    testing::StageProbe probe;
    EXPECT_TRUE(HcdEngine::Load(text_path, {.threads = 2}, &engine).ok());
    probe.Stop();
    for (const char* stage :
         {"load.read", "load.parse", "load.remap", "load.build", "load"}) {
      EXPECT_EQ(probe.Runs(stage), 1u) << stage;
    }
  }
  testing::StageProbe probe;
  const Status s = HcdEngine::Load(bin_path, {}, &engine);
  probe.Stop();
  ASSERT_TRUE(s.ok());
  for (const char* stage : {"load.read", "load.validate", "load"}) {
    EXPECT_EQ(probe.Runs(stage), 1u) << stage;
  }
  EXPECT_EQ(engine->graph().NumEdges(), g.NumEdges());
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

}  // namespace
}  // namespace hcd
