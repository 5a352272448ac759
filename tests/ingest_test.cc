// Regression and property tests for the hardened, parallel ingest path:
// self-loop/duplicate normalization in GraphBuilder::Build, long-line and
// error handling in the text loader, corrupt-file fixtures for the binary
// loader, full-device save failures, round-trips, and thread-count
// equivalence of the parallel loader/builder.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/telemetry.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/ingest.h"
#include "graph/io.h"
#include "parallel/omp_utils.h"

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
  auto aa = a.AdjArray();
  auto ba = b.AdjArray();
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

  StageTelemetry telemetry;
  telemetry.Install();
  std::unique_ptr<HcdEngine> engine;
  EXPECT_TRUE(HcdEngine::Load(text_path, {.io_threads = 2}, &engine).ok());
  for (const char* stage :
       {"load.read", "load.parse", "load.remap", "load.build", "load"}) {
    EXPECT_EQ(telemetry.CountStage(stage), 1u) << stage;
  }

  telemetry.Clear();
  const Status s = HcdEngine::Load(bin_path, {}, &engine);
  telemetry.Uninstall();
  ASSERT_TRUE(s.ok());
  for (const char* stage : {"load.read", "load.validate", "load"}) {
    EXPECT_EQ(telemetry.CountStage(stage), 1u) << stage;
  }
  EXPECT_EQ(engine->graph().NumEdges(), g.NumEdges());
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

}  // namespace
}  // namespace hcd
