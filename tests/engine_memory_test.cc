// What a build allocates and what a built engine keeps on the heap. The
// builder forest is three flat arrays and Freeze groups elements by a
// counting scatter, so neither allocates per tree node; serving reads only
// the frozen index and its search tables, so a sealed engine keeps no
// builder forest either. The search-table build's transient oriented
// adjacency, the largest array of a build, is pinned byte for byte through
// its span's `oriented_bytes`. This binary replaces the global operator
// new and delete to count allocations; counts and byte sizes, not
// resident sizes, are what the assertions read, so they do not depend on
// where the allocator put anything.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include "common/trace.h"
#include "core/core_decomposition.h"
#include "engine/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "hcd/flat_index.h"
#include "hcd/phcd.h"
#include "hcd/vertex_rank.h"

namespace {

std::atomic<int64_t> g_live_allocations{0};
std::atomic<int64_t> g_total_allocations{0};

void* Counted(void* p) {
  if (p != nullptr) {
    g_live_allocations.fetch_add(1, std::memory_order_relaxed);
    g_total_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

void* CountedAllocOrNull(std::size_t size) {
  return Counted(std::malloc(size == 0 ? 1 : size));
}

void* CountedAlignedAllocOrNull(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return Counted(
      std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a));
}

void* CountedAlloc(std::size_t size) {
  void* p = CountedAllocOrNull(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAllocOrNull(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

// Every replaceable form, scalar and array, so that no allocation comes
// from a runtime's own operator new (a sanitizer runtime replaces them too)
// and then meets the free() below.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocOrNull(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAllocOrNull(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAllocOrNull(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAllocOrNull(size, align);
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace hcd {
namespace {

TEST(EngineMemoryTest, BuildAllocatesNothingPerTreeNode) {
  // RMAT at scale 14 leaves thousands of vertices isolated, and each of
  // them is a tree node of its own: more than 10k nodes in all.
  const Graph graph = RMatGraph500(14, 16000, 7);
  const CoreDecomposition cd = PkcCoreDecomposition(graph);
  const int64_t before = g_total_allocations.load();
  const FlatHcdIndex flat = Freeze(PhcdBuild(graph, cd));
  const int64_t made = g_total_allocations.load() - before;
  const TreeNodeId nodes = flat.NumNodes();
  ASSERT_GE(nodes, 10000u);
  // Algorithm 2 writes levels, parents and tid, and Freeze packs them into
  // a fixed set of sections: allocations grow with shells and threads, not
  // with nodes.
  EXPECT_LT(made, static_cast<int64_t>(nodes / 20))
      << made << " allocations for " << nodes << " tree nodes";
}

TEST(EngineMemoryTest, SnapshotHoldsNoAllocationPerTreeNode) {
  // RMAT at scale 14 leaves thousands of vertices isolated, and each of
  // them is a tree node of its own: more than 10k nodes in all.
  Graph graph = RMatGraph500(14, 16000, 7);
  const int64_t before = g_live_allocations.load();
  HcdEngine engine(std::move(graph));
  const QuerySnapshot snapshot = engine.Snapshot();
  const int64_t extra = g_live_allocations.load() - before;
  const TreeNodeId nodes = engine.Flat().NumNodes();
  ASSERT_GE(nodes, 10000u);
  // What stays is a fixed set of arrays (coreness, the flat index's
  // sections, the search tables, the sealed state), not one per node.
  EXPECT_LT(extra, static_cast<int64_t>(nodes / 20))
      << extra << " live allocations for " << nodes << " tree nodes";
}

// K_70 on vertices 0..69 and a ring of 624 fringe vertices, each joined
// to two clique vertices: the clique is the top shell and, alone, the
// dense suffix of the oriented adjacency, so a serve-ready build orients
// the fringe as CSR rows and the clique as bit rows.
Graph CliqueWithFringe() {
  constexpr VertexId kClique = 70;
  constexpr VertexId kRing = 8 * kClique + 64;
  GraphBuilder b;
  for (VertexId u = 0; u < kClique; ++u) {
    for (VertexId v = u + 1; v < kClique; ++v) b.AddEdge(u, v);
  }
  for (VertexId i = 0; i < kRing; ++i) {
    b.AddEdge(kClique + i, i % kClique);
    b.AddEdge(kClique + i, (i + 1 + i % (kClique - 1)) % kClique);
    b.AddEdge(kClique + i, kClique + (i + 1) % kRing);
  }
  return std::move(b).Build(kClique + kRing);
}

TEST(EngineMemoryTest, OrientedAdjacencyHas32BitRowOffsets) {
  const Graph graph = CliqueWithFringe();
  Tracer tracer;
  tracer.Install();
  {
    HcdEngine engine{Graph(graph)};
    engine.Snapshot();
  }
  tracer.Uninstall();
  std::map<std::string, uint64_t> args;
  for (const TraceSpanRecord& record : tracer.CollectSpans()) {
    if (record.span.name != "pbks.triangles") continue;
    for (const TraceArg& arg : record.span.args) args[arg.key] = arg.value;
  }
  ASSERT_EQ(args.count("oriented_bytes"), 1u);
  ASSERT_EQ(args.count("offset_bytes"), 1u);
  const uint64_t n = graph.NumVertices();
  const uint64_t dense = args["dense_vertices"];
  ASSERT_GT(dense, 0u);
  ASSERT_LT(dense, n);
  // Rows ranked at or above n - dense are bit rows of ceil(dense / 64)
  // words each, and an edge between two of them takes no CSR entry.
  const VertexRank vr =
      ComputeOrientationRank(graph, PkcCoreDecomposition(graph));
  const uint64_t dense_begin = n - dense;
  uint64_t sparse_entries = 0;
  for (const auto& [u, v] : graph.Edges()) {
    sparse_entries += vr.rank[u] < dense_begin || vr.rank[v] < dense_begin;
  }
  const uint64_t bit_words = dense * ((dense + 63) / 64);
  EXPECT_EQ(args["offset_bytes"], 4u);
  EXPECT_EQ(args["oriented_bytes"],
            4 * (n + 1) + 4 * sparse_entries + 8 * bit_words);
}

}  // namespace
}  // namespace hcd
