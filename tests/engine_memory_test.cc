// What a built engine keeps on the heap. Serving reads only the frozen
// index and its search tables, so once Snapshot() has sealed them an engine
// must not also hold the builder forest, which has one vertex vector per
// tree node. This binary replaces the global operator new and delete to
// count live allocations; the count, not the resident size, is what the
// assertion reads, so it does not depend on where the allocator put
// anything.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "engine/engine.h"
#include "graph/generators.h"

namespace {

std::atomic<int64_t> g_live_allocations{0};

void* CountedAllocOrNull(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void* CountedAlignedAllocOrNull(std::size_t size, std::align_val_t align) {
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
  if (p != nullptr) g_live_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
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

TEST(EngineMemoryTest, SnapshotHoldsNoAllocationPerTreeNode) {
  // RMAT at scale 14 leaves thousands of vertices isolated, and each of
  // them is a tree node of its own: more than 10k nodes in all.
  Graph graph = RMatGraph500(14, 16000, 7);
  const int64_t before = g_live_allocations.load();
  HcdEngine engine(std::move(graph), {.algo = EngineAlgo::kPhcd});
  const QuerySnapshot snapshot = engine.Snapshot();
  const int64_t extra = g_live_allocations.load() - before;
  const TreeNodeId nodes = engine.Flat().NumNodes();
  ASSERT_GE(nodes, 10000u);
  // What stays is a fixed set of arrays (coreness, the flat index's
  // sections, the search tables, the sealed state), not one per node.
  EXPECT_LT(extra, static_cast<int64_t>(nodes / 20))
      << extra << " live allocations for " << nodes << " tree nodes";
}

}  // namespace
}  // namespace hcd
