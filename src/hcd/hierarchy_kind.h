#ifndef HCD_HCD_HIERARCHY_KIND_H_
#define HCD_HCD_HIERARCHY_KIND_H_

#include <cstdint>
#include <string_view>

namespace hcd {

/// The element domain a frozen hierarchy decomposes (Section VI "other
/// cohesive subgraph models"): the PHCD paradigm applies unchanged whether
/// the decomposed elements are vertices (k-core), edges (k-truss) or
/// triangles ((3,4)-nucleus) — only the meaning of an element id and its
/// materialization back to graph vertices differ. The serve stack
/// (FlatHcdIndex, snapshots, search indexes, the socket server and
/// serve-bench's requests) is parameterized by this kind; the
/// construction side stays in src/hcd, src/truss and src/nucleus.
///
/// The numeric values are part of the v3 snapshot format — never reorder.
enum class HierarchyKind : uint32_t {
  kCore = 0,     ///< elements are graph vertices
  kTruss = 1,    ///< elements are undirected edges (EdgeIdx)
  kNucleus = 2,  ///< elements are triangles (TriIdx)
};

/// True iff `raw` is one of the enumerators above; the funnel for snapshot
/// bytes and wire bytes before a static_cast to HierarchyKind.
constexpr bool IsValidHierarchyKind(uint32_t raw) {
  return raw <= static_cast<uint32_t>(HierarchyKind::kNucleus);
}

/// Member vertices per element: 1 (a vertex), 2 (an edge's endpoints) or
/// 3 (a triangle's corners). This is the stride of the element_members
/// array of a flat index.
constexpr uint32_t ElementArity(HierarchyKind kind) {
  switch (kind) {
    case HierarchyKind::kCore: return 1;
    case HierarchyKind::kTruss: return 2;
    case HierarchyKind::kNucleus: return 3;
  }
  return 0;
}

/// "core", "truss" or "nucleus".
constexpr const char* HierarchyKindName(HierarchyKind kind) {
  switch (kind) {
    case HierarchyKind::kCore: return "core";
    case HierarchyKind::kTruss: return "truss";
    case HierarchyKind::kNucleus: return "nucleus";
  }
  return "?";
}

/// Parses a kind name; returns false (leaving `*kind` untouched) on
/// anything but "core" / "truss" / "nucleus".
inline bool ParseHierarchyKind(std::string_view name, HierarchyKind* kind) {
  if (name == "core") {
    *kind = HierarchyKind::kCore;
  } else if (name == "truss") {
    *kind = HierarchyKind::kTruss;
  } else if (name == "nucleus") {
    *kind = HierarchyKind::kNucleus;
  } else {
    return false;
  }
  return true;
}

}  // namespace hcd

#endif  // HCD_HCD_HIERARCHY_KIND_H_
