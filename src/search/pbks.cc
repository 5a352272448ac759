#include "search/pbks.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "parallel/omp_utils.h"

namespace hcd {
namespace {

/// Rows whose n(S) is each node's own vertex count, the other fields 0:
/// the unaccumulated start of both primary-value passes (a tree node's own
/// vertices are one run of the preorder vertex array).
std::vector<PrimaryValues> OwnVertexRows(const FlatHcdIndex& index) {
  const std::span<const uint32_t> offsets = index.data().vertex_offsets;
  std::vector<PrimaryValues> rows(index.NumNodes());
  for (size_t t = 0; t < rows.size(); ++t) {
    rows[t].n_s = offsets[t + 1] - offsets[t];
  }
  return rows;
}

inline int64_t Choose2(int64_t x) { return x * (x - 1) / 2; }

/// Unaccumulated n(S): the length of each slot's run, read off its offsets.
std::vector<int64_t> RunLengths(std::span<const uint32_t> offsets) {
  std::vector<int64_t> out(offsets.size() - 1);
  for (size_t s = 0; s < out.size(); ++s) out[s] = offsets[s + 1] - offsets[s];
  return out;
}

/// The graph relabelled by rank, with every edge oriented from its
/// lower-rank to its higher-rank endpoint: row r is the vertex of rank r,
/// and its out-neighbours N+ are rank positions, all above r. Rows below
/// `dense_begin` are CSR rows (Out), their dense members last. Rows at or
/// above it, the dense suffix, are bit rows over the ranks
/// [dense_begin, n), `words` 64-bit words each (Row); their CSR rows are
/// empty. An out-neighbour of a dense row ranks above it, so it is dense
/// too. Each edge is kept once, so `Offset` only has to hold m: WithOffsets
/// picks uint32_t below 2^32 edges and uint64_t above.
template <typename Offset>
struct OrientedAdjacency {
  std::vector<Offset> offset;     // n + 1
  std::vector<VertexId> target;   // the sparse rows' entries
  VertexId dense_begin = 0;
  size_t words = 0;
  std::vector<uint64_t> bits;     // (n - dense_begin) * words
  uint64_t max_out_degree = 0;    // over every row, sparse or dense

  std::span<const VertexId> Out(VertexId r) const {
    return {target.data() + offset[r],
            static_cast<size_t>(offset[r + 1] - offset[r])};
  }
  const uint64_t* Row(VertexId r) const {
    return bits.data() + static_cast<size_t>(r - dense_begin) * words;
  }
  /// Offsets, targets and bit rows.
  uint64_t Bytes() const {
    return offset.size() * sizeof(Offset) + target.size() * sizeof(VertexId) +
           bits.size() * sizeof(uint64_t);
  }
};

/// Calls `f` with a value of the narrowest offset type that indexes the
/// oriented copy of a graph of `edges` edges (each edge is one entry).
template <typename F>
decltype(auto) WithOffsets(uint64_t edges, F&& f) {
  if (edges <= std::numeric_limits<uint32_t>::max()) return f(uint32_t{0});
  return f(uint64_t{0});
}

/// Start of the dense suffix: the largest suffix of whole shells, ranks
/// [s, n), whose T = n - s rows and E out-entries satisfy T^2 <= 32 E, so
/// that its T x T bit matrix is no larger than the 32-bit entries it
/// replaces. n when no suffix qualifies. `offset` holds the prefix sums of
/// the out-degrees; shells are ranges of any coreness-major rank.
template <typename Offset>
VertexId DenseBegin(const VertexRank& vr, std::span<const Offset> offset) {
  const VertexId n = static_cast<VertexId>(offset.size() - 1);
  // shell_start ascends, so the first qualifying shell starts the largest.
  for (size_t k = 0; k + 1 < vr.shell_start.size(); ++k) {
    const VertexId s = vr.shell_start[k];
    const uint64_t rows = n - s;
    if (rows * rows <= 32 * uint64_t{offset[n] - offset[s]}) return s;
  }
  return n;
}

/// Each row's out-degree |N+(r)| at entry r + 1 of an (n + 1)-entry array,
/// entry 0 zero: the input OrientByRank takes. One parallel pass over the
/// adjacency; the search-table build gets the same array from its
/// neighbourhood scan instead.
template <typename Offset>
std::vector<Offset> CountOutDegrees(const Graph& graph, const VertexRank& vr) {
  const VertexId n = graph.NumVertices();
  std::vector<Offset> degrees(static_cast<size_t>(n) + 1, 0);
#pragma omp parallel for schedule(guided, 256)
  for (int64_t ri = 0; ri < static_cast<int64_t>(n); ++ri) {
    const VertexId r = static_cast<VertexId>(ri);
    Offset d = 0;
    for (VertexId u : graph.Neighbors(vr.sorted[r])) d += vr.rank[u] > r;
    degrees[r + 1] = d;
  }
  return degrees;
}

/// Builds the rank-oriented adjacency from each row's out-degree
/// (`offset[r + 1]`, CountOutDegrees' layout): prefix-sums the degrees in
/// place, picks the dense suffix, then allocates and fills, in one parallel
/// pass, the CSR rows below it and the bit rows in it.
template <typename Offset>
OrientedAdjacency<Offset> OrientByRank(const Graph& graph,
                                       const VertexRank& vr,
                                       std::vector<Offset> offset) {
  const VertexId n = graph.NumVertices();
  HCD_CHECK_EQ(offset.size(), static_cast<size_t>(n) + 1);
  OrientedAdjacency<Offset> out;
  for (VertexId r = 0; r < n; ++r) {
    out.max_out_degree = std::max<uint64_t>(out.max_out_degree, offset[r + 1]);
    offset[r + 1] += offset[r];
  }
  const VertexId dense = DenseBegin<Offset>(vr, offset);
  out.dense_begin = dense;
  std::fill(offset.begin() + dense + 1, offset.end(), offset[dense]);
  out.offset = std::move(offset);
  out.target.resize(out.offset[dense]);
  const size_t dense_rows = n - dense;
  out.words = (dense_rows + 63) / 64;
  out.bits.assign(dense_rows * out.words, 0);
#pragma omp parallel for schedule(guided, 256)
  for (int64_t ri = 0; ri < static_cast<int64_t>(n); ++ri) {
    const VertexId r = static_cast<VertexId>(ri);
    if (r < dense) {
      // Sparse targets fill the row from the front, dense ones from the
      // back, so a row's dense members are its tail.
      Offset front = out.offset[r];
      Offset back = out.offset[r + 1];
      for (VertexId u : graph.Neighbors(vr.sorted[r])) {
        const VertexId q = vr.rank[u];
        if (q > r) out.target[q < dense ? front++ : --back] = q;
      }
    } else {
      uint64_t* row = out.bits.data() + (r - dense) * out.words;
      for (VertexId u : graph.Neighbors(vr.sorted[r])) {
        if (vr.rank[u] > r) {
          const VertexId j = vr.rank[u] - dense;
          row[j >> 6] |= uint64_t{1} << (j & 63);
        }
      }
    }
  }
  return out;
}

// Hardware popcount for the word-wide kernel: CMake sets no -march, so
// std::popcount would otherwise call libgcc. GCC clones the outlined
// OpenMP body along with the function and picks a clone at load time.
// Clang also defines __GNUC__ but does not clone the outlined body.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define HCD_POPCNT_CLONES __attribute__((target_clones("popcnt", "default")))
#else
#define HCD_POPCNT_CLONES
#endif

struct TriangleWork {
  uint64_t wedge_checks = 0;     // byte-mark checks
  uint64_t dense_word_ands = 0;  // 64-bit ANDs against bit rows
};

/// Counts every triangle once, at its lowest-rank corner r, and adds r's
/// count to `triangles[slot[sorted[r]]]`.
/// - A dense row r ANDs its own bit row with the bit row of each of its
///   out-neighbours u, from u's word (u's bits all lie above u) up to r's
///   last non-zero word.
/// - A sparse row r marks N+(r) in a byte array and its dense members,
///   the row's tail, in a word mask. Each sparse out-neighbour has its CSR
///   row checked against the byte marks, each dense one is ANDed with the
///   mask. With no dense suffix the tail is empty, and the row takes the
///   plain mark scan with no per-entry test.
template <typename Offset>
HCD_POPCNT_CLONES TriangleWork
CountTriangles(const OrientedAdjacency<Offset>& out,
               std::span<const VertexId> sorted, std::span<const uint32_t> slot,
               std::vector<int64_t>* triangles) {
  const VertexId n = static_cast<VertexId>(sorted.size());
  const VertexId dense = out.dense_begin;
  const size_t words = out.words;
  uint64_t wedge_checks = 0;
  uint64_t dense_word_ands = 0;
#pragma omp parallel reduction(+ : wedge_checks, dense_word_ands)
  {
    std::vector<uint8_t> mark(n, 0);
    std::vector<uint64_t> mask(words, 0);
#pragma omp for schedule(dynamic, 16)
    for (int64_t ri = 0; ri < static_cast<int64_t>(n); ++ri) {
      const VertexId r = static_cast<VertexId>(ri);
      int64_t count = 0;
      if (r >= dense) {
        const uint64_t* row = out.Row(r);
        size_t end = words;
        while (end > 0 && row[end - 1] == 0) --end;
        for (size_t w = (r - dense) >> 6; w < end; ++w) {
          for (uint64_t b = row[w]; b != 0; b &= b - 1) {
            const uint64_t* row_u =
                out.Row(dense + static_cast<VertexId>(
                                    w * 64 + std::countr_zero(b)));
            for (size_t x = w; x < end; ++x) {
              count += std::popcount(row[x] & row_u[x]);
            }
            dense_word_ands += end - w;
          }
        }
      } else {
        const auto nv = out.Out(r);
        size_t split = nv.size();
        while (split > 0 && nv[split - 1] >= dense) --split;
        const auto nv_dense = nv.subspan(split);
        for (VertexId u : nv) mark[u] = 1;
        size_t end = 0;
        for (VertexId u : nv_dense) {
          const VertexId j = u - dense;
          mask[j >> 6] |= uint64_t{1} << (j & 63);
          end = std::max<size_t>(end, (j >> 6) + 1);
        }
        for (VertexId u : nv.first(split)) {
          const auto nu = out.Out(u);
          wedge_checks += nu.size();
          for (VertexId w : nu) count += mark[w];
        }
        for (VertexId u : nv_dense) {
          const uint64_t* row_u = out.Row(u);
          const size_t w0 = (u - dense) >> 6;
          for (size_t x = w0; x < end; ++x) {
            count += std::popcount(mask[x] & row_u[x]);
          }
          dense_word_ands += end - w0;
        }
        for (VertexId u : nv) mark[u] = 0;
        for (VertexId u : nv_dense) mask[(u - dense) >> 6] = 0;
      }
      if (count != 0) {
#pragma omp atomic
        (*triangles)[slot[sorted[r]]] += count;
      }
    }
  }
  return {wedge_checks, dense_word_ands};
}

/// Algorithm 5 lines 2-7: counts every triangle once, at its lowest-rank
/// corner, over `out`, the adjacency OrientByRank built from a rank whose
/// `sorted` array is `sorted`. With every edge oriented towards its
/// higher-rank endpoint, a triangle v < u < w (by rank) has the out-edges
/// v->u, v->w and u->w: v's pass sees u and w in N+(v) and finds w in
/// N+(u). Neither u nor w has v as an out-neighbour, so no other pass sees
/// it. Rows are in rank order and row r reads only rows above r, so the
/// part the threads touch shrinks as r grows. Adds `out`'s shape and size
/// and the work done to `span` ("pbks.triangles", which the caller opens
/// before orienting).
template <typename Offset>
void TallyTriangles(const OrientedAdjacency<Offset>& out,
                    std::span<const VertexId> sorted,
                    std::span<const uint32_t> slot,
                    std::vector<int64_t>* triangles, ScopedSpan* span) {
  const TriangleWork work = CountTriangles(out, sorted, slot, triangles);
  span->AddArg("oriented_bytes", out.Bytes());
  span->AddArg("offset_bytes", sizeof(Offset));
  span->AddArg("max_out_degree", out.max_out_degree);
  span->AddArg("wedge_checks", work.wedge_checks);
  span->AddArg("dense_vertices", sorted.size() - out.dense_begin);
  span->AddArg("dense_word_ands", work.dense_word_ands);
}

/// Algorithm 5 lines 8-15 for one vertex v of coreness `cv`, once its
/// neighbours of lower coreness are bucketed by level (`cnt[k]` of them at
/// level k, `rep[k]` one of them). Wedges whose arms both reach coreness
/// >= c(v) (`gt_k` neighbours) appear with v, and the caller adds them at
/// v's slot; a wedge whose lowest arm has coreness k < c(v) appears at a
/// neighbour of coreness k (all of them share a slot: their tree node,
/// joined through v, or their level). Walks the levels from c(v) - 1
/// down, each level's wedges pairing its arms with each other and with
/// every higher arm, and clears the buckets it read.
inline void AddLowerWedges(uint32_t cv, int64_t gt_k, std::span<VertexId> cnt,
                           std::span<const VertexId> rep,
                           std::span<const uint32_t> slot,
                           std::vector<int64_t>* triplets) {
  for (int64_t k = static_cast<int64_t>(cv) - 1; k >= 0; --k) {
    const int64_t c = cnt[k];
    if (c > 0) {
      const int64_t add = Choose2(c) + gt_k * c;
#pragma omp atomic
      (*triplets)[slot[rep[k]]] += add;
      gt_k += c;
      cnt[k] = 0;
    }
  }
}

/// Triplets centered at each vertex (span "pbks.triplets"), from the
/// coreness counts: each vertex adds C(greater + equal, 2) at its own slot,
/// then buckets its lower-coreness neighbours for AddLowerWedges. The
/// descending walk covers c(v) levels per vertex; `levels_walked` sums
/// them.
void TallyTriplets(const Graph& graph, const CoreDecomposition& cd,
                   const CorenessNeighborCounts& pre,
                   std::span<const uint32_t> slot,
                   std::vector<int64_t>* triplets) {
  const VertexId n = graph.NumVertices();
  ScopedSpan span("pbks.triplets");
  uint64_t levels_walked = 0;
#pragma omp parallel reduction(+ : levels_walked)
  {
    std::vector<VertexId> cnt(cd.k_max + 1, 0);
    std::vector<VertexId> rep(cd.k_max + 1, 0);

#pragma omp for schedule(dynamic, 64)
    for (int64_t vi = 0; vi < static_cast<int64_t>(n); ++vi) {
      const VertexId v = static_cast<VertexId>(vi);
      const uint32_t cv = cd.coreness[v];
      const int64_t gt_k = static_cast<int64_t>(pre.greater[v]) + pre.equal[v];
      const int64_t add = Choose2(gt_k);
      if (add != 0) {
#pragma omp atomic
        (*triplets)[slot[v]] += add;
      }
      if (cv > 0) {
        levels_walked += cv;
        for (VertexId u : graph.Neighbors(v)) {
          const uint32_t cu = cd.coreness[u];
          if (cu < cv) {
            ++cnt[cu];
            rep[cu] = u;
          }
        }
        AddLowerWedges(cv, gt_k, cnt, rep, slot, triplets);
      }
    }
  }
  span.AddArg("levels_walked", levels_walked);
}

/// Vertices of the preorder array per chunk of the fused scan's dynamic
/// schedule; a node's run takes one flush per chunk it overlaps.
constexpr int64_t kScanChunk = 256;

/// The search-table build's first read of the adjacency (span
/// "pbks.triplets"). In one pass per vertex v it tallies:
/// - the type-A tallies 2m(S) and b(S) of v's tree node into `a`
///   (CountTypeATallies' sums, with the coreness counts taken from this
///   read instead of from a CorenessNeighborCounts);
/// - v's triplets into `triplets` (TallyTriplets' tallies);
/// - v's out-degree under `vr`, returned in CountOutDegrees' layout for
///   OrientByRank.
/// Vertices are visited in the index's preorder `vertices` array, chunks
/// of kScanChunk handed out dynamically, so a node's vertices are one run
/// whose type-A sums and own triplets (the wedges both of whose arms reach
/// c(v)) stay in registers until the run or the chunk ends.
/// `vr` must be coreness-major: a neighbour u is below v's shell, in it or
/// above it by where rank(u) falls against v's `shell_start` bounds, so
/// each entry loads rank(u), and coreness(u) only to bucket a lower one.
/// The coreness counts are never stored: they would be freed before the
/// oriented adjacency is allocated, but the heap would keep their pages.
template <typename Offset>
std::vector<Offset> ScanNeighbourhoods(const Graph& graph,
                                       const CoreDecomposition& cd,
                                       const VertexRank& vr,
                                       const FlatHcdIndex& index,
                                       TypeATallies* a,
                                       std::vector<int64_t>* triplets) {
  const VertexId n = graph.NumVertices();
  const std::span<const VertexId> order = index.data().vertices;
  const std::span<const uint32_t> slot = index.data().tid;
  HCD_CHECK_EQ(order.size(), n) << "a core index places every vertex";
  ScopedSpan span("pbks.triplets");
  std::vector<Offset> degrees(static_cast<size_t>(n) + 1, 0);
  const int64_t chunks =
      (static_cast<int64_t>(n) + kScanChunk - 1) / kScanChunk;
  uint64_t levels_walked = 0;
#pragma omp parallel reduction(+ : levels_walked)
  {
    std::vector<VertexId> cnt(cd.k_max + 1, 0);
    std::vector<VertexId> rep(cd.k_max + 1, 0);

#pragma omp for schedule(dynamic, 1)
    for (int64_t c = 0; c < chunks; ++c) {
      const int64_t end = std::min<int64_t>((c + 1) * kScanChunk, n);
      uint32_t run = slot[order[c * kScanChunk]];
      int64_t edges2 = 0;
      int64_t boundary = 0;
      int64_t own_triplets = 0;
      const auto flush = [&] {
        if (edges2 != 0) {
#pragma omp atomic
          a->edges2[run] += edges2;
        }
        if (boundary != 0) {
#pragma omp atomic
          a->boundary[run] += boundary;
        }
        if (own_triplets != 0) {
#pragma omp atomic
          (*triplets)[run] += own_triplets;
        }
        edges2 = 0;
        boundary = 0;
        own_triplets = 0;
      };
      for (int64_t pos = c * kScanChunk; pos < end; ++pos) {
        const VertexId v = order[pos];
        if (slot[v] != run) {
          flush();
          run = slot[v];
        }
        const uint32_t cv = cd.coreness[v];
        const VertexId rv = vr.rank[v];
        const VertexId lo = vr.shell_start[cv];
        const VertexId hi = vr.shell_start[cv + 1];
        VertexId lt = 0;
        VertexId gt = 0;
        VertexId up = 0;  // neighbours ranked above v
        for (VertexId u : graph.Neighbors(v)) {
          const VertexId q = vr.rank[u];
          if (q < lo) {
            const uint32_t cu = cd.coreness[u];
            ++cnt[cu];
            rep[cu] = u;
            ++lt;
          } else {
            gt += q >= hi;
            up += q > rv;
          }
        }
        degrees[static_cast<size_t>(rv) + 1] = up;
        const int64_t gt_k = static_cast<int64_t>(graph.Degree(v)) - lt;
        edges2 += gt_k + gt;  // 2 * greater + equal
        boundary += static_cast<int64_t>(lt) - gt;
        own_triplets += Choose2(gt_k);
        levels_walked += cv;
        AddLowerWedges(cv, gt_k, cnt, rep, slot, triplets);
      }
      flush();
    }
  }
  span.AddArg("levels_walked", levels_walked);
  span.AddArg("adjacency_entries", graph.AdjArray().size());
  return degrees;
}

/// Parallel bottom-up tree accumulation (Algorithm 3 lines 6-9): processes
/// the index's precomputed level groups in descending order; nodes inside a
/// group accumulate into their parents concurrently (atomics: two
/// same-level nodes may share a parent). When a node's group is reached,
/// all its children (strictly higher levels) are final. No sort and no
/// group-boundary scan — the frozen index ships both. A group below
/// kParallelGrain nodes runs on the calling thread. Sums wrap modulo 2^64,
/// so signed tallies stored two's-complement come out exact.
void AccumulatePrimaryUp(const FlatHcdIndex& index,
                         std::span<PrimaryValues> rows) {
  HCD_CHECK_EQ(rows.size(), index.NumNodes());
  for (size_t g = 0; g < index.NumLevelGroups(); ++g) {
    const std::span<const TreeNodeId> group = index.LevelGroup(g);
#pragma omp parallel for schedule(static) \
    if (static_cast<int64_t>(group.size()) >= kParallelGrain)
    for (int64_t idx = 0; idx < static_cast<int64_t>(group.size()); ++idx) {
      const TreeNodeId node = group[idx];
      const TreeNodeId pa = index.Parent(node);
      if (pa == kInvalidNode) continue;
      const PrimaryValues& from = rows[node];
      PrimaryValues& to = rows[pa];
#pragma omp atomic
      to.n_s += from.n_s;
#pragma omp atomic
      to.edges2 += from.edges2;
#pragma omp atomic
      to.boundary += from.boundary;
#pragma omp atomic
      to.triangles += from.triangles;
#pragma omp atomic
      to.triplets += from.triplets;
    }
  }
}

void SetTypeATallies(const TypeATallies& a, std::span<PrimaryValues> rows) {
  HCD_CHECK_EQ(a.edges2.size(), rows.size());
  for (size_t t = 0; t < rows.size(); ++t) {
    // A node's own boundary tally (lt - gt) can be negative; it is stored
    // two's-complement, and the accumulated sum, never negative, is exact.
    rows[t].edges2 = static_cast<uint64_t>(a.edges2[t]);
    rows[t].boundary = static_cast<uint64_t>(a.boundary[t]);
  }
}

void SetTypeBTallies(const TypeBTallies& b, std::span<PrimaryValues> rows) {
  HCD_CHECK_EQ(b.triangles.size(), rows.size());
  for (size_t t = 0; t < rows.size(); ++t) {
    rows[t].triangles = static_cast<uint64_t>(b.triangles[t]);
    rows[t].triplets = static_cast<uint64_t>(b.triplets[t]);
  }
}

}  // namespace

TypeATallies CountTypeATallies(const Graph& graph,
                               const CorenessNeighborCounts& pre,
                               std::span<const VertexId> order,
                               std::span<const uint32_t> slot_offsets) {
  HCD_CHECK(!slot_offsets.empty());
  HCD_CHECK_EQ(slot_offsets.back(), order.size());
  const size_t num_slots = slot_offsets.size() - 1;
  TypeATallies t;
  t.n_s = RunLengths(slot_offsets);
  t.edges2.assign(num_slots, 0);
  t.boundary.assign(num_slots, 0);

  // Algorithm 4 lines 2-9: per-vertex contributions. Each vertex counts the
  // edges whose lowest-rank endpoint it is: all edges to greater coreness,
  // and half of the equal-coreness edges (each such edge is charged by both
  // endpoints, hence the doubled-edge bookkeeping). One chunk of `order`
  // per thread; a run of one slot sums in registers and is flushed once,
  // so a slot spanning several chunks takes one atomic add per chunk.
  const int64_t size = static_cast<int64_t>(order.size());
  const int64_t chunks = MaxThreads();
#pragma omp parallel for schedule(static, 1)
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t begin = size * c / chunks;
    const int64_t end = size * (c + 1) / chunks;
    if (begin == end) continue;
    // The last slot starting at or before `begin` owns it (empty slots
    // share their successor's offset).
    size_t s = static_cast<size_t>(
        std::upper_bound(slot_offsets.begin(), slot_offsets.end(),
                         static_cast<uint32_t>(begin)) -
        slot_offsets.begin() - 1);
    int64_t edges2 = 0;
    int64_t boundary = 0;
    const auto flush = [&] {
      if (edges2 != 0) {
#pragma omp atomic
        t.edges2[s] += edges2;
      }
      if (boundary != 0) {
#pragma omp atomic
        t.boundary[s] += boundary;
      }
      edges2 = 0;
      boundary = 0;
    };
    for (int64_t pos = begin; pos < end; ++pos) {
      while (slot_offsets[s + 1] <= pos) {
        flush();
        ++s;
      }
      const VertexId v = order[pos];
      const int64_t gt = pre.greater[v];
      const int64_t eq = pre.equal[v];
      const int64_t lt = static_cast<int64_t>(graph.Degree(v)) - gt - eq;
      edges2 += 2 * gt + eq;
      boundary += lt - gt;
    }
    flush();
  }
  return t;
}

std::vector<PrimaryValues> PbksTypeAPrimary(
    const Graph& graph, const CoreDecomposition& /*cd*/,
    const FlatHcdIndex& index, const CorenessNeighborCounts& pre) {
  std::vector<PrimaryValues> rows = OwnVertexRows(index);
  SetTypeATallies(CountTypeATallies(graph, pre, index.data().vertices,
                                    index.data().vertex_offsets),
                  rows);
  AccumulatePrimaryUp(index, rows);
  return rows;
}

TypeBTallies CountTypeBTallies(const Graph& graph,
                               const CoreDecomposition& cd,
                               const VertexRank& vr,
                               const CorenessNeighborCounts& pre,
                               std::span<const uint32_t> slot,
                               size_t num_slots) {
  TypeBTallies t;
  t.triangles.assign(num_slots, 0);
  t.triplets.assign(num_slots, 0);
  WithOffsets(graph.NumEdges(), [&]<typename Offset>(Offset) {
    ScopedSpan span("pbks.triangles");
    TallyTriangles(
        OrientByRank(graph, vr, CountOutDegrees<Offset>(graph, vr)),
        vr.sorted, slot, &t.triangles, &span);
  });
  TallyTriplets(graph, cd, pre, slot, &t.triplets);
  return t;
}

std::vector<PrimaryValues> PbksTypeBPrimary(
    const Graph& graph, const CoreDecomposition& cd, const FlatHcdIndex& index,
    const VertexRank& vr, const CorenessNeighborCounts& pre) {
  // n(S) rides along: triangle density divides by the vertex triples.
  std::vector<PrimaryValues> rows = OwnVertexRows(index);
  SetTypeBTallies(CountTypeBTallies(graph, cd, vr, pre, index.data().tid,
                                    index.NumNodes()),
                  rows);
  AccumulatePrimaryUp(index, rows);
  return rows;
}

template <typename Offset>
std::vector<PrimaryValues> PbksPrimaryWithOffsets(const Graph& graph,
                                                  const CoreDecomposition& cd,
                                                  const FlatHcdIndex& index) {
  std::vector<PrimaryValues> rows = OwnVertexRows(index);
  TypeBTallies b;
  b.triangles.assign(index.NumNodes(), 0);
  b.triplets.assign(index.NumNodes(), 0);
  VertexRank vr;
  {
    ScopedStage stage("search.preprocess");
    vr = ComputeOrientationRank(graph, cd);
  }
  std::vector<Offset> degrees;
  {
    ScopedStage stage("search.primary_a");
    TypeATallies a;
    a.edges2.assign(index.NumNodes(), 0);
    a.boundary.assign(index.NumNodes(), 0);
    degrees = ScanNeighbourhoods<Offset>(graph, cd, vr, index, &a,
                                         &b.triplets);
    SetTypeATallies(a, rows);
  }
  {
    // The oriented adjacency, the largest array, is allocated only now,
    // and the rank's `rank` array goes as soon as the fill is done (the
    // triangle count reads only `sorted`).
    ScopedStage stage("search.primary_b");
    ScopedSpan span("pbks.triangles");
    const OrientedAdjacency<Offset> out =
        OrientByRank(graph, vr, std::move(degrees));
    vr.rank = std::vector<VertexId>();
    TallyTriangles(out, vr.sorted, index.data().tid, &b.triangles, &span);
  }
  SetTypeBTallies(b, rows);
  ScopedSpan span("search.accumulate");
  AccumulatePrimaryUp(index, rows);
  span.AddArg("nodes", index.NumNodes());
  return rows;
}

template std::vector<PrimaryValues> PbksPrimaryWithOffsets<uint32_t>(
    const Graph&, const CoreDecomposition&, const FlatHcdIndex&);
template std::vector<PrimaryValues> PbksPrimaryWithOffsets<uint64_t>(
    const Graph&, const CoreDecomposition&, const FlatHcdIndex&);

std::vector<PrimaryValues> PbksPrimary(const Graph& graph,
                                       const CoreDecomposition& cd,
                                       const FlatHcdIndex& index) {
  return WithOffsets(graph.NumEdges(), [&]<typename Offset>(Offset) {
    return PbksPrimaryWithOffsets<Offset>(graph, cd, index);
  });
}

SearchResult ScoreNodes(const FlatHcdIndex& index, Metric metric,
                        std::span<const PrimaryValues> accumulated,
                        const GraphGlobals& globals) {
  SearchResult result;
  result.scores.resize(index.NumNodes());
#pragma omp parallel for schedule(static)
  for (int64_t i = 0; i < static_cast<int64_t>(index.NumNodes()); ++i) {
    result.scores[i] = EvaluateMetric(metric, accumulated[i], globals);
  }
  for (TreeNodeId i = 0; i < index.NumNodes(); ++i) {
    if (result.best_node == kInvalidNode ||
        result.scores[i] > result.best_score) {
      result.best_node = i;
      result.best_score = result.scores[i];
    }
  }
  return result;
}

SearchResult PbksSearch(const Graph& graph, const CoreDecomposition& cd,
                        const FlatHcdIndex& index, Metric metric) {
  const CorenessNeighborCounts pre = PreprocessCorenessCounts(graph, cd);
  const GraphGlobals globals{graph.NumVertices(), graph.NumEdges()};
  if (IsTypeB(metric)) {
    const VertexRank vr = ComputeOrientationRank(graph, cd);
    return ScoreNodes(index, metric,
                      PbksTypeBPrimary(graph, cd, index, vr, pre), globals);
  }
  return ScoreNodes(index, metric, PbksTypeAPrimary(graph, cd, index, pre),
                    globals);
}

}  // namespace hcd
