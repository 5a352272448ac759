#ifndef HCD_CORE_PEEL_LEVELS_H_
#define HCD_CORE_PEEL_LEVELS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "parallel/omp_utils.h"

namespace hcd {

/// Per-element peel levels (coreness, trussness or nucleus number) and the
/// largest level at which an element was peeled (0 when none was).
struct PeelLevelsResult {
  std::vector<uint32_t> level;
  uint32_t k_max = 0;
};

namespace peel_levels_internal {

/// Element states of a peel whose cliques have several other members.
enum : uint8_t { kAlive = 0, kFrontier = 1, kPeeled = 2 };

/// Lowers y's support by one if it is above `level`. Returns true for the
/// one caller that brings it down to `level`. A racing decrement that finds
/// it at or below the level is undone, so a support never sinks under the
/// current level and an element is never pushed twice.
inline bool Lower(uint32_t* support, uint32_t y, uint32_t level) {
  std::atomic_ref<uint32_t> s(support[y]);
  if (s.load(std::memory_order_relaxed) <= level) return false;
  const uint32_t prev = s.fetch_sub(1);
  if (prev == level + 1) return true;
  if (prev <= level) s.fetch_add(1);
  return false;
}

}  // namespace peel_levels_internal

/// Level-synchronous peeling (Kabir & Madduri's PKC) over any element type:
/// the one peeler behind PkcCoreDecomposition (vertices, whose cliques are
/// edges), PeelTrussDecomposition (edges in triangles) and
/// PeelNucleusDecomposition (triangles in 4-cliques). Elements are 0..n-1.
/// Level k peels every element whose support has come down to k; each
/// clique a peel destroys lowers its surviving members by one, never below
/// k. The levels equal serial Batagelj-Zaversnik peeling's (DESIGN.md §13).
///
/// Each level scans for its seeds, over a compacted list of the unpeeled
/// elements once at most half of those scanned are unpeeled. A scan or
/// round whose work is below kParallelGrain runs on the calling thread.
/// With one other member per clique (kOthers == 1), threads drain their
/// seeds depth first. With more, a level runs sub-rounds over a fixed
/// frontier: a clique with a peeled member is skipped, one with several
/// frontier members is left to the least-id one, and the members outside
/// the frontier are lowered. After the barrier the frontier is peeled and
/// the elements brought down to k form the next one.
///
/// The caller passes supports() (the initial supports, called inside the
/// stage so that counting them is timed), work(x) (the entries x's clique
/// enumeration reads, for the grain rule) and cliques(x, skip, visit),
/// which calls visit(y...) with the kOthers other members of each clique
/// containing x, once per clique, concurrently for different x. skip(y) is
/// true when no clique containing y is x's to lower: y is peeled, or is in
/// x's frontier with a lesser id (always false for kOthers == 1). The
/// enumerator may use it to pass over a clique before looking up its
/// remaining members.
///
/// Records `stage` (counters: levels, k_max, compactions, rounds = the
/// frontiers peeled, parallel_rounds = those whose work reached the grain,
/// max_frontier = the most elements one round peeled) and one `pkc.round`
/// span per level.
template <int kOthers, typename Supports, typename Work, typename Cliques>
PeelLevelsResult PeelLevels(std::string_view stage, Supports&& supports,
                            Work&& work, Cliques&& cliques) {
  using peel_levels_internal::kAlive;
  using peel_levels_internal::kFrontier;
  using peel_levels_internal::kPeeled;
  using peel_levels_internal::Lower;
  static_assert(kOthers >= 1);
  constexpr bool kDrain = kOthers == 1;
  ScopedStage scoped(stage);
  PeelLevelsResult out;
  out.level = supports();
  // Supports are lowered in place: a peeled element's support stays at its
  // level, so the vector ends up holding the levels.
  uint32_t* const sup = out.level.data();
  const uint64_t n = out.level.size();
  uint64_t compactions = 0;
  uint64_t rounds = 0;
  uint64_t parallel_rounds = 0;
  uint64_t max_frontier = 0;

  // The compacted scan: rounds scan all n elements until at most half of
  // the scanned ones are unpeeled; that round's scan also writes the
  // survivors (support above the level) into `next`, and later rounds scan
  // that list instead. An entry peeled later in the same round is stale and
  // costs one failed test until the next rebuild.
  std::vector<uint32_t> active;
  std::vector<uint32_t> next;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> pushed;
  std::vector<uint8_t> state;
  if constexpr (!kDrain) state.assign(n, kAlive);
  const uint8_t* const st = state.data();
  bool compacted = false;
  uint64_t visited = 0;
  uint32_t level = 0;
  const uint32_t max_sup = n == 0 ? 0 : *std::max_element(sup, sup + n);
  while (visited < n) {
    const int64_t scanned =
        compacted ? static_cast<int64_t>(active.size())
                  : static_cast<int64_t>(n);
    const uint64_t unpeeled = n - visited;
    const bool compact = 2 * unpeeled <= static_cast<uint64_t>(scanned);
    if (compact) next.resize(unpeeled);
    std::atomic<uint64_t> kept{0};
    // Sorts scan position i into the level's seeds (support == level) or,
    // when compacting, the survivors; survivors are published into `next`
    // with one fetch_add per scanner.
    auto classify = [&](int64_t i, std::vector<uint32_t>* seeds,
                        std::vector<uint32_t>* survivors) {
      const uint32_t x = compacted ? active[i] : static_cast<uint32_t>(i);
      const uint32_t s =
          std::atomic_ref<uint32_t>(sup[x]).load(std::memory_order_relaxed);
      if (s == level) {
        seeds->push_back(x);
      } else if (compact && s > level) {
        survivors->push_back(x);
      }
    };
    auto publish = [&](const std::vector<uint32_t>& survivors) {
      if (survivors.empty()) return;
      const uint64_t at = kept.fetch_add(survivors.size());
      std::copy(survivors.begin(), survivors.end(), next.begin() + at);
    };

    // A scan of at least kParallelGrain elements runs inside a parallel
    // region; a shorter one runs here first, and the region opens only if
    // the seeds it found carry kParallelGrain work (deep levels scan a
    // short list but can peel a hub-heavy shell at once).
    const bool wide_scan = scanned >= kParallelGrain;
    uint64_t seed_volume = 0;
    frontier.clear();
    if (!wide_scan) {
      std::vector<uint32_t> survivors;
      for (int64_t i = 0; i < scanned; ++i) {
        classify(i, &frontier, &survivors);
      }
      publish(survivors);
      for (uint32_t x : frontier) seed_volume += work(x);
    }
    uint64_t peeled = 0;
    uint64_t level_rounds = 0;
    // One span per level (orchestrating thread) plus one per worker inside
    // each region: the per-worker spans expose the round's load balance,
    // which a flat per-stage time cannot show.
    ScopedSpan round_span("pkc.round");
    round_span.AddArg("level", level);
    round_span.AddArg("scanned", scanned);
    if constexpr (kDrain) {
      const int64_t seeds = static_cast<int64_t>(frontier.size());
      const bool parallel = wide_scan || seed_volume >= kParallelGrain;
#pragma omp parallel reduction(+ : peeled) if (parallel)
      {
        ScopedSpan worker_span("pkc.round.worker");
        worker_span.AddArg("level", level);
        std::vector<uint32_t> buff;
        // Peels every element on `buff` and, depth first, each clique
        // partner it brings down to `level`. Takes its operands by value
        // so the hot loop keeps them in registers across the atomics.
        auto drain = [&buff, &cliques, sup, level] {
          uint64_t count = 0;
          while (!buff.empty()) {
            const uint32_t x = buff.back();
            buff.pop_back();
            ++count;
            cliques(
                x, [](uint32_t) { return false; },
                [&buff, sup, level](uint32_t y) {
                  if (Lower(sup, y, level)) buff.push_back(y);
                });
          }
          return count;
        };
        if (wide_scan) {
          std::vector<uint32_t> survivors;
          // The loop's barrier keeps every scan ahead of every decrement,
          // so no element is seeded twice.
#pragma omp for schedule(static)
          for (int64_t i = 0; i < scanned; ++i) {
            classify(i, &buff, &survivors);
          }
          publish(survivors);
          peeled += drain();
        } else {
#pragma omp for schedule(dynamic, 16)
          for (int64_t i = 0; i < seeds; ++i) {
            buff.push_back(frontier[i]);
            peeled += drain();
          }
        }
      }
      level_rounds = peeled > 0;
      parallel_rounds += parallel && peeled > 0;
      max_frontier = std::max(max_frontier, peeled);
    } else {
      if (wide_scan) {
#pragma omp parallel
        {
          std::vector<uint32_t> seeds;
          std::vector<uint32_t> survivors;
#pragma omp for schedule(static)
          for (int64_t i = 0; i < scanned; ++i) {
            classify(i, &seeds, &survivors);
          }
          publish(survivors);
#pragma omp critical(peel_levels_frontier)
          frontier.insert(frontier.end(), seeds.begin(), seeds.end());
        }
        for (uint32_t x : frontier) seed_volume += work(x);
      }
      uint64_t volume = seed_volume;
      while (!frontier.empty()) {
        const int64_t size = static_cast<int64_t>(frontier.size());
        // Deep levels hold few elements of high work, so chunks shrink
        // until every thread gets several.
        const int64_t chunk =
            std::clamp<int64_t>(size / (8 * MaxThreads()), 1, 256);
        pushed.clear();
        uint64_t pushed_volume = 0;
        const bool parallel = volume >= kParallelGrain;
#pragma omp parallel reduction(+ : pushed_volume) if (parallel)
        {
          ScopedSpan worker_span("pkc.round.worker");
          worker_span.AddArg("level", level);
          std::vector<uint32_t> buff;
#pragma omp for schedule(static)
          for (int64_t i = 0; i < size; ++i) state[frontier[i]] = kFrontier;
#pragma omp for schedule(dynamic, chunk)
          for (int64_t i = 0; i < size; ++i) {
            const uint32_t x = frontier[i];
            // A clique with a peeled member was destroyed in an earlier
            // round, which lowered its survivors. One destroyed now is left
            // to its least-id frontier member.
            auto skip = [st, x](uint32_t y) {
              return st[y] == kPeeled || (st[y] == kFrontier && y < x);
            };
            cliques(x, skip, [&](auto... ys) {
              if ((... || skip(ys))) return;
              auto lower = [&](uint32_t y) {
                if (st[y] == kAlive && Lower(sup, y, level)) {
                  buff.push_back(y);
                  pushed_volume += work(y);
                }
              };
              (lower(ys), ...);
            });
          }
#pragma omp critical(peel_levels_frontier)
          pushed.insert(pushed.end(), buff.begin(), buff.end());
#pragma omp for schedule(static) nowait
          for (int64_t i = 0; i < size; ++i) state[frontier[i]] = kPeeled;
        }
        ++level_rounds;
        parallel_rounds += parallel;
        max_frontier = std::max<uint64_t>(max_frontier, size);
        peeled += size;
        volume = pushed_volume;
        frontier.swap(pushed);
      }
    }
    if (compact) {
      next.resize(kept.load());
      active.swap(next);
      compacted = true;
      ++compactions;
    }
    round_span.AddArg("rounds", level_rounds);
    round_span.AddArg("peeled", peeled);
    rounds += level_rounds;
    if (peeled > 0) out.k_max = level;
    visited += peeled;
    ++level;
    HCD_CHECK(level <= max_sup + 1) << "peeling failed to converge";
  }
  scoped.AddCounter("levels", level);
  scoped.AddCounter("k_max", out.k_max);
  scoped.AddCounter("compactions", compactions);
  scoped.AddCounter("rounds", rounds);
  scoped.AddCounter("parallel_rounds", parallel_rounds);
  scoped.AddCounter("max_frontier", max_frontier);
  return out;
}

}  // namespace hcd

#endif  // HCD_CORE_PEEL_LEVELS_H_
