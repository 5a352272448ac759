#ifndef HCD_PARALLEL_OMP_UTILS_H_
#define HCD_PARALLEL_OMP_UTILS_H_

#include <omp.h>

#include <cstdint>

namespace hcd {

/// Number of threads OpenMP parallel regions will use.
inline int MaxThreads() { return omp_get_max_threads(); }

/// Sets the OpenMP thread count for subsequent parallel regions. The
/// benchmark harness sweeps this to reproduce the papers' thread-scaling
/// figures.
inline void SetNumThreads(int n) { omp_set_num_threads(n); }

/// Caller's thread index inside a parallel region (0 outside).
inline int ThreadId() { return omp_get_thread_num(); }

/// Hardware concurrency reported to OpenMP.
inline int HardwareThreads() { return omp_get_num_procs(); }

/// Work, in adjacency entries or tree nodes, below which one level of a
/// level-synchronous build step (a PKC peeling round, a PHCD shell, a
/// Freeze or PBKS level group, the Freeze preorder) runs on the calling
/// thread instead of opening a parallel region. It is applied at those
/// per-level call sites only, never inside ParallelFor: ingest and
/// GraphBuilder call ParallelFor over a few heavy chunks, which an
/// iteration-count threshold would make serial.
inline constexpr int64_t kParallelGrain = 1 << 12;

/// RAII guard that sets the OpenMP thread count and restores the previous
/// value on scope exit; used by benchmarks sweeping thread counts.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int n) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(n);
  }
  ~ThreadCountGuard() { omp_set_num_threads(saved_); }

  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;

 private:
  int saved_;
};

/// Parallel for over [begin, end) with static scheduling. `fn` is invoked
/// as fn(i). Falls back to a serial loop when OpenMP runs one thread.
template <typename Index, typename Fn>
void ParallelFor(Index begin, Index end, Fn&& fn) {
#pragma omp parallel for schedule(static)
  for (int64_t i = static_cast<int64_t>(begin); i < static_cast<int64_t>(end);
       ++i) {
    fn(static_cast<Index>(i));
  }
}

/// Parallel for with dynamic scheduling for skewed per-iteration cost (e.g.
/// per-vertex work proportional to degree).
template <typename Index, typename Fn>
void ParallelForDynamic(Index begin, Index end, Fn&& fn) {
#pragma omp parallel for schedule(dynamic, 512)
  for (int64_t i = static_cast<int64_t>(begin); i < static_cast<int64_t>(end);
       ++i) {
    fn(static_cast<Index>(i));
  }
}

}  // namespace hcd

#endif  // HCD_PARALLEL_OMP_UTILS_H_
