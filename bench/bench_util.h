#ifndef HCD_BENCH_BENCH_UTIL_H_
#define HCD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <vector>

#include "common/timer.h"
#include "parallel/omp_utils.h"

namespace hcd::bench {

/// Collects per-query latencies and reports nearest-rank quantiles
/// (p50/p95/p99), the report shape of `hcd_cli serve-bench`. Not
/// thread-safe: give each worker thread its own recorder and Merge them
/// afterwards.
///
/// The sample vector is sorted at most once per batch of insertions: the
/// first Quantile call after a Record/Merge sorts in place and memoizes,
/// so a P50/P95/P99 report costs one O(N log N) sort instead of three
/// (each with its own full copy). Record and Merge stay valid after a
/// report — they just mark the order dirty again.
class LatencyRecorder {
 public:
  void Record(double seconds) {
    samples_.push_back(seconds);
    sorted_ = false;
  }

  void Merge(const LatencyRecorder& other) {
    if (other.samples_.empty()) return;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }

  size_t Count() const { return samples_.size(); }

  /// Sorts the samples now (idempotent). Quantile calls this lazily, so
  /// finalizing explicitly is only useful to move the sort off a measured
  /// region.
  void Finalize() const {
    if (sorted_) return;
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }

  /// Nearest-rank quantile: the ceil(q*N)-th smallest sample (so P50 of
  /// two samples is the lower one, and one sample answers every q). 0.0
  /// with no samples. `q` in [0, 1]; q=0 is the minimum, q=1 the maximum.
  double Quantile(double q) const {
    if (samples_.empty()) return 0.0;
    Finalize();
    const double rank = std::ceil(q * static_cast<double>(samples_.size()));
    const size_t index =
        rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return samples_[std::min(index, samples_.size() - 1)];
  }

  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

 private:
  /// Sorted in place by Finalize; recorder order is not observable.
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Wall-clock seconds of `fn` (best of `reps` runs; best-of suppresses
/// one-off allocator / page-fault noise, the usual convention for
/// single-shot algorithm timings).
inline double TimeIt(const std::function<void()>& fn, int reps = 1) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    fn();
    const double s = timer.Seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

/// Times `fn` under a fixed OpenMP thread count.
inline double TimeWithThreads(int threads, const std::function<void()>& fn,
                              int reps = 1) {
  ThreadCountGuard guard(threads);
  return TimeIt(fn, reps);
}

/// Thread counts swept by the scaling figures: powers of two from 1 while
/// below the host's hardware threads, then the hardware thread count
/// itself (1, 2, 4 on 4 threads; 1, 2, 4, 6 on 6). The paper sweeps 1..40
/// on a 40-core box; stopping at the host's count keeps every column,
/// the last ("pmax") included, free of oversubscription.
inline std::vector<int> ThreadSweep() {
  const int hardware = HardwareThreads();
  std::vector<int> threads;
  for (int p = 1; p < hardware; p *= 2) threads.push_back(p);
  threads.push_back(hardware);
  return threads;
}

inline void PrintHardwareBanner(const char* title) {
  std::printf("== %s ==\n", title);
  std::printf("(hardware threads available: %d; the thread sweep ends "
              "there)\n\n",
              HardwareThreads());
}

}  // namespace hcd::bench

#endif  // HCD_BENCH_BENCH_UTIL_H_
