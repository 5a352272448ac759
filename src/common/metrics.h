#ifndef HCD_COMMON_METRICS_H_
#define HCD_COMMON_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/installed.h"

namespace hcd {

/// Label set attached to one instrument, e.g. {{"stage", "load"}}. Order is
/// preserved in the rendered output.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. All operations are lock-free relaxed atomics; safe
/// from any number of threads.
class Counter {
 public:
  /// Returns the value after this increment.
  uint64_t Increment(uint64_t delta = 1) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Double gauge, stored as a bit pattern so the atomic is always
/// lock-free. Set is last-write-wins; Add is a compare-exchange loop, so
/// concurrent Add(+1)/Add(-1) pairs always net to zero (a Set of a count
/// loaded separately could leave a stale value behind).
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }
  void Add(double delta) {
    uint64_t bits = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(
        bits, std::bit_cast<uint64_t>(std::bit_cast<double>(bits) + delta),
        std::memory_order_relaxed)) {
    }
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<uint64_t> bits_{0};
};

/// Log-bucketed latency histogram: bucket i counts observations at most
/// `1e-6 * 2^i` seconds (1 us, 2 us, 4 us, ... ~17.9 min), plus a final
/// overflow (+Inf) bucket. Observe is lock-free (one fetch_add on the
/// bucket, one on the nanosecond sum), so concurrent serve threads can
/// record latencies with no coordination; reads are monotonic snapshots.
class Histogram {
 public:
  static constexpr size_t kNumFiniteBuckets = 31;

  /// Upper bound of finite bucket `i` in seconds.
  static double BucketBound(size_t i) {
    return 1e-6 * static_cast<double>(uint64_t{1} << i);
  }

  void Observe(double seconds);

  uint64_t TotalCount() const;
  /// Sum of observations in seconds (accumulated at nanosecond resolution).
  double Sum() const;
  /// Count in bucket `i` (not cumulative); index kNumFiniteBuckets is the
  /// overflow bucket.
  uint64_t BucketCount(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }

  /// Estimated q-quantile in seconds (q in (0, 1]): the nearest-rank
  /// observation's bucket is located by a cumulative walk, then the value
  /// is linearly interpolated between the bucket's bounds by the rank's
  /// position inside it. The estimate always lands inside the bucket that
  /// holds the exact nearest-rank sample, so it is within one log bucket
  /// (a factor of two) of the true value; ranks falling in the overflow
  /// bucket report the largest finite bound. Returns 0 when empty.
  double Quantile(double q) const;

 private:
  std::atomic<uint64_t> counts_[kNumFiniteBuckets + 1] = {};
  std::atomic<uint64_t> sum_ns_{0};
};

/// The quantile estimator behind Histogram::Quantile, over a raw
/// non-cumulative bucket-count array laid out exactly like Histogram's
/// (kNumFiniteBuckets finite buckets, then one overflow slot). Shared with
/// rolling-window samples so a windowed bucket *delta* yields the same
/// estimate the live histogram would have given over just that window.
double HistogramBucketQuantile(
    const uint64_t (&buckets)[Histogram::kNumFiniteBuckets + 1], double q);

/// Process-wide registry of named instruments with Prometheus text
/// exposition and JSON rendering. Instruments are created on first Get*
/// (mutex-protected lookup; keep the returned pointer for the hot path) and
/// live as long as the registry. A (name, labels) pair always maps to the
/// same instrument; requesting an existing name with a different type
/// aborts — the exposition would be self-contradictory otherwise.
///
/// Like Tracer, a registry can be published process-wide with Install()
/// (installed.h) so the `ScopedStage` bridge (telemetry.h) records every
/// stage's wall time into the `hcd_stage_seconds` histogram family without
/// any caller wiring; with no registry installed that bridge is a single
/// pointer test.
class MetricsRegistry : public Installed<MetricsRegistry> {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "",
                      const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help = "",
                  const MetricLabels& labels = {});
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "",
                          const MetricLabels& labels = {});

  /// Prometheus text exposition format: one `# HELP` / `# TYPE` pair per
  /// family, histograms as cumulative `_bucket{le=...}` series (ending in
  /// le="+Inf") plus `_sum` and `_count`.
  std::string RenderPrometheus() const;

  /// `{"metrics":[{"name":...,"type":...,"labels":{...},...}]}`; counters
  /// and gauges carry "value", histograms carry "count", "sum" and the
  /// non-empty buckets as [upper_bound_seconds, count] pairs ("+Inf" bound
  /// rendered as null).
  std::string RenderJson() const;

  /// Number of Get{Counter,Gauge,Histogram} resolutions ever performed on
  /// this registry. Each resolution takes the registry mutex and walks two
  /// maps, so hot paths must resolve once up front and reuse the returned
  /// pointer; tests and microbenchmarks assert a serve loop performs zero
  /// lookups per request by sampling this before and after.
  uint64_t lookup_count() const {
    return lookups_.load(std::memory_order_relaxed);
  }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    MetricLabels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Children keyed by their rendered label string (stable identity).
    std::map<std::string, Instrument> children;
  };

  Instrument* GetInstrument(const std::string& name, const std::string& help,
                            const MetricLabels& labels, Kind kind);

  std::atomic<uint64_t> lookups_{0};
  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace hcd

#endif  // HCD_COMMON_METRICS_H_
