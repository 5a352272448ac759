#ifndef HCD_COMMON_TELEMETRY_H_
#define HCD_COMMON_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/trace.h"

namespace hcd {

/// RAII stage timer: a pipeline stage (load, decomposition, construction,
/// ...) as one scope whose wall time and counters reach the two
/// process-wide backends. With a Tracer::Current() the stage is a span,
/// recorded by the ScopedSpan it holds (counters become span args); with a
/// MetricsRegistry::Current() its wall time is observed in the
/// `hcd_stage_seconds{stage=...}` histogram family, its run counted in
/// `hcd_stage_runs_total` and each counter added to
/// `hcd_stage_counter_total{stage=...,counter=...}`. The registry is the
/// stage record: `hcd_cli --json` and `--metrics-out` render it. With
/// neither installed, every operation reduces to pointer tests (two relaxed
/// atomic loads at construction) — no clock read, no allocation — which is
/// how un-instrumented library calls stay free.
class ScopedStage {
 public:
  explicit ScopedStage(std::string_view stage)
      : registry_(MetricsRegistry::Current()), span_(stage) {
    if (registry_ != nullptr) Start(stage);
  }
  ~ScopedStage() {
    if (registry_ != nullptr) Finish();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  /// Attaches a counter to the stage (no-op when neither backend is
  /// installed).
  void AddCounter(std::string_view name, uint64_t value) {
    span_.AddArg(name, value);
    if (registry_ != nullptr) CountInRegistry(name, value);
  }

 private:
  /// Out-of-line registry paths: Start keeps the name and reads the clock,
  /// Finish observes the wall time and counts the run.
  void Start(std::string_view stage);
  void Finish();
  void CountInRegistry(std::string_view name, uint64_t value);

  MetricsRegistry* registry_;
  ScopedSpan span_;
  std::string stage_;  ///< set only with a registry
  std::chrono::steady_clock::time_point start_;
};

/// Reads of the stage record that ScopedStage writes into `registry`, for
/// reports and tests that need one stage's figure rather than the whole
/// rendered document. Each is 0 for a stage (or counter) that never ran
/// and, like MetricsRegistry's Find*, creates no series.
///
/// Seconds spent in `stage`: the sum of its `hcd_stage_seconds` histogram.
double StageSeconds(const MetricsRegistry& registry, std::string_view stage);
/// Completed runs of `stage` (`hcd_stage_runs_total`).
uint64_t StageRuns(const MetricsRegistry& registry, std::string_view stage);
/// Wall-time observations of `stage` (`hcd_stage_seconds`' count); equal
/// to StageRuns once every stage that began has finished.
uint64_t StageObservations(const MetricsRegistry& registry,
                           std::string_view stage);
/// Total of `stage`'s detail counter `counter`
/// (`hcd_stage_counter_total`), summed over every run.
uint64_t StageDetail(const MetricsRegistry& registry, std::string_view stage,
                     std::string_view counter);

/// Escapes `s` for inclusion in a JSON string literal (quotes, backslashes
/// and control characters).
std::string JsonEscape(const std::string& s);

/// `value` if it is a finite number, else 0.0. Every ratio printed into a
/// JSON report must pass through this: a zero-duration or zero-read run
/// otherwise divides by zero and emits `inf`/`nan`, which no strict JSON
/// parser accepts (json.loads, the test parser in tests/test_util.h, most
/// dashboards).
inline double FiniteOrZero(double value) {
  return __builtin_isfinite(value) ? value : 0.0;
}

}  // namespace hcd

#endif  // HCD_COMMON_TELEMETRY_H_
