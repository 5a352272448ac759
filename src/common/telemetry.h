#ifndef HCD_COMMON_TELEMETRY_H_
#define HCD_COMMON_TELEMETRY_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/installed.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace hcd {

/// One named counter attached to a pipeline stage (e.g. peeling levels,
/// union-find shells, tree nodes created).
struct StageCounter {
  std::string name;
  uint64_t value = 0;
};

/// One completed pipeline stage: a label, its wall time, any cheap counters
/// the stage chose to report, and how many stages enclosed it on the thread
/// that ran it (0 for an outermost stage).
struct StageRecord {
  std::string stage;
  double seconds = 0.0;
  std::vector<StageCounter> counters;
  uint32_t depth = 0;
};

/// Process-wide collector of stage records, in completion order, that can
/// render them as a machine-readable JSON report (used by `hcd_cli --json`).
///
/// Like Tracer and MetricsRegistry, a collector is published with Install()
/// (installed.h) and every `ScopedStage` in the library then reports to it
/// without any caller wiring. RecordStage may be called from any thread (a
/// live writer finishes stages off the main thread); the read side —
/// records() and the summaries below — must run at a quiescent point, after
/// every recording thread has been joined.
class StageTelemetry : public Installed<StageTelemetry> {
 public:
  StageTelemetry() = default;

  StageTelemetry(const StageTelemetry&) = delete;
  StageTelemetry& operator=(const StageTelemetry&) = delete;

  void RecordStage(StageRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }

  const std::vector<StageRecord>& records() const { return records_; }

  /// Sum of the outermost (depth 0) stage times, so a stage nested in
  /// another is not counted twice.
  double TotalSeconds() const;

  /// Label of the longest recorded stage, or "" when empty.
  const std::string& PeakStage() const;

  /// Number of records whose label equals `stage`.
  size_t CountStage(const std::string& stage) const;

  /// Total seconds across records whose label equals `stage`.
  double StageSeconds(const std::string& stage) const;

  /// `{"stages":[{"name":...,"seconds":...,"counters":{...}},...],
  ///   "total_seconds":...,"peak_stage":...}`.
  std::string ToJson() const;

  void Clear() { records_.clear(); }

 private:
  std::mutex mu_;
  std::vector<StageRecord> records_;
};

/// RAII stage timer: starts on construction and, on destruction, reports
/// the stage to every process-wide backend that is installed. With a
/// StageTelemetry::Current() it appends a StageRecord; with a
/// Tracer::Current() it records a span (counters become span args); with a
/// MetricsRegistry::Current() it observes the stage's wall time in the
/// `hcd_stage_seconds{stage=...}` histogram family and bumps
/// `hcd_stage_runs_total` / `hcd_stage_counter_total`. With none installed,
/// every operation reduces to pointer tests (three relaxed atomic loads at
/// construction) — no clock read, no allocation — which is how
/// un-instrumented library calls stay free.
class ScopedStage {
 public:
  explicit ScopedStage(std::string_view stage)
      : tracer_(Tracer::Current()),
        registry_(MetricsRegistry::Current()),
        telemetry_(StageTelemetry::Current()) {
    if (Active()) Start(stage);
  }
  ~ScopedStage() {
    if (Active()) Finish();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  /// Attaches a counter to the stage record (no-op when inactive).
  void AddCounter(std::string name, uint64_t value) {
    if (Active()) record_.counters.push_back({std::move(name), value});
  }

 private:
  bool Active() const {
    return tracer_ != nullptr || registry_ != nullptr || telemetry_ != nullptr;
  }

  /// Out-of-line slow paths: Start names the record, takes the thread's
  /// nesting depth and reads the clock; Finish reports to whichever
  /// backends are present.
  void Start(std::string_view stage);
  void Finish();

  Tracer* tracer_;
  MetricsRegistry* registry_;
  StageTelemetry* telemetry_;
  StageRecord record_;
  std::chrono::steady_clock::time_point start_;
  uint64_t start_ns_ = 0;
};

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
