#ifndef HCD_COMMON_TRACE_H_
#define HCD_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/installed.h"
#include "common/status.h"

namespace hcd {

/// One key/value annotation on a span; either a small integer or a short
/// string (rendered into the Chrome trace event's "args" object).
struct TraceArg {
  std::string key;
  uint64_t value = 0;
  std::string text;     ///< used instead of `value` when `is_text`
  bool is_text = false;
};

/// One completed span: a name, its start offset from the tracer epoch, and
/// its duration, both in nanoseconds. The owning thread's trace id is kept
/// per buffer, not per span.
struct TraceSpan {
  std::string name;
  uint64_t ts_ns = 0;
  uint64_t dur_ns = 0;
  std::vector<TraceArg> args;
};

/// A span with the recording thread's trace id attached, as returned by
/// Tracer::CollectSpans.
struct TraceSpanRecord {
  uint32_t tid = 0;
  TraceSpan span;
};

/// Low-overhead span tracer. Each recording thread appends completed spans
/// to its own buffer (registered once under a mutex, then written without
/// any locking), so instrumenting the inside of parallel regions costs one
/// clock read per span edge plus the append. Export renders every buffer as
/// Chrome trace-event JSON loadable in Perfetto / chrome://tracing.
///
/// Enabling is process-wide: Install() (installed.h) publishes the tracer so
/// that `ScopedSpan` (and the `ScopedStage` bridge in telemetry.h) pick it
/// up anywhere in the library. With no tracer installed the instrumentation
/// compiles down to one relaxed atomic load and a null test per span — no
/// allocation, no clock read (asserted by tests/trace_test.cc and measured
/// by bench_micro).
///
/// Thread-safety contract: RecordSpan may be called from any number of
/// threads concurrently (each writes only its own buffer). The read side —
/// CollectSpans / ToChromeJson / WriteChromeJson / Drain / NumSpans — must
/// run at a quiescent point: after every recording thread has been joined,
/// or past the implicit barrier of the OpenMP region that recorded. The
/// per-buffer published-size counter uses release/acquire so a reader that
/// is ordered after the writers (join / barrier) sees fully written spans.
class Tracer : public Installed<Tracer> {
 public:
  /// `max_spans_per_thread` bounds memory for long-lived processes: once a
  /// thread's buffer is full, further spans on that thread are counted in
  /// TotalDropped() and discarded. Spans stay readable after Uninstall()
  /// until the tracer is destroyed.
  explicit Tracer(size_t max_spans_per_thread = size_t{1} << 20);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Nanoseconds since this tracer's construction (steady clock).
  uint64_t NowNs() const;

  /// Appends one completed span to the calling thread's buffer. First call
  /// on a thread registers a buffer (mutex); later calls are lock-free.
  void RecordSpan(TraceSpan span);

  /// All spans recorded so far, buffer by buffer in thread-registration
  /// order (spans within a buffer are in completion order). Quiescent-only.
  std::vector<TraceSpanRecord> CollectSpans() const;

  /// Collects every span and resets all buffers (registered threads keep
  /// their buffers and trace ids). Quiescent-only; lets a long-lived server
  /// ship trace chunks periodically without unbounded growth. Also
  /// publishes drop counts (see PublishDroppedSpans).
  std::vector<TraceSpanRecord> Drain();

  /// Publishes the spans dropped by full buffers since the last publish
  /// into the installed metrics registry's `hcd_trace_dropped_spans_total`
  /// counter (no-op without a registry; TotalDropped() keeps the lifetime
  /// figure either way). Drain() calls this; export paths that keep their
  /// spans (WriteChromeJson at CLI exit) call it directly so a metrics
  /// dump accounts for overflow even when nothing drained. Quiescent-only.
  void PublishDroppedSpans();

  /// `{"displayTimeUnit":"ns","traceEvents":[...]}` with one complete
  /// ("ph":"X") event per span: ts/dur in fractional microseconds, tid the
  /// buffer's trace id. Quiescent-only.
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`. Quiescent-only.
  Status WriteChromeJson(const std::string& path) const;

  size_t NumSpans() const;          ///< total spans held. Quiescent-only.
  size_t NumThreadsSeen() const;    ///< buffers registered so far.
  uint64_t TotalDropped() const;    ///< spans discarded by full buffers.

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<TraceSpan> spans;
    /// Count of fully written spans; release-stored by the owning thread
    /// after each append so a quiescent reader's acquire load covers the
    /// span contents (and the vector's storage across reallocation).
    std::atomic<size_t> published{0};
    uint64_t dropped = 0;  ///< owner-written; read at quiescence
  };

  ThreadBuffer* BufferForThisThread();

  const size_t max_spans_per_thread_;
  const uint64_t id_;            ///< process-unique, for the TLS cache
  const uint64_t epoch_ns_;      ///< steady-clock origin of ts_ns
  mutable std::mutex register_mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  uint64_t published_dropped_ = 0;  ///< drops already sent to the registry
};

/// "0x<hex>" rendering for request trace ids in span args and structured
/// logs. A string survives JSON round trips exactly; a u64 above 2^53
/// would lose bits as a JSON number in Perfetto and friends.
std::string TraceIdHex(uint64_t id);

/// RAII span: captures the start time on construction and records a
/// completed span on destruction. With a null tracer every member is a
/// pointer test — safe and free on un-instrumented paths.
class ScopedSpan {
 public:
  /// Records into the process-wide tracer (no-op when none is installed).
  explicit ScopedSpan(const char* name) : ScopedSpan(Tracer::Current(), name) {}

  ScopedSpan(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    span_.name = name;
    span_.ts_ns = tracer_->NowNs();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.dur_ns = tracer_->NowNs() - span_.ts_ns;
    tracer_->RecordSpan(std::move(span_));
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric argument (no-op without a tracer).
  void AddArg(const char* key, uint64_t value) {
    if (tracer_ != nullptr) span_.args.push_back({key, value, "", false});
  }

  /// Attaches a string argument (no-op without a tracer).
  void AddArg(const char* key, std::string text) {
    if (tracer_ != nullptr) {
      span_.args.push_back({key, 0, std::move(text), true});
    }
  }

 private:
  Tracer* tracer_;
  TraceSpan span_;
};

}  // namespace hcd

#endif  // HCD_COMMON_TRACE_H_
