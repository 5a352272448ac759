#include "common/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/telemetry.h"

namespace hcd {
namespace {

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NextTracerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Fractional microseconds with nanosecond resolution, the unit Chrome
/// trace events use for ts / dur.
std::string NsToMicrosJson(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

std::string TraceIdHex(uint64_t id) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%llx",
                static_cast<unsigned long long>(id));
  return buf;
}

Tracer::Tracer(size_t max_spans_per_thread)
    : max_spans_per_thread_(max_spans_per_thread),
      id_(NextTracerId()),
      epoch_ns_(SteadyNowNs()) {}

uint64_t Tracer::NowNs() const { return SteadyNowNs() - epoch_ns_; }

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  // Cache keyed by the tracer's process-unique id, not its address, so a
  // new tracer reusing a freed tracer's address can never hit a stale
  // buffer pointer.
  struct TlsSlot {
    uint64_t tracer_id = 0;
    ThreadBuffer* buffer = nullptr;
  };
  thread_local TlsSlot slot;
  if (slot.tracer_id == id_) return slot.buffer;

  std::lock_guard<std::mutex> lock(register_mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<uint32_t>(buffers_.size());
  buffer->spans.reserve(std::min(max_spans_per_thread_, size_t{256}));
  slot = {id_, buffer};
  return buffer;
}

void Tracer::RecordSpan(TraceSpan span) {
  ThreadBuffer* buffer = BufferForThisThread();
  if (buffer->spans.size() >= max_spans_per_thread_) {
    ++buffer->dropped;
    return;
  }
  buffer->spans.push_back(std::move(span));
  buffer->published.store(buffer->spans.size(), std::memory_order_release);
}

std::vector<TraceSpanRecord> Tracer::CollectSpans() const {
  std::vector<TraceSpanRecord> out;
  std::lock_guard<std::mutex> lock(register_mu_);
  for (const auto& buffer : buffers_) {
    const size_t n = buffer->published.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; ++i) {
      out.push_back({buffer->tid, buffer->spans[i]});
    }
  }
  return out;
}

std::vector<TraceSpanRecord> Tracer::Drain() {
  std::vector<TraceSpanRecord> out = CollectSpans();
  PublishDroppedSpans();
  std::lock_guard<std::mutex> lock(register_mu_);
  for (auto& buffer : buffers_) {
    buffer->spans.clear();
    buffer->published.store(0, std::memory_order_release);
  }
  return out;
}

void Tracer::PublishDroppedSpans() {
  std::lock_guard<std::mutex> lock(register_mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->dropped;
  const uint64_t delta = total - published_dropped_;
  if (delta == 0) return;
  if (MetricsRegistry* registry = MetricsRegistry::Current()) {
    registry
        ->GetCounter("hcd_trace_dropped_spans_total",
                     "Trace spans discarded by full per-thread buffers.")
        ->Increment(delta);
    published_dropped_ = total;
  }
}

std::string Tracer::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const TraceSpanRecord& r : CollectSpans()) {
    if (!first) out += ',';
    first = false;
    out.append("{\"name\":\"");
    out.append(JsonEscape(r.span.name));
    out.append("\",\"cat\":\"hcd\",\"ph\":\"X\",\"pid\":0,\"tid\":");
    out.append(std::to_string(r.tid));
    out.append(",\"ts\":");
    out.append(NsToMicrosJson(r.span.ts_ns));
    out.append(",\"dur\":");
    out.append(NsToMicrosJson(r.span.dur_ns));
    if (!r.span.args.empty()) {
      out.append(",\"args\":{");
      for (size_t a = 0; a < r.span.args.size(); ++a) {
        const TraceArg& arg = r.span.args[a];
        if (a > 0) out += ',';
        out += '"';
        out.append(JsonEscape(arg.key));
        out.append("\":");
        if (arg.is_text) {
          out += '"';
          out.append(JsonEscape(arg.text));
          out += '"';
        } else {
          out.append(std::to_string(arg.value));
        }
      }
      out += '}';
    }
    out += '}';
  }
  out.append("]}");
  return out;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  out << ToChromeJson() << '\n';
  out.flush();
  if (!out) return Status::IoError("write failed on " + path);
  return Status::Ok();
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(register_mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->published.load(std::memory_order_acquire);
  }
  return total;
}

size_t Tracer::NumThreadsSeen() const {
  std::lock_guard<std::mutex> lock(register_mu_);
  return buffers_.size();
}

uint64_t Tracer::TotalDropped() const {
  std::lock_guard<std::mutex> lock(register_mu_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->dropped;
  return total;
}

}  // namespace hcd
