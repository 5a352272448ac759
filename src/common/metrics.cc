#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "common/telemetry.h"

namespace hcd {
namespace {

std::string DoubleToText(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

/// Prometheus label-value escaping: backslash, double quote and newline.
std::string PromEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += ch;
    }
  }
  return out;
}

/// `{key="value",...}` or "" for no labels; also the child identity key.
std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += PromEscape(labels[i].second);
    out += '"';
  }
  out += '}';
  return out;
}

/// Labels with one extra pair appended (for histogram `le` series).
std::string RenderLabelsWith(const MetricLabels& labels,
                             const std::string& key,
                             const std::string& value) {
  MetricLabels extended = labels;
  extended.emplace_back(key, value);
  return RenderLabels(extended);
}

const char* KindName(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

void Histogram::Observe(double seconds) {
  if (!(seconds >= 0.0)) seconds = 0.0;  // negatives and NaN clamp to zero
  size_t bucket = kNumFiniteBuckets;     // overflow unless a bound fits
  for (size_t i = 0; i < kNumFiniteBuckets; ++i) {
    if (seconds <= BucketBound(i)) {
      bucket = i;
      break;
    }
  }
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  const uint64_t add =
      ns >= 1.8e19 ? uint64_t{1} << 62 : static_cast<uint64_t>(ns);
  sum_ns_.fetch_add(add, std::memory_order_relaxed);
}

uint64_t Histogram::TotalCount() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= kNumFiniteBuckets; ++i) total += BucketCount(i);
  return total;
}

double Histogram::Sum() const {
  return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) * 1e-9;
}

double HistogramBucketQuantile(
    const uint64_t (&buckets)[Histogram::kNumFiniteBuckets + 1], double q) {
  uint64_t total = 0;
  for (size_t i = 0; i <= Histogram::kNumFiniteBuckets; ++i) {
    total += buckets[i];
  }
  if (total == 0) return 0.0;
  if (!(q > 0.0)) q = 0.0;  // NaN and negatives clamp to the minimum rank
  if (q > 1.0) q = 1.0;
  // Nearest-rank definition: the smallest value with at least ceil(q * N)
  // observations at or below it, matching LatencyRecorder::Quantile.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::min(std::max<uint64_t>(rank, 1), total);
  uint64_t below = 0;  // observations in buckets before the current one
  for (size_t i = 0; i <= Histogram::kNumFiniteBuckets; ++i) {
    const uint64_t count = buckets[i];
    if (below + count < rank) {
      below += count;
      continue;
    }
    if (i == Histogram::kNumFiniteBuckets) {
      // Overflow has no upper bound; the largest finite bound is the best
      // conservative answer.
      return Histogram::BucketBound(Histogram::kNumFiniteBuckets - 1);
    }
    const double lower = i == 0 ? 0.0 : Histogram::BucketBound(i - 1);
    const double upper = Histogram::BucketBound(i);
    const double frac =
        static_cast<double>(rank - below) / static_cast<double>(count);
    return lower + (upper - lower) * frac;
  }
  return Histogram::BucketBound(Histogram::kNumFiniteBuckets - 1);
}

double Histogram::Quantile(double q) const {
  uint64_t buckets[kNumFiniteBuckets + 1];
  for (size_t i = 0; i <= kNumFiniteBuckets; ++i) buckets[i] = BucketCount(i);
  return HistogramBucketQuantile(buckets, q);
}

MetricsRegistry::Instrument* MetricsRegistry::GetInstrument(
    const std::string& name, const std::string& help,
    const MetricLabels& labels, Kind kind) {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = families_[name];
  if (family.children.empty()) {
    family.kind = kind;
    family.help = help;
  } else {
    HCD_CHECK(family.kind == kind)
        << "metric '" << name << "' re-registered as a different type";
  }
  if (family.help.empty() && !help.empty()) family.help = help;
  Instrument& child = family.children[RenderLabels(labels)];
  if (child.labels.empty() && !labels.empty()) child.labels = labels;
  switch (kind) {
    case Kind::kCounter:
      if (!child.counter) child.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      if (!child.gauge) child.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      if (!child.histogram) child.histogram = std::make_unique<Histogram>();
      break;
  }
  return &child;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help,
                                     const MetricLabels& labels) {
  return GetInstrument(name, help, labels, Kind::kCounter)->counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help,
                                 const MetricLabels& labels) {
  return GetInstrument(name, help, labels, Kind::kGauge)->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help,
                                         const MetricLabels& labels) {
  return GetInstrument(name, help, labels, Kind::kHistogram)->histogram.get();
}

const MetricsRegistry::Instrument* MetricsRegistry::FindInstrument(
    const std::string& name, const MetricLabels& labels, Kind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto family = families_.find(name);
  if (family == families_.end() || family->second.kind != kind) return nullptr;
  const auto child = family->second.children.find(RenderLabels(labels));
  return child == family->second.children.end() ? nullptr : &child->second;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const MetricLabels& labels) const {
  const Instrument* i = FindInstrument(name, labels, Kind::kCounter);
  return i != nullptr ? i->counter.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(
    const std::string& name, const MetricLabels& labels) const {
  const Instrument* i = FindInstrument(name, labels, Kind::kHistogram);
  return i != nullptr ? i->histogram.get() : nullptr;
}

std::string MetricsRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " " +
           KindName(static_cast<int>(family.kind)) + "\n";
    for (const auto& [label_str, child] : family.children) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + label_str + " " +
                 std::to_string(child.counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += name + label_str + " " + DoubleToText(child.gauge->Value()) +
                 "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *child.histogram;
          uint64_t cumulative = 0;
          for (size_t i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
            cumulative += h.BucketCount(i);
            out += name + "_bucket" +
                   RenderLabelsWith(child.labels, "le",
                                    DoubleToText(Histogram::BucketBound(i))) +
                   " " + std::to_string(cumulative) + "\n";
          }
          cumulative += h.BucketCount(Histogram::kNumFiniteBuckets);
          out += name + "_bucket" +
                 RenderLabelsWith(child.labels, "le", "+Inf") + " " +
                 std::to_string(cumulative) + "\n";
          out += name + "_sum" + label_str + " " + DoubleToText(h.Sum()) +
                 "\n";
          out += name + "_count" + label_str + " " +
                 std::to_string(cumulative) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, family] : families_) {
    for (const auto& [label_str, child] : family.children) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += JsonEscape(name);
      out += "\",\"type\":\"";
      out += KindName(static_cast<int>(family.kind));
      out += "\",\"labels\":{";
      for (size_t i = 0; i < child.labels.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += JsonEscape(child.labels[i].first);
        out += "\":\"";
        out += JsonEscape(child.labels[i].second);
        out += '"';
      }
      out += "}";
      switch (family.kind) {
        case Kind::kCounter:
          out += ",\"value\":";
          out += std::to_string(child.counter->Value());
          break;
        case Kind::kGauge:
          out += ",\"value\":";
          out += DoubleToText(child.gauge->Value());
          break;
        case Kind::kHistogram: {
          const Histogram& h = *child.histogram;
          out += ",\"count\":";
          out += std::to_string(h.TotalCount());
          out += ",\"sum\":";
          out += DoubleToText(h.Sum());
          out += ",\"buckets\":[";
          bool first_bucket = true;
          for (size_t i = 0; i <= Histogram::kNumFiniteBuckets; ++i) {
            const uint64_t count = h.BucketCount(i);
            if (count == 0) continue;
            if (!first_bucket) out += ',';
            first_bucket = false;
            out += "[";
            out += i < Histogram::kNumFiniteBuckets
                       ? DoubleToText(Histogram::BucketBound(i))
                       : std::string("null");
            out += ',';
            out += std::to_string(count);
            out += ']';
          }
          out += "]";
          break;
        }
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace hcd
