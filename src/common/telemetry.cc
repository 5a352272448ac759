#include "common/telemetry.h"

#include <cstdio>

namespace hcd {
namespace {

// The stage record's three families: ScopedStage writes them, the Stage*
// reads below look them up.
constexpr char kSecondsFamily[] = "hcd_stage_seconds";
constexpr char kRunsFamily[] = "hcd_stage_runs_total";
constexpr char kDetailFamily[] = "hcd_stage_counter_total";

MetricLabels StageLabel(std::string_view stage) {
  return {{"stage", std::string(stage)}};
}

}  // namespace

void ScopedStage::Start(std::string_view stage) {
  stage_ = stage;
  start_ = std::chrono::steady_clock::now();
}

void ScopedStage::Finish() {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const MetricLabels stage_label = StageLabel(stage_);
  registry_
      ->GetHistogram(kSecondsFamily,
                     "Wall time of pipeline stages by stage name", stage_label)
      ->Observe(seconds);
  registry_
      ->GetCounter(kRunsFamily, "Completed pipeline stage executions",
                   stage_label)
      ->Increment();
}

void ScopedStage::CountInRegistry(std::string_view name, uint64_t value) {
  registry_
      ->GetCounter(kDetailFamily, "Accumulated per-stage detail counters",
                   {{"stage", stage_}, {"counter", std::string(name)}})
      ->Increment(value);
}

double StageSeconds(const MetricsRegistry& registry, std::string_view stage) {
  const Histogram* h =
      registry.FindHistogram(kSecondsFamily, StageLabel(stage));
  return h != nullptr ? h->Sum() : 0.0;
}

uint64_t StageRuns(const MetricsRegistry& registry, std::string_view stage) {
  const Counter* c = registry.FindCounter(kRunsFamily, StageLabel(stage));
  return c != nullptr ? c->Value() : 0;
}

uint64_t StageObservations(const MetricsRegistry& registry,
                           std::string_view stage) {
  const Histogram* h =
      registry.FindHistogram(kSecondsFamily, StageLabel(stage));
  return h != nullptr ? h->TotalCount() : 0;
}

uint64_t StageDetail(const MetricsRegistry& registry, std::string_view stage,
                     std::string_view counter) {
  const Counter* c = registry.FindCounter(
      kDetailFamily,
      {{"stage", std::string(stage)}, {"counter", std::string(counter)}});
  return c != nullptr ? c->Value() : 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace hcd
