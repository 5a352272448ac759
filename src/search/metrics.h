#ifndef HCD_SEARCH_METRICS_H_
#define HCD_SEARCH_METRICS_H_

#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "hcd/primary_values.h"

namespace hcd {

/// Community scoring metrics (Section II-D), normalized so that higher is
/// better. Type-A metrics depend on n(S), m(S), b(S); type-B metrics depend
/// on triangle and triplet counts.
enum class Metric {
  kAverageDegree,
  kInternalDensity,
  kCutRatio,
  kConductance,
  kModularity,
  kClusteringCoefficient,
  /// 1 / (1 + b(S)/n(S)): inverse of the expansion (boundary edges per
  /// member), normalized into (0, 1].
  kExpansion,
  /// m(S) / (m(S) + b(S)): fraction of the community's edge mass that stays
  /// inside (a bounded form of separability m_in/m_out).
  kSeparability,
  /// Delta(S) / C(n(S), 3): fraction of vertex triples that close.
  kTriangleDensity,
};

/// All metrics, for iteration in tests and benchmarks.
inline constexpr Metric kAllMetrics[] = {
    Metric::kAverageDegree,  Metric::kInternalDensity,
    Metric::kCutRatio,       Metric::kConductance,
    Metric::kModularity,     Metric::kClusteringCoefficient,
    Metric::kExpansion,      Metric::kSeparability,
    Metric::kTriangleDensity,
};

// A core index keeps one best-node table per metric.
static_assert(std::size(kAllMetrics) == kNumBestTables);

/// True for metrics defined on high-order motifs (Section II-D's type-B);
/// false for the n/m/b-based type-A metrics.
bool IsTypeB(Metric metric);

const char* MetricName(Metric metric);

/// Parses a metric by its MetricName (e.g. "conductance"); returns false
/// (and leaves `*metric` untouched) on an unknown name. Shared by the CLI,
/// the examples and the benchmarks, so the accepted spellings are exactly
/// the names MetricName prints.
bool ParseMetric(std::string_view name, Metric* metric);

/// Whole-graph quantities some metrics need (cut ratio, modularity).
struct GraphGlobals {
  uint64_t n = 0;
  uint64_t m = 0;
};

/// Evaluates `metric` on primary values `pv` (uses `globals` where the
/// definition needs n or m of the whole graph). Degenerate denominators
/// (empty subgraph, whole graph for cut ratio, triplet-free subgraph)
/// evaluate to 0 except cut ratio on the whole graph, which is 1 (no
/// boundary edge can exist).
double EvaluateMetric(Metric metric, const PrimaryValues& pv,
                      const GraphGlobals& globals);

}  // namespace hcd

#endif  // HCD_SEARCH_METRICS_H_
