// Serve-phase throughput: QPS scaling of concurrent metric queries against
// one immutable QuerySnapshot. The build phase (decomposition, PHCD,
// freeze, eager search index) runs once per dataset outside the timed
// region; the timed region is N std::thread workers each scoring a mixed
// metric workload with a private reusable SearchWorkspace — the shape a
// query server's worker pool has. Reports QPS, speedup over one worker,
// and nearest-rank latency quantiles (p50/p95/p99).
//
// HCD_BENCH_SMALL=1 shrinks the datasets and the query count (CI smoke).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "common/timer.h"
#include "engine/engine.h"
#include "engine/snapshot.h"

namespace {

constexpr int kMetricCount =
    static_cast<int>(sizeof(hcd::kAllMetrics) / sizeof(hcd::kAllMetrics[0]));

struct ThroughputPoint {
  double qps = 0.0;
  hcd::bench::LatencyRecorder latencies;
};

/// Runs `queries` mixed-metric queries over `snapshot` with `workers`
/// threads (worker t serves query ids t, t+workers, ... so every worker
/// sees every metric) and returns QPS plus merged per-query latencies.
ThroughputPoint RunWorkload(const hcd::QuerySnapshot& snapshot, int workers,
                            int queries) {
  std::vector<hcd::bench::LatencyRecorder> recorders(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  hcd::Timer wall;
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&snapshot, &recorders, t, workers, queries] {
      hcd::SearchWorkspace ws;
      for (int q = t; q < queries; q += workers) {
        const hcd::Metric metric = hcd::kAllMetrics[q % kMetricCount];
        hcd::Timer timer;
        snapshot.Search(metric, &ws);
        recorders[t].Record(timer.Seconds());
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  ThroughputPoint point;
  // Clock granularity on a tiny run can hand back zero wall seconds; a
  // guarded 0 keeps the table and the baseline rows strictly finite.
  point.qps = hcd::FiniteOrZero(static_cast<double>(queries) / wall.Seconds());
  for (const auto& r : recorders) point.latencies.Merge(r);
  return point;
}

}  // namespace

int main() {
  hcd::bench::PrintHardwareBanner(
      "Query throughput: concurrent Search over one QuerySnapshot");
  const int queries = hcd::bench::SmallBenchRequested() ? 400 : 20000;
  std::printf("(%d mixed-metric queries per point; latencies are "
              "nearest-rank quantiles)\n\n",
              queries);
  std::printf("%-4s %8s | %8s %10s %8s | %10s %10s %10s\n", "ds", "|T|",
              "workers", "QPS", "speedup", "p50 (us)", "p95 (us)",
              "p99 (us)");

  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    hcd::HcdEngine engine(&ds.graph);
    const hcd::QuerySnapshot snapshot = engine.Snapshot();
    double base_qps = 0.0;
    for (int workers : hcd::bench::ThreadSweep()) {
      const ThroughputPoint point = RunWorkload(snapshot, workers, queries);
      if (workers == 1) base_qps = point.qps;
      // Baseline row carries the wall seconds of the whole workload (QPS is
      // recoverable as queries/seconds).
      hcd::bench::ReportBaseline(
          "query_throughput", ds.name, workers,
          hcd::FiniteOrZero(static_cast<double>(queries) / point.qps),
          {{"qps", point.qps}});
      std::printf("%-4s %8u | %8d %10.0f %7.2fx | %10.1f %10.1f %10.1f\n",
                  ds.name.c_str(), snapshot.flat().NumNodes(), workers,
                  point.qps, hcd::FiniteOrZero(point.qps / base_qps),
                  point.latencies.P50() * 1e6, point.latencies.P95() * 1e6,
                  point.latencies.P99() * 1e6);
    }
  }
  return 0;
}
