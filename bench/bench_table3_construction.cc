// Table III: time cost of HCD construction.
//
// Per dataset: PHCD serial seconds with the relative position of the
// union-find lower bound LB (LB/PHCD, "x") and the serial LCPS
// (LCPS/PHCD, "x"); then PHCD at the maximum swept thread count with LB and
// the local-k-core-search experiment RC at the same thread count.
//
// Construction times come from the per-stage telemetry: each configuration
// runs on a fresh HcdEngine (borrowing the shared dataset) under its own
// stage collector, and its "construction" stage isolates the build from
// decomposition exactly like the paper's measurement.

#include <cstdio>

#include "bench/bench_datasets.h"
#include "bench/bench_util.h"
#include "engine/engine.h"
#include "hcd/local_core_search.h"
#include "hcd/lower_bound.h"

namespace {

constexpr char kBuild[] = "construction";

/// Best-of-`reps` seconds of `stage` ("construction" or
/// "construction.freeze") over fresh engines of one configuration on a
/// borrowed graph, each run up to Flat().
double StageSeconds(const hcd::Graph& g, hcd::EngineAlgo algo, int threads,
                    const char* stage, int reps = 3) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    hcd::StageTelemetry telemetry;
    telemetry.Install();
    hcd::HcdEngine engine(&g, {.algo = algo, .threads = threads});
    engine.Flat();
    telemetry.Uninstall();
    const double s = telemetry.StageSeconds(stage);
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main() {
  hcd::bench::PrintHardwareBanner("Table III: time cost of HCD construction");
  const int pmax = hcd::bench::ThreadSweep().back();
  std::printf("%-4s | %10s %7s %7s | %10s %7s %8s | %8s\n", "ds", "PHCD(1) s",
              "LB", "LCPS", "PHCD(p) s", "LB", "RC", "Frz(p) s");
  std::printf("     |  (serial)  (x)     (x)  |  (p=%-2d)     (x)     (x)\n\n",
              pmax);

  for (auto& ds : hcd::bench::LoadBenchSuite()) {
    const hcd::Graph& g = ds.graph;
    // One shared engine provides the decomposition and a forest for the
    // LB / RC baselines, which are not engine stages.
    hcd::HcdEngine engine(&g, {.algo = hcd::EngineAlgo::kPhcd});
    const hcd::CoreDecomposition& cd = engine.Coreness();
    const hcd::HcdForest& forest = engine.Forest();

    const double phcd1 = StageSeconds(g, hcd::EngineAlgo::kPhcd, 1, kBuild);
    const double lcps = StageSeconds(g, hcd::EngineAlgo::kLcps, 1, kBuild);
    const double lb1 =
        hcd::bench::TimeWithThreads(1, [&] { hcd::UnionFindLowerBound(g, cd); }, 3);

    const double phcdp = StageSeconds(g, hcd::EngineAlgo::kPhcd, pmax, kBuild);
    const double lbp = hcd::bench::TimeWithThreads(
        pmax, [&] { hcd::UnionFindLowerBound(g, cd); }, 3);
    const double rcp = hcd::bench::TimeWithThreads(
        pmax, [&] { hcd::RcComputeParents(g, cd, forest); });
    const double frzp = StageSeconds(g, hcd::EngineAlgo::kPhcd, pmax,
                                     "construction.freeze");

    hcd::bench::ReportBaseline("table3_phcd", ds.name, 1, phcd1);
    hcd::bench::ReportBaseline("table3_lcps", ds.name, 1, lcps);
    hcd::bench::ReportBaseline("table3_phcd", ds.name, pmax, phcdp);
    hcd::bench::ReportBaseline("table3_freeze", ds.name, pmax, frzp);

    std::printf("%-4s | %10.3f %6.2fx %6.2fx | %10.3f %6.2fx %7.2fx | %8.3f\n",
                ds.name.c_str(), phcd1, lb1 / phcd1, lcps / phcd1, phcdp,
                lbp / phcdp, rcp / phcdp, frzp);
  }
  std::printf(
      "\nLB = pivot union-find over every edge (lower bound for the\n"
      "paradigm); LCPS = serial state of the art; RC = local k-core search\n"
      "(the divide-and-conquer primitive). Columns are ratios to PHCD of\n"
      "the same thread count, matching the paper's Table III layout.\n"
      "Frz = parallel freeze of the forest into the flat query index\n"
      "(absolute seconds; one-time cost paid before the search stage).\n");
  return 0;
}
