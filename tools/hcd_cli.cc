// Command-line front end for the library: generate graphs, inspect
// statistics, build hierarchies, run subgraph search, and serve and
// benchmark the query path. Run without arguments for the usage text.
//
// All graph-consuming commands run on one shared HcdEngine, so each
// pipeline stage (load, decomposition, construction, search preprocessing)
// is computed at most once per invocation; --json's "telemetry" is the
// invocation's metrics registry, whose hcd_stage_* series hold every stage,
// including the ingest sub-stages (load.read/parse/remap/build for text,
// load.read/validate for binary). <graph> is loaded as binary when the
// path ends in ".bin", else as an edge-list text file.
//
// serve runs the socket front door (src/server) until SIGINT/SIGTERM;
// serve-bench drives a server from --connections loopback clients, against
// an in-process server (positional graph) or an external one (--connect),
// and reports QPS and tail latency. Per-layer numbers for ingest, build,
// search and serving come from bench/pipeline, not from this tool.
//
// Which command takes which flag is decided once, in kFlags: the parser
// rejects any flag whose entry does not list the command (exit 2), and the
// usage text's "flags (...)" sections are generated from the same entries.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "hcd/export.h"
#include "hcd/hierarchy_kind.h"
#include "hcd/serialize.h"
#include "hcd/stats.h"
#include "parallel/omp_utils.h"
#include "search/best_k.h"
#include "search/influential.h"
#include "search/metrics.h"
#include "search/search_index.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "truss/truss_decomposition.h"

namespace hcd::cli {
namespace {

using bench::LatencyRecorder;

/// The subcommands, in usage order. Each flag's table entry holds the set
/// of commands that accept it as a bitmask over these, and main dispatches
/// on the same value.
enum Command : unsigned {
  kGen,
  kConvert,
  kStats,
  kBuild,
  kSearch,
  kExport,
  kTruss,
  kInfluential,
  kBestK,
  kServe,
  kServeBench,
  kNumCommands,
};

/// Arguments of one subcommand: the command, its positionals in order, and
/// every flag's value (its default unless given). ParseCliArgs rejects an
/// unknown or malformed flag, and a flag the command does not take, with
/// exit 2, so a typo like `--thread=8` can never silently run with
/// defaults.
struct CliArgs {
  Command command = kNumCommands;
  std::vector<std::string> pos;
  EngineOptions options;
  bool json = false;
  std::string trace_out;    ///< empty: tracing disabled
  std::string metrics_out;  ///< empty: metrics disabled
  int queries = 1000;
  std::vector<Metric> workload{std::begin(kAllMetrics),
                               std::end(kAllMetrics)};
  int port = 0;  ///< 0: ephemeral
  std::string connect_host;
  int connect_port = -1;  ///< <0: no --connect
  int connections = 4;
  int server_workers = 0;  ///< 0: hardware threads
  int max_pending = 64;
  int distinct_k = 4;
  int pipeline = 1;  ///< in-flight queries per serve-bench connection
  bool no_cache = false;
  std::string server_metrics_out;
  double slow_query_ms = -1.0;  ///< <0: threshold disabled
  std::string slow_log_path;
  int slow_log_sample = 1024;  ///< 0: sampling disabled
  int watch_seconds = 0;       ///< 0: print one snapshot and exit
  bool server_phase_report = false;
  std::string snapshot_path;  ///< empty: build the hierarchy from the graph
};

/// Parses all of `text` as a decimal integer in [lo, hi] into `*out`. On
/// anything else (empty, trailing characters, out of range) prints
/// "error: bad <what> value '<text>' (want ...)" and returns false. The
/// one checked integer parser behind every numeric flag and positional.
template <typename T>
bool ParseInt(const char* what, const std::string& text, long long lo,
              long long hi, T* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (!text.empty() && *end == '\0' && errno == 0 && value >= lo &&
      value <= hi) {
    *out = static_cast<T>(value);
    return true;
  }
  std::string want = std::to_string(lo) + ".." + std::to_string(hi);
  if (hi == INT_MAX || hi == LLONG_MAX) {
    want = lo == 0   ? "a non-negative integer"
           : lo == 1 ? "a positive integer"
                     : "an integer >= " + std::to_string(lo);
  }
  std::fprintf(stderr, "error: bad %s value '%s' (want %s)\n", what,
               text.c_str(), want.c_str());
  return false;
}

int Usage();
int CmdStatsConnect(const CliArgs& args);

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

int WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) return Fail(Status::IoError("cannot write " + path));
  return 0;
}

/// Looks a metric up by name; on failure lists the valid names on stderr.
bool MetricByName(const std::string& name, Metric* metric) {
  if (ParseMetric(name, metric)) return true;
  std::fprintf(stderr, "unknown metric '%s'; choose from:", name.c_str());
  for (Metric m : kAllMetrics) {
    std::fprintf(stderr, " %s", MetricName(m));
  }
  std::fprintf(stderr, "\n");
  return false;
}

/// The invocation's metrics registry, installed by main for every command:
/// each stage's runs, seconds and counters are recorded there.
MetricsRegistry& Registry() { return *MetricsRegistry::Current(); }

/// Wall time of the running command; main restarts it just before the
/// command runs.
Timer command_timer;

/// The process's peak resident set so far, in MiB (getrusage's
/// ru_maxrss, which Linux reports in KiB).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Prints the shared JSON envelope: command, effective options, graph
/// shape, the process's peak resident set, optional extra fields
/// (`",\"result\":{...}"`), and the invocation's metrics registry as
/// "telemetry".
void PrintJsonReport(const char* command, const CliArgs& args,
                     HcdEngine& engine, const std::string& extra = "") {
  std::printf("{\"command\":\"%s\",\"threads\":%d,"
              "\"graph\":{\"n\":%u,\"m\":%llu},\"peak_rss_mb\":%.2f%s,"
              "\"telemetry\":%s}\n",
              command, args.options.threads, engine.graph().NumVertices(),
              static_cast<unsigned long long>(engine.graph().NumEdges()),
              PeakRssMb(), extra.c_str(), Registry().RenderJson().c_str());
}

/// Maps --snapshot (MapFlatIndex) into a shared index.
Status LoadSnapshot(const CliArgs& args,
                    std::shared_ptr<const FlatHcdIndex>* out) {
  FlatHcdIndex flat;
  HCD_RETURN_IF_ERROR(MapFlatIndex(args.snapshot_path, &flat));
  *out = std::make_shared<const FlatHcdIndex>(std::move(flat));
  return Status::Ok();
}

/// Loads <graph> (the first positional) into an engine. With --snapshot it
/// then installs the mapped snapshot as the engine's Flat() stage, so
/// hierarchy construction is skipped and queries serve straight from the
/// file's bytes. On failure prints the error and returns null.
std::unique_ptr<HcdEngine> OpenEngine(const CliArgs& args) {
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (s.ok() && !args.snapshot_path.empty()) {
    std::shared_ptr<const FlatHcdIndex> flat;
    s = LoadSnapshot(args, &flat);
    if (s.ok()) s = engine->AdoptFlat(std::move(flat));
  }
  if (s.ok()) return engine;
  Fail(s);
  return nullptr;
}

int CmdGen(const CliArgs& args) {
  const size_t max_pos = !args.pos.empty() && args.pos[0] == "onion" ? 4 : 5;
  if (args.pos.size() < 4 || args.pos.size() > max_pos) return Usage();
  const std::string& model = args.pos[0];
  const std::string& out = args.pos[1];
  // Every number is range-checked here, before any generator runs: the
  // generators assert their preconditions and would abort instead.
  uint64_t seed = 1;
  if (args.pos.size() > 4 &&
      !ParseInt("[seed]", args.pos[4], 0, LLONG_MAX, &seed)) {
    return 2;
  }
  Graph g;
  if (model == "ba") {
    VertexId n = 0;
    VertexId per_vertex = 0;
    if (!ParseInt("<n>", args.pos[2], 2, UINT32_MAX, &n) ||
        !ParseInt("<edges-per-vertex>", args.pos[3], 1, n - 1, &per_vertex)) {
      return 2;
    }
    g = BarabasiAlbert(n, per_vertex, seed);
  } else if (model == "rmat") {
    uint32_t scale = 0;
    uint64_t edges = 0;
    if (!ParseInt("<scale>", args.pos[2], 0, 31, &scale) ||
        !ParseInt("<edges>", args.pos[3], 0, LLONG_MAX, &edges)) {
      return 2;
    }
    g = RMatGraph500(scale, edges, seed);
  } else if (model == "gnm") {
    VertexId n = 0;
    uint64_t m = 0;
    if (!ParseInt("<n>", args.pos[2], 2, UINT32_MAX, &n) ||
        !ParseInt("<m>", args.pos[3], 0,
                  static_cast<long long>(uint64_t{n} * (n - 1) / 2), &m)) {
      return 2;
    }
    g = ErdosRenyiGnm(n, m, seed);
  } else if (model == "onion") {
    uint32_t k_max = 0;
    VertexId shell_size = 0;
    if (!ParseInt("<k_max>", args.pos[2], 2, UINT32_MAX, &k_max) ||
        !ParseInt("<shell_size>", args.pos[3], 0, UINT32_MAX, &shell_size)) {
      return 2;
    }
    g = PlantedHierarchy(OnionSpec(k_max, shell_size), 1);
  } else {
    return Usage();
  }
  Status s = out.ends_with(".bin") ? SaveBinary(g, out)
                                   : SaveEdgeListText(g, out);
  if (!s.ok()) return Fail(s);
  if (args.json) {
    std::printf("{\"command\":\"gen\",\"out\":\"%s\",\"graph\":{\"n\":%u,"
                "\"m\":%llu}}\n",
                JsonEscape(out).c_str(), g.NumVertices(),
                static_cast<unsigned long long>(g.NumEdges()));
  } else {
    std::printf("wrote %s: n=%u m=%llu\n", out.c_str(), g.NumVertices(),
                static_cast<unsigned long long>(g.NumEdges()));
  }
  return 0;
}

int CmdConvert(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  Graph g;
  Status s = LoadGraph(args.pos[0], args.options, &g);
  if (!s.ok()) return Fail(s);
  {
    ScopedStage stage("serialize");
    s = SaveBinary(g, args.pos[1]);
  }
  if (!s.ok()) return Fail(s);
  if (args.json) {
    std::printf("{\"command\":\"convert\",\"out\":\"%s\",\"graph\":{\"n\":%u,"
                "\"m\":%llu},\"telemetry\":%s}\n",
                JsonEscape(args.pos[1]).c_str(), g.NumVertices(),
                static_cast<unsigned long long>(g.NumEdges()),
                Registry().RenderJson().c_str());
  } else {
    std::printf("converted %s -> %s (n=%u m=%llu)\n", args.pos[0].c_str(),
                args.pos[1].c_str(), g.NumVertices(),
                static_cast<unsigned long long>(g.NumEdges()));
  }
  return 0;
}

int CmdStats(const CliArgs& args) {
  if (args.connect_port >= 0) return CmdStatsConnect(args);
  if (args.watch_seconds > 0) {
    std::fprintf(stderr, "error: --watch needs --connect=HOST:PORT\n");
    return Usage();
  }
  if (args.pos.size() != 1) return Usage();
  const std::unique_ptr<HcdEngine> engine = OpenEngine(args);
  if (engine == nullptr) return 1;
  const CoreDecomposition& cd = engine->Coreness();
  const FlatHcdIndex& flat = engine->Flat();
  if (args.json) {
    std::string extra = ",\"result\":{\"k_max\":" + std::to_string(cd.k_max) +
                        ",\"tree_nodes\":" + std::to_string(flat.NumNodes()) +
                        "}";
    PrintJsonReport("stats", args, *engine, extra);
    return 0;
  }
  const Graph& g = engine->graph();
  std::printf("n         %u\n", g.NumVertices());
  std::printf("m         %llu\n", static_cast<unsigned long long>(g.NumEdges()));
  std::printf("d_avg     %.2f\n", g.AverageDegree());
  std::printf("k_max     %u\n", cd.k_max);
  std::printf("|T|       %u\n", flat.NumNodes());
  std::printf("%s", ForestStatsToString(ComputeForestStats(flat)).c_str());
  std::printf("(computed in %.3fs)\n", command_timer.Seconds());
  return 0;
}

int CmdBuild(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  const std::unique_ptr<HcdEngine> engine = OpenEngine(args);
  if (engine == nullptr) return 1;
  // A snapshot of every kind is written serve-ready: the search index's
  // flat carries the search tables, so `serve --snapshot` maps them
  // instead of re-peeling and rebuilding them.
  const FlatHcdIndex& flat = engine->Searcher().flat();
  Status s;
  {
    ScopedStage stage("serialize");
    s = SaveFlatIndex(flat, args.pos[1]);
    stage.AddCounter("nodes", flat.NumNodes());
  }
  if (!s.ok()) return Fail(s);
  if (args.json) {
    PrintJsonReport("build", args, *engine,
                    ",\"result\":{\"tree_nodes\":" +
                        std::to_string(flat.NumNodes()) + "}");
    return 0;
  }
  // Non-core kinds record kind-prefixed stage names.
  const HierarchyKind kind = args.options.hierarchy;
  const std::string prefix =
      kind == HierarchyKind::kCore
          ? ""
          : std::string(HierarchyKindName(kind)) + ".";
  std::printf("%s decomposition %.3fs, construction %.3fs (+freeze "
              "%.3fs), %u nodes\n",
              HierarchyKindName(kind),
              StageSeconds(Registry(), prefix + "decomposition"),
              StageSeconds(Registry(), prefix + "construction"),
              StageSeconds(Registry(), prefix + "construction.freeze"),
              flat.NumNodes());
  return 0;
}

int CmdSearch(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  Metric metric;
  if (!MetricByName(args.pos[1], &metric)) return 2;
  const std::unique_ptr<HcdEngine> engine = OpenEngine(args);
  if (engine == nullptr) return 1;
  const SearchIndex& searcher = engine->Searcher();
  const FlatHcdIndex& flat = engine->Flat();
  // A graph without vertices has no k-core, so no node to report.
  const TreeNodeId best = searcher.BestAtLeast(metric, 0);
  if (args.json) {
    char extra[256];
    if (best == kInvalidNode) {
      std::snprintf(extra, sizeof(extra),
                    ",\"result\":{\"metric\":\"%s\",\"found\":false}",
                    MetricName(metric));
    } else {
      std::snprintf(extra, sizeof(extra),
                    ",\"result\":{\"metric\":\"%s\",\"k\":%u,\"size\":%llu,"
                    "\"score\":%.9g}",
                    MetricName(metric), flat.Level(best),
                    static_cast<unsigned long long>(flat.CoreSize(best)),
                    searcher.Score(metric, best));
    }
    PrintJsonReport("search", args, *engine, extra);
    return 0;
  }
  if (best == kInvalidNode) {
    std::printf("no k-core under %s: the graph has no vertices\n",
                MetricName(metric));
    return 0;
  }
  std::printf("best k-core under %s: k=%u |S|=%llu score=%.6f (%.3fs)\n",
              MetricName(metric), flat.Level(best),
              static_cast<unsigned long long>(flat.CoreSize(best)),
              searcher.Score(metric, best), command_timer.Seconds());
  return 0;
}

int CmdExport(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  const std::unique_ptr<HcdEngine> engine = OpenEngine(args);
  if (engine == nullptr) return 1;
  const FlatHcdIndex& flat = engine->Flat();
  {
    ScopedStage stage("serialize");
    std::ofstream out(args.pos[1]);
    if (!out) {
      return Fail(Status::IoError("cannot write " + args.pos[1]));
    }
    out << ForestToDot(flat);
  }
  if (args.json) {
    PrintJsonReport("export", args, *engine,
                    ",\"result\":{\"tree_nodes\":" +
                        std::to_string(flat.NumNodes()) + "}");
    return 0;
  }
  std::printf("wrote %s (%u nodes)\n", args.pos[1].c_str(), flat.NumNodes());
  return 0;
}

int CmdBestK(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  Metric metric;
  if (!MetricByName(args.pos[1], &metric)) return 2;
  const std::unique_ptr<HcdEngine> engine = OpenEngine(args);
  if (engine == nullptr) return 1;
  const CoreDecomposition& cd = engine->Coreness();
  BestKResult r;
  {
    std::optional<ThreadCountGuard> guard;
    if (args.options.threads > 0) guard.emplace(args.options.threads);
    ScopedStage stage("bestk");
    r = FindBestK(engine->graph(), cd, metric);
  }
  if (args.json) {
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ",\"result\":{\"metric\":\"%s\",\"best_k\":%u,"
                  "\"size\":%llu,\"score\":%.9g}",
                  MetricName(metric), r.best_k,
                  static_cast<unsigned long long>(r.per_k[r.best_k].n_s),
                  r.best_score);
    PrintJsonReport("bestk", args, *engine, extra);
    return 0;
  }
  std::printf("best k for the k-core set under %s: k=%u score=%.6f "
              "(|K_k|=%llu vertices, %.3fs)\n",
              args.pos[1].c_str(), r.best_k, r.best_score,
              static_cast<unsigned long long>(r.per_k[r.best_k].n_s),
              StageSeconds(Registry(), "bestk"));
  return 0;
}

int CmdTruss(const CliArgs& args) {
  if (args.pos.size() != 1) return Usage();
  CliArgs truss_args = args;
  truss_args.options.hierarchy = HierarchyKind::kTruss;
  const std::unique_ptr<HcdEngine> engine = OpenEngine(truss_args);
  if (engine == nullptr) return 1;
  const TrussDecomposition& td = engine->Trussness();
  const SearchIndex& searcher = engine->Searcher();
  const FlatHcdIndex& flat = searcher.flat();
  // The densest k-truss (a truss index scores by density whatever the
  // metric); a graph without edges has none.
  const Metric density = Metric::kAverageDegree;
  const TreeNodeId best = searcher.BestAtLeast(density, 0);
  if (args.json) {
    std::string extra = ",\"result\":{\"k_max\":" + std::to_string(td.k_max) +
                        ",\"tree_nodes\":" + std::to_string(flat.NumNodes());
    extra += best == kInvalidNode
                 ? ",\"found\":false}"
                 : ",\"densest_k\":" + std::to_string(flat.Level(best)) +
                       ",\"densest_size\":" +
                       std::to_string(searcher.Primary()[best].n_s) + "}";
    PrintJsonReport("truss", args, *engine, extra);
    return 0;
  }
  std::printf("truss k_max  %u\n", td.k_max);
  std::printf("tree nodes   %u\n", flat.NumNodes());
  if (best == kInvalidNode) {
    std::printf("densest      none: the graph has no edges\n");
  } else {
    std::printf("densest      k=%u |V|=%llu |E|=%llu avg_deg=%.2f\n",
                flat.Level(best),
                static_cast<unsigned long long>(searcher.Primary()[best].n_s),
                static_cast<unsigned long long>(flat.CoreSize(best)),
                searcher.Score(density, best));
  }
  std::printf("(computed in %.3fs)\n", command_timer.Seconds());
  return 0;
}

int CmdInfluential(const CliArgs& args) {
  if (args.pos.size() < 3 || args.pos.size() > 4) return Usage();
  uint32_t k = 0;
  uint32_t r = 0;
  uint64_t seed = 1;
  if (!ParseInt("<k>", args.pos[1], 0, UINT32_MAX, &k) ||
      !ParseInt("<r>", args.pos[2], 0, UINT32_MAX, &r) ||
      (args.pos.size() > 3 &&
       !ParseInt("[seed]", args.pos[3], 0, LLONG_MAX, &seed))) {
    return 2;
  }
  const std::unique_ptr<HcdEngine> engine = OpenEngine(args);
  if (engine == nullptr) return 1;
  const Graph& g = engine->graph();
  // Synthetic weights; a real deployment would load per-vertex scores.
  Rng rng(seed);
  std::vector<double> weights(g.NumVertices());
  for (double& w : weights) w = rng.UniformDouble() * 100.0;
  std::vector<InfluentialCommunity> top;
  {
    std::optional<ThreadCountGuard> guard;
    if (args.options.threads > 0) guard.emplace(args.options.threads);
    ScopedStage stage("influential");
    top = TopInfluentialCommunities(g, weights, k, r);
  }
  if (args.json) {
    std::string extra = ",\"result\":{\"communities\":[";
    for (size_t i = 0; i < top.size(); ++i) {
      if (i > 0) extra += ',';
      char buf[96];
      std::snprintf(buf, sizeof(buf), "{\"influence\":%.9g,\"size\":%zu}",
                    top[i].influence, top[i].vertices.size());
      extra += buf;
    }
    extra += "]}";
    PrintJsonReport("influential", args, *engine, extra);
    return 0;
  }
  std::printf("top-%u %u-influential communities (synthetic weights, seed "
              "%llu):\n",
              r, k, static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < top.size(); ++i) {
    std::printf("  #%zu influence=%.4f size=%zu\n", i + 1, top[i].influence,
                top[i].vertices.size());
  }
  if (top.empty()) std::printf("  (empty %u-core)\n", k);
  return 0;
}

/// The merged latencies and wall time of one RunPool call.
struct PoolRun {
  LatencyRecorder latencies;
  double wall = 0.0;

  /// Samples per second, guarded: a degenerate run (clock granularity on
  /// a tiny run, zero samples) must report 0, never `inf`/`nan`, which
  /// would not parse in the JSON report.
  double Qps() const {
    return FiniteOrZero(static_cast<double>(latencies.Count()) / wall);
  }
};

/// Runs `body(t, &recorder)` on `workers` threads, t in [0, workers), each
/// recording into a private LatencyRecorder. Joins, merges the recorders,
/// and times the whole pool from the first spawn to the last join.
PoolRun RunPool(int workers,
                const std::function<void(int, LatencyRecorder*)>& body) {
  std::vector<LatencyRecorder> recorders(workers);
  PoolRun run;
  Timer timer;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] { body(t, &recorders[t]); });
  }
  for (std::thread& worker : pool) worker.join();
  run.wall = timer.Seconds();
  for (const LatencyRecorder& r : recorders) run.latencies.Merge(r);
  return run;
}

/// `"latency_us":{"p50":..,"p95":..,"p99":..}` of `r`.
std::string LatencyJson(const LatencyRecorder& r) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
                r.P50() * 1e6, r.P95() * 1e6, r.P99() * 1e6);
  return buf;
}

/// The QPS and p50/p95/p99 lines of serve-bench's prose report.
void PrintQpsAndTail(const PoolRun& run) {
  std::printf("QPS   %.0f\n", run.Qps());
  std::printf("p50   %.1f us\n", run.latencies.P50() * 1e6);
  std::printf("p95   %.1f us\n", run.latencies.P95() * 1e6);
  std::printf("p99   %.1f us\n", run.latencies.P99() * 1e6);
}

std::atomic<bool> g_serve_stop{false};

void ServeSignalHandler(int) { g_serve_stop.store(true); }

/// Sleeps until SIGINT/SIGTERM arrives, or for `seconds` when positive;
/// returns whether a signal ended the wait (g_serve_stop stays set).
bool WaitForSignal(int seconds) {
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  for (int tick = 0;
       !g_serve_stop.load() && (seconds <= 0 || tick < seconds * 10); ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return g_serve_stop.load();
}

/// Minimal scanner over the server's fixed-layout stats JSON (see
/// QueryServer::RenderStatsJson): the number after the first `"key":` at or
/// after `from`, or 0 when there is none. Good enough for rendering a
/// document we emit ourselves; not a general JSON parser.
double JsonNumber(const std::string& json, const char* key, size_t from) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// One "  <name>  mean  p50  p95  p99 (count)" row from the quantile
/// object that follows `from` (a position inside the stats JSON just
/// before the object's keys).
void PrintQuantileRow(const std::string& json, const char* name,
                      size_t from) {
  std::printf("  %-8s %10.1f %10.1f %10.1f %10.1f %12.0f\n", name,
              JsonNumber(json, "mean_us", from),
              JsonNumber(json, "p50_us", from),
              JsonNumber(json, "p95_us", from),
              JsonNumber(json, "p99_us", from),
              JsonNumber(json, "count", from));
}

/// The lifetime phase-attribution table of a kStats document: a header
/// row, the overall latency, then one row per request phase.
void PrintPhaseTable(const std::string& json) {
  const size_t total_pos = json.find("\"total\":{");
  std::printf("  %-8s %10s %10s %10s %10s %12s\n", "phase", "mean", "p50",
              "p95", "p99", "count");
  PrintQuantileRow(json, "latency", json.find("\"latency_us\":", total_pos));
  const size_t phases_pos = json.find("\"phases_us\":{", total_pos);
  for (const char* phase : {"queue", "decode", "cache", "search", "encode"}) {
    const std::string needle = std::string("\"") + phase + "\":{";
    PrintQuantileRow(json, phase, json.find(needle, phases_pos));
  }
}

/// Renders the kStats JSON as the human `stats --connect` view: server
/// line, totals line, one row per rolling window, and the lifetime phase
/// attribution table.
void PrintServerStatsJson(const std::string& json) {
  std::printf("uptime %.1fs  epoch %.0f  workers %.0f  queue %.0f  "
              "inflight %.0f\n",
              JsonNumber(json, "uptime_seconds", 0),
              JsonNumber(json, "epoch", 0),
              JsonNumber(json, "workers", 0),
              JsonNumber(json, "queue_depth", 0),
              JsonNumber(json, "inflight", 0));
  const size_t totals_pos = json.find("\"totals\":{");
  std::printf("totals: %.0f requests, %.0f cache hits, %.0f bad, %.0f shed, "
              "%.0f connections, slow log %.0f written / %.0f dropped\n",
              JsonNumber(json, "requests", totals_pos),
              JsonNumber(json, "cache_hits", totals_pos),
              JsonNumber(json, "bad_requests", totals_pos),
              JsonNumber(json, "shed", totals_pos),
              JsonNumber(json, "connections", totals_pos),
              JsonNumber(json, "slow_log_written", totals_pos),
              JsonNumber(json, "slow_log_dropped", totals_pos));
  std::printf("  %-8s %10s %8s %8s %10s %10s %10s\n", "window", "qps",
              "hit%", "err%", "p50_us", "p95_us", "p99_us");
  size_t pos = json.find("\"windows\":[");
  while (pos != std::string::npos) {
    const size_t label_pos = json.find("\"label\":\"", pos + 1);
    if (label_pos == std::string::npos) break;
    const size_t label_start = label_pos + 9;
    const size_t label_end = json.find('"', label_start);
    if (label_end == std::string::npos) break;
    const std::string label =
        json.substr(label_start, label_end - label_start);
    const size_t latency_pos = json.find("\"latency_us\":", label_pos);
    std::printf("  %-8s %10.0f %8.1f %8.2f %10.1f %10.1f %10.1f\n",
                label.c_str(), JsonNumber(json, "qps", label_pos),
                JsonNumber(json, "cache_hit_rate", label_pos) * 100.0,
                JsonNumber(json, "error_rate", label_pos) * 100.0,
                JsonNumber(json, "p50_us", latency_pos),
                JsonNumber(json, "p95_us", latency_pos),
                JsonNumber(json, "p99_us", latency_pos));
    pos = label_end;
  }
  if (json.find("\"total\":{") == std::string::npos) return;
  std::printf("lifetime phase attribution (us):\n");
  PrintPhaseTable(json);
}

/// `stats --connect=HOST:PORT [--watch=N]`: fetches a running server's
/// kStats snapshot and renders it (raw JSON under --json); --watch
/// refreshes every N seconds until interrupted.
int CmdStatsConnect(const CliArgs& args) {
  if (!args.pos.empty()) return Usage();
  g_serve_stop.store(false);
  for (;;) {
    server::QueryClient client;
    Status s = client.Connect(args.connect_host,
                              static_cast<uint16_t>(args.connect_port));
    std::string json;
    if (s.ok()) s = client.FetchStats(&json);
    if (!s.ok()) return Fail(s);
    if (args.json) {
      std::printf("%s\n", json.c_str());
    } else {
      PrintServerStatsJson(json);
    }
    std::fflush(stdout);
    if (args.watch_seconds <= 0 || WaitForSignal(args.watch_seconds)) return 0;
  }
}

/// The in-process serving stack over <graph> that serve and a self-hosted
/// serve-bench share: a LiveEngine publishing core generations, the
/// search index of --hierarchy=truss|nucleus, and the QueryServer that
/// answers from both. Members are declared in teardown order: the server
/// stops before anything it reads goes away.
struct HostedServer {
  std::shared_ptr<const FlatHcdIndex> snapshot_flat;  ///< null: no --snapshot
  std::optional<SearchIndex> element_index;
  std::optional<LiveEngine> live;
  std::optional<server::QueryServer> server;
};

/// Loads <graph> (and maps --snapshot), builds the stack from the flags,
/// and starts the server with at least `min_pending` admission slots.
Status StartServer(const CliArgs& args, int min_pending, HostedServer* h) {
  if (args.slow_query_ms >= 0.0 && args.slow_log_path.empty()) {
    return Status::InvalidArgument(
        "--slow-query-ms needs --slow-log=FILE to write the records to");
  }
  server::ServerOptions options;
  Graph graph;
  Status s = LoadGraph(args.pos[0], args.options, &graph);
  if (!s.ok()) return s;
  // --snapshot: load a prebuilt flat index instead of constructing the
  // hierarchy at startup. The snapshot is mapped: the kernel pages the
  // index in on demand and shares the page cache across restarts and
  // processes, so the server is ready as soon as the graph is loaded and
  // validation has run.
  if (!args.snapshot_path.empty()) {
    s = LoadSnapshot(args, &h->snapshot_flat);
    if (!s.ok()) return s;
    s = CheckSnapshotFits(*h->snapshot_flat, args.options.hierarchy,
                          graph.NumVertices(), graph.NumEdges());
    if (!s.ok()) {
      return Status::InvalidArgument(args.snapshot_path + ": " + s.message());
    }
  }
  // --hierarchy=truss|nucleus: build the element hierarchy's search index
  // up front, before the live engine takes the graph, and serve it next to
  // the core snapshots. The engine borrows the graph and goes once the
  // index (which owns its flat index) is out. The live manager keeps
  // publishing core generations; element requests route by their wire
  // hierarchy byte. With --snapshot, the engine adopts the (typically
  // mapped) snapshot: no decomposition runs at all, and a snapshot with
  // its search tables serves them as they are.
  if (args.options.hierarchy != HierarchyKind::kCore) {
    HcdEngine element_engine(&graph, args.options);
    if (h->snapshot_flat != nullptr) {
      s = element_engine.AdoptFlat(h->snapshot_flat);
      if (!s.ok()) return s;
    }
    options.element_index = &h->element_index.emplace(element_engine.Searcher());
  }
  LiveEngineOptions live_options;
  live_options.engine = args.options;
  live_options.engine.hierarchy = HierarchyKind::kCore;
  if (h->snapshot_flat != nullptr &&
      h->snapshot_flat->kind() == HierarchyKind::kCore) {
    live_options.initial_flat = h->snapshot_flat;
  }
  h->live.emplace(std::move(graph), live_options);

  options.port = static_cast<uint16_t>(args.port);
  options.workers = args.server_workers;
  options.max_pending = std::max(args.max_pending, min_pending);
  options.cache = !args.no_cache;
  options.slow_query_ms = args.slow_query_ms;
  options.slow_log_path = args.slow_log_path;
  options.slow_log_sample_every = args.slow_log_sample;
  h->server.emplace(&h->live->manager(), options);
  return h->server->Start();
}

/// Runs the socket front door over <graph> until SIGINT/SIGTERM: builds
/// the hierarchy once (LiveEngine, so a future writer could keep applying
/// batches), starts the QueryServer, prints the bound port, and waits.
int CmdServe(const CliArgs& args) {
  if (args.pos.size() != 1) return Usage();
  HostedServer hosted;
  const Status s = StartServer(args, 0, &hosted);
  if (!s.ok()) return Fail(s);
  server::QueryServer& server = *hosted.server;

  // The port line is the readiness signal scripts wait for; flush it.
  std::string hierarchy_note =
      args.options.hierarchy != HierarchyKind::kCore
          ? std::string(", ") + HierarchyKindName(args.options.hierarchy) +
                " index"
          : "";
  if (hosted.snapshot_flat != nullptr) hierarchy_note += ", snapshot";
  if (!args.slow_log_path.empty()) {
    hierarchy_note += ", slow log " + args.slow_log_path;
  }
  std::printf("serving %s on 127.0.0.1:%u (%d workers, cache %s%s)\n",
              args.pos[0].c_str(), server.port(), server.workers(),
              args.no_cache ? "off" : "on", hierarchy_note.c_str());
  std::fflush(stdout);

  g_serve_stop.store(false);
  WaitForSignal(0);
  server.Stop();

  const server::ServerStats stats = server.stats();
  const server::SlowQueryLog* slow_log = server.slow_log();
  if (args.json) {
    std::string slow_extra;
    if (slow_log != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    ",\"slow_log\":{\"written\":%llu,\"dropped\":%llu}",
                    static_cast<unsigned long long>(slow_log->written()),
                    static_cast<unsigned long long>(slow_log->dropped()));
      slow_extra = buf;
    }
    std::printf(
        "{\"command\":\"serve\",\"port\":%u,\"workers\":%d,"
        "\"result\":{\"requests\":%llu,\"cache_hits\":%llu,"
        "\"metrics_requests\":%llu,\"stats_requests\":%llu,"
        "\"bad_requests\":%llu,\"shed\":%llu,"
        "\"connections\":%llu%s}}\n",
        server.port(), server.workers(),
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.metrics_requests),
        static_cast<unsigned long long>(stats.stats_requests),
        static_cast<unsigned long long>(stats.bad_requests),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.connections),
        slow_extra.c_str());
    return 0;
  }
  std::printf("served %llu queries (%llu cache hits) over %llu connections; "
              "%llu shed, %llu bad\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.bad_requests));
  if (slow_log != nullptr) {
    std::printf("slow log: %llu records written, %llu dropped\n",
                static_cast<unsigned long long>(slow_log->written()),
                static_cast<unsigned long long>(slow_log->dropped()));
  }
  return 0;
}

/// Drives a query server from --connections loopback clients — an
/// in-process one over the positional graph, or an external one named by
/// --connect — and reports sustained QPS, nearest-rank tail latency and
/// the result-cache hit rate. The workload cycles through the metric mix
/// and --distinct-k k values, so every (metric, k) pair repeats and a
/// warm cache answers most requests. Every request asks --hierarchy's
/// kind; a truss or nucleus index scores by density, so there the metric
/// only widens the key space.
int CmdServeBench(const CliArgs& args) {
  const bool self_hosted = args.connect_port < 0;
  if (self_hosted && args.pos.size() != 1) return Usage();
  if (!self_hosted && !args.pos.empty()) return Usage();

  HostedServer hosted;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  if (self_hosted) {
    // Self mode drives exactly --connections clients; make sure admission
    // control never sheds the bench's own load.
    const Status s = StartServer(args, args.connections, &hosted);
    if (!s.ok()) return Fail(s);
    port = hosted.server->port();
  } else {
    host = args.connect_host;
    port = static_cast<uint16_t>(args.connect_port);
  }

  const std::vector<Metric>& workload = args.workload;
  const int connections = args.connections;
  const int queries = args.queries;
  const uint32_t distinct_k = static_cast<uint32_t>(args.distinct_k);
  const char* kind_name = HierarchyKindName(args.options.hierarchy);

  // Connection c serves query ids c, c+connections, ...; the key of query
  // q is (metric q mod |mix|, k (q / |mix|) mod distinct_k), so the
  // distinct-key count is |mix| * distinct_k and everything beyond the
  // first cycle repeats — the cache-hit half of the acceptance test.
  std::vector<uint64_t> hit_counts(connections, 0);
  std::vector<Status> worker_status(connections, Status::Ok());
  const PoolRun run = RunPool(connections, [&](int c, LatencyRecorder* recorder) {
    server::QueryClient client;
    Status s = client.Connect(host, port);
    if (!s.ok()) {
      worker_status[c] = s;
      return;
    }
    // Windowed pipelining: keep up to --pipeline requests in flight per
    // connection (the server answers a connection's frames in order, so
    // response i matches request i). A window of 1 is the classic
    // latency-faithful request/response loop; deeper windows amortize
    // the per-frame syscall round trip and measure sustained server
    // throughput instead of loopback RTT. Recorded latencies at depth
    // > 1 include queueing time inside the window.
    server::QueryRequest request;
    request.hierarchy = args.options.hierarchy;
    server::QueryResponse response;
    std::vector<int> ids;
    for (int q = c; q < queries; q += connections) ids.push_back(q);
    const size_t window = static_cast<size_t>(args.pipeline);
    std::vector<Timer> in_flight(window);
    size_t sent = 0, received = 0;
    while (received < ids.size()) {
      while (sent < ids.size() && sent - received < window) {
        const int q = ids[sent];
        const size_t mi = static_cast<size_t>(q) % workload.size();
        request.metric = workload[mi];
        request.k = static_cast<uint32_t>(q / workload.size()) % distinct_k;
        in_flight[sent % window] = Timer();
        s = client.SendQuery(request);
        if (!s.ok()) {
          worker_status[c] = s;
          return;
        }
        ++sent;
      }
      s = client.ReadQueryResponse(&response);
      if (!s.ok() || response.status != server::ResponseStatus::kOk) {
        worker_status[c] =
            s.ok() ? Status::Internal("server refused a query") : s;
        return;
      }
      recorder->Record(in_flight[received % window].Seconds());
      if (response.cache_hit) ++hit_counts[c];
      ++received;
    }
  });
  for (const Status& s : worker_status) {
    if (!s.ok()) return Fail(s);
  }

  uint64_t hits = 0;
  for (uint64_t h : hit_counts) hits += h;
  const uint64_t served = run.latencies.Count();
  const double qps = run.Qps();
  // Guarded like Qps(): a run with no requests must report 0.
  const double hit_rate = FiniteOrZero(static_cast<double>(hits) /
                                       static_cast<double>(served));

  if (!args.server_metrics_out.empty()) {
    server::QueryClient client;
    Status s = client.Connect(host, port);
    std::string text;
    if (s.ok()) s = client.FetchMetrics(&text);
    if (!s.ok()) return Fail(s);
    const int rc = WriteTextFile(args.server_metrics_out, text);
    if (rc != 0) return rc;
  }

  // --server-phase-report: one kStats fetch after the run, so the
  // server-side queue/decode/cache/search/encode attribution can be read
  // next to the client-observed tail.
  std::string server_stats_json;
  if (args.server_phase_report) {
    server::QueryClient client;
    Status s = client.Connect(host, port);
    if (s.ok()) s = client.FetchStats(&server_stats_json);
    if (!s.ok()) return Fail(s);
  }

  if (args.json) {
    std::string server_extra;
    if (self_hosted) {
      const server::ServerStats stats = hosted.server->stats();
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    ",\"server\":{\"workers\":%d,\"requests\":%llu,"
                    "\"cache_hits\":%llu,\"shed\":%llu}",
                    hosted.server->workers(),
                    static_cast<unsigned long long>(stats.requests),
                    static_cast<unsigned long long>(stats.cache_hits),
                    static_cast<unsigned long long>(stats.shed));
      server_extra = buf;
    }
    if (!server_stats_json.empty()) {
      server_extra += ",\"server_stats\":" + server_stats_json;
    }
    std::printf(
        "{\"command\":\"serve-bench\",\"connections\":%d,\"pipeline\":%d,"
        "\"result\":{\"hierarchy\":\"%s\",\"queries\":%llu,\"qps\":%.1f,"
        "\"hit_rate\":%.4f,\"cache_hits\":%llu,%s%s}}\n",
        connections, args.pipeline, kind_name,
        static_cast<unsigned long long>(served), qps, hit_rate,
        static_cast<unsigned long long>(hits),
        LatencyJson(run.latencies).c_str(), server_extra.c_str());
    return 0;
  }
  std::printf("served %llu queries over %d connections "
              "(%s, %zu-metric mix, k<%u, pipeline %d)\n",
              static_cast<unsigned long long>(served), connections, kind_name,
              workload.size(), distinct_k, args.pipeline);
  PrintQpsAndTail(run);
  std::printf("cache hit rate %.1f%% (%llu/%llu)\n", hit_rate * 100.0,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(served));
  if (!server_stats_json.empty()) {
    std::printf("server phase attribution (lifetime, us; client p99 was "
                "%.1f us including the wire):\n",
                run.latencies.P99() * 1e6);
    PrintPhaseTable(server_stats_json);
  }
  return 0;
}

constexpr unsigned Bit(Command c) { return 1u << c; }
constexpr unsigned kAnyCommand = (1u << kNumCommands) - 1;
constexpr unsigned kServers = Bit(kServe) | Bit(kServeBench);

/// One command per Command value, in the same order.
struct CommandEntry {
  const char* name;
  int (*run)(const CliArgs& args);
};
constexpr CommandEntry kCommands[kNumCommands] = {
    {"gen", CmdGen},
    {"convert", CmdConvert},
    {"stats", CmdStats},
    {"build", CmdBuild},
    {"search", CmdSearch},
    {"export", CmdExport},
    {"truss", CmdTruss},
    {"influential", CmdInfluential},
    {"bestk", CmdBestK},
    {"serve", CmdServe},
    {"serve-bench", CmdServeBench},
};

/// Parses a flag's value into `*args`; prints an "error:" line and returns
/// false on a malformed value.
using FlagParser = bool (*)(const char* flag, const std::string& value,
                            CliArgs* args);

/// One command-line flag: its spelling, the commands that accept it, its
/// usage text and how its value lands in CliArgs.
struct Flag {
  const char* name;   ///< "--threads"
  const char* value;  ///< value placeholder ("N"); nullptr for a switch
  unsigned commands;  ///< Bit(command) for each command that accepts it
  FlagParser parse;
  const char* help;   ///< usage text; each '\n' starts an indented line
};

// Parsers for the common flag shapes, each bound to the CliArgs field it
// sets: an integer in [Lo, Hi], a finite number >= 0, a file path, and a
// switch.
template <auto Field, long long Lo, long long Hi = INT_MAX>
bool IntFlag(const char* flag, const std::string& value, CliArgs* args) {
  return ParseInt(flag, value, Lo, Hi, &(args->*Field));
}

template <auto Field>
bool NumberFlag(const char* flag, const std::string& value, CliArgs* args) {
  char* end = nullptr;
  const double number = std::strtod(value.c_str(), &end);
  if (!value.empty() && *end == '\0' && std::isfinite(number) &&
      number >= 0.0) {
    args->*Field = number;
    return true;
  }
  std::fprintf(stderr, "error: bad %s value '%s' (want a non-negative "
               "number)\n", flag, value.c_str());
  return false;
}

template <auto Field>
bool PathFlag(const char* flag, const std::string& value, CliArgs* args) {
  if (value.empty()) {
    std::fprintf(stderr, "error: %s needs a file path\n", flag);
    return false;
  }
  args->*Field = value;
  return true;
}

template <auto Field>
bool SwitchFlag(const char*, const std::string&, CliArgs* args) {
  args->*Field = true;
  return true;
}

/// A value of a closed set (--hierarchy): `parsed` is the lookup's result.
bool CheckChoice(const char* flag, const std::string& value, bool parsed,
                 const char* want) {
  if (!parsed) {
    std::fprintf(stderr, "error: bad %s value '%s' (want %s)\n", flag,
                 value.c_str(), want);
  }
  return parsed;
}

bool ParseWorkload(const char* flag, const std::string& list, CliArgs* a) {
  a->workload.clear();
  size_t start = 0;
  for (;;) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    Metric metric;
    if (!MetricByName(list.substr(start, end - start), &metric)) {
      std::fprintf(stderr, "error: bad %s value '%s'\n", flag, list.c_str());
      return false;
    }
    a->workload.push_back(metric);
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

bool ParseConnect(const char* flag, const std::string& value, CliArgs* a) {
  const size_t colon = value.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    std::fprintf(stderr, "error: bad %s value '%s' (want HOST:PORT)\n", flag,
                 value.c_str());
    return false;
  }
  a->connect_host = value.substr(0, colon);
  return ParseInt(flag, value.substr(colon + 1), 1, 65535, &a->connect_port);
}

const Flag kFlags[] = {
    {"--port", "N", kServers, IntFlag<&CliArgs::port, 0, 65535>,
     "TCP port on 127.0.0.1 (default: 0 =\n"
     "ephemeral; serve prints the bound port)"},
    {"--server-workers", "N", kServers, IntFlag<&CliArgs::server_workers, 1>,
     "server worker threads (default:\nhardware threads)"},
    {"--max-pending", "N", kServers, IntFlag<&CliArgs::max_pending, 0>,
     "pending connections beyond the idle\n"
     "workers before shedding (default 64)"},
    {"--no-cache", nullptr, kServers, SwitchFlag<&CliArgs::no_cache>,
     "disable the epoch-keyed result cache"},
    {"--slow-log", "FILE", Bit(kServe), PathFlag<&CliArgs::slow_log_path>,
     "append a JSONL slow-query log to FILE"},
    {"--slow-query-ms", "MS", Bit(kServe), NumberFlag<&CliArgs::slow_query_ms>,
     "log requests whose total latency exceeds\n"
     "MS milliseconds (0 logs every request;\n"
     "default: threshold disabled)"},
    {"--slow-log-sample", "N", Bit(kServe),
     IntFlag<&CliArgs::slow_log_sample, 0>,
     "also log every Nth request as a healthy\n"
     "baseline (default 1024; 0 disables)"},
    {"--connect", "HOST:PORT", Bit(kStats) | Bit(kServeBench), ParseConnect,
     "a running server: stats renders its live\n"
     "stats (rolling QPS / latency windows)\n"
     "instead of analyzing a graph; serve-bench\n"
     "drives it instead of an in-process one"},
    {"--watch", "N", Bit(kStats), IntFlag<&CliArgs::watch_seconds, 1>,
     "with --connect: refresh every N seconds\nuntil interrupted"},
    {"--connections", "N", Bit(kServeBench), IntFlag<&CliArgs::connections, 1>,
     "concurrent client connections (default 4)"},
    {"--server-phase-report", nullptr, Bit(kServeBench),
     SwitchFlag<&CliArgs::server_phase_report>,
     "fetch the server's phase-attributed\n"
     "latency stats after the run and print\n"
     "queue/decode/cache/search/encode\n"
     "attribution next to the client tail"},
    {"--distinct-k", "N", Bit(kServeBench), IntFlag<&CliArgs::distinct_k, 1>,
     "distinct k values in the workload\n"
     "(default 4; smaller = more cache hits)"},
    {"--pipeline", "N", Bit(kServeBench), IntFlag<&CliArgs::pipeline, 1>,
     "in-flight queries per connection\n"
     "(default 1 = latency-faithful; deeper\n"
     "windows measure sustained throughput)"},
    {"--server-metrics-out", "F", Bit(kServeBench),
     PathFlag<&CliArgs::server_metrics_out>,
     "fetch the server's /metrics exposition\n"
     "after the run and write it to F"},
    {"--queries", "N", Bit(kServeBench), IntFlag<&CliArgs::queries, 1>,
     "total queries to serve (default 1000)"},
    {"--metrics", "a,b,...", Bit(kServeBench), ParseWorkload,
     "workload metric mix (default: all\nmetrics, round-robin)"},
    {"--hierarchy", "core|truss|nucleus",
     Bit(kBuild) | Bit(kExport) | kServers,
     [](const char* f, const std::string& v, CliArgs* a) {
       return CheckChoice(f, v, ParseHierarchyKind(v, &a->options.hierarchy),
                          "core, truss or nucleus");
     },
     "decomposition family to build and serve\n"
     "(default core; serve keeps answering core\n"
     "queries and adds the element index;\n"
     "serve-bench queries this kind)"},
    {"--snapshot", "FILE", Bit(kExport) | Bit(kServe),
     PathFlag<&CliArgs::snapshot_path>,
     "serve a prebuilt flat snapshot (written\n"
     "by `build`, mapped read-only) instead of\n"
     "constructing the hierarchy; kind must\n"
     "match --hierarchy"},
    {"--threads", "N", kAnyCommand,
     [](const char* f, const std::string& v, CliArgs* a) {
       return ParseInt(f, v, 1, INT_MAX, &a->options.threads);
     },
     "OpenMP threads for every stage (default:\nambient setting)"},
    {"--json", nullptr, kAnyCommand, SwitchFlag<&CliArgs::json>,
     "print a machine-readable per-stage\n"
     "telemetry report instead of prose"},
    {"--trace-out", "FILE", kAnyCommand, PathFlag<&CliArgs::trace_out>,
     "write a Chrome trace-event JSON file\n"
     "(open in Perfetto / chrome://tracing)"},
    {"--metrics-out", "FILE", kAnyCommand, PathFlag<&CliArgs::metrics_out>,
     "write the metrics registry; Prometheus\n"
     "text exposition, or JSON when FILE ends\n"
     "in .json"},
};

/// "serve, serve-bench" for a command mask; "any command" for all of them.
std::string CommandList(unsigned commands) {
  if (commands == kAnyCommand) return "any command";
  std::string list;
  for (unsigned c = 0; c < kNumCommands; ++c) {
    if ((commands & (1u << c)) == 0) continue;
    if (!list.empty()) list += ", ";
    list += kCommands[c].name;
  }
  return list;
}

/// Learns the command from argv[1], then reads every later argument: a
/// positional, or a flag from kFlags that the command accepts. Prints an
/// "error:" line and returns false on anything else.
bool ParseCliArgs(int argc, char** argv, CliArgs* out) {
  for (unsigned c = 0; c < kNumCommands; ++c) {
    if (std::strcmp(argv[1], kCommands[c].name) == 0) {
      out->command = static_cast<Command>(c);
    }
  }
  if (out->command == kNumCommands) {
    std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      out->pos.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (name == f.name && (f.value == nullptr) == (eq == std::string::npos)) {
        flag = &f;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    }
    if ((flag->commands & Bit(out->command)) == 0) {
      std::fprintf(stderr, "error: flag '%s' is only valid for %s\n",
                   arg.c_str(), CommandList(flag->commands).c_str());
      return false;
    }
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (!flag->parse(flag->name, value, out)) return false;
  }
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  hcd_cli gen ba <out> <n> <edges-per-vertex> [seed]\n"
      "  hcd_cli gen rmat <out> <scale> <edges> [seed]\n"
      "  hcd_cli gen gnm <out> <n> <m> [seed]\n"
      "  hcd_cli gen onion <out> <k_max> <shell_size>\n"
      "  hcd_cli convert <in.txt> <out.bin>\n"
      "  hcd_cli stats <graph> | --connect=HOST:PORT [flags]\n"
      "  hcd_cli build <graph> <out.forest> [flags]\n"
      "  hcd_cli search <graph> <metric> [flags]\n"
      "  hcd_cli export <graph> <out.dot> [flags]\n"
      "  hcd_cli truss <graph> [flags]\n"
      "  hcd_cli influential <graph> <k> <r> [seed] [flags]\n"
      "  hcd_cli bestk <graph> <metric> [flags]\n"
      "  hcd_cli serve <graph> [flags]\n"
      "  hcd_cli serve-bench <graph> | --connect=HOST:PORT [flags]\n");
  // One "flags (...)" section per distinct command set, in table order.
  unsigned printed[std::size(kFlags)];
  size_t groups = 0;
  for (const Flag& head : kFlags) {
    if (std::find(printed, printed + groups, head.commands) !=
        printed + groups) {
      continue;
    }
    printed[groups++] = head.commands;
    std::fprintf(stderr, "flags (%s):\n", CommandList(head.commands).c_str());
    for (const Flag& flag : kFlags) {
      if (flag.commands != head.commands) continue;
      std::string label = flag.name;
      if (flag.value != nullptr) label = label + "=" + flag.value;
      std::string help = flag.help;
      for (size_t nl = help.find('\n'); nl != std::string::npos;
           nl = help.find('\n', nl + 1)) {
        help.insert(nl + 1, 27, ' ');
      }
      if (label.size() > 24) label += "\n" + std::string(26, ' ');
      std::fprintf(stderr, "  %-24s %s\n", label.c_str(), help.c_str());
    }
  }
  return 2;
}

}  // namespace
}  // namespace hcd::cli

int main(int argc, char** argv) {
  using namespace hcd::cli;
  if (argc < 2) return Usage();
  CliArgs args;
  if (!ParseCliArgs(argc, argv, &args)) return Usage();

  // Observability backends live for the whole invocation: every ScopedStage
  // and ScopedSpan below the command reports into them, and the files are
  // written after the command (and its root span) finish. The registry is
  // always installed: it is the stage record that --json, the prose
  // timings, --metrics-out and the server's /metrics endpoint all read.
  // The tracer is installed only for --trace-out.
  hcd::Tracer tracer;
  hcd::MetricsRegistry registry;
  registry.Install();
  if (!args.trace_out.empty()) tracer.Install();

  int rc;
  const std::string root_name =
      std::string("cli.") + kCommands[args.command].name;
  {
    hcd::ScopedSpan root_span(root_name);
    command_timer.Reset();
    rc = kCommands[args.command].run(args);
  }

  if (!args.trace_out.empty()) {
    tracer.Uninstall();
    const hcd::Status s = tracer.WriteChromeJson(args.trace_out);
    if (!s.ok() && rc == 0) rc = Fail(s);
  }
  registry.Uninstall();
  if (!args.metrics_out.empty()) {
    const std::string text = args.metrics_out.ends_with(".json")
                                 ? registry.RenderJson()
                                 : registry.RenderPrometheus();
    const int write_rc = WriteTextFile(args.metrics_out, text);
    if (write_rc != 0 && rc == 0) rc = write_rc;
  }
  return rc;
}
