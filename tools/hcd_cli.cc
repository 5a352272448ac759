// Command-line front end for the library: generate graphs, inspect
// statistics, build hierarchies, and run subgraph search.
//
// Usage:
//   hcd_cli gen <ba|rmat|gnm|onion> <out.{bin,txt}> [args...]
//   hcd_cli convert <in.txt> <out.bin>
//   hcd_cli stats <graph> [flags]
//   hcd_cli build <graph> <out.forest> [flags]    (writes a v2 flat snapshot)
//   hcd_cli search <graph> <metric> [flags]
//   hcd_cli export <graph> <out.dot> [flags]
//   hcd_cli truss <graph> [flags]
//   hcd_cli influential <graph> <k> <r> [seed] [flags]
//   hcd_cli bestk <graph> <metric> [flags]
//   hcd_cli query-bench <graph> [--query-threads=N] [--queries=N]
//                               [--metrics=a,b,...] [flags]
//   hcd_cli serve <graph> [--port=N] [--server-workers=N] [flags]
//   hcd_cli serve-bench <graph> | --connect=HOST:PORT [flags]
//
// Every command accepts --algo=phcd|lcps|naive, --threads=N,
// --io-threads=N and --json; unknown or malformed flags abort with usage
// (exit 2). All graph-consuming commands run on one shared HcdEngine, so
// each pipeline stage (load, decomposition, construction, search
// preprocessing) is computed at most once per invocation; --json dumps the
// per-stage telemetry report, including the ingest sub-stages
// (load.read/parse/remap/build for text, load.read/validate for binary).
//
// query-bench exercises the build/serve split end to end: it builds one
// immutable QuerySnapshot, then serves a mixed-metric workload from
// --query-threads concurrent workers (each with a private reusable
// SearchWorkspace) and reports QPS plus nearest-rank p50/p95/p99 latency.
//
// serve runs the socket front door (src/server) over the graph until
// SIGINT/SIGTERM; serve-bench drives it from --connections loopback
// clients — against an in-process server (positional graph) or an
// external one (--connect) — and reports sustained QPS, tail latency and
// the result-cache hit rate.
//
// <graph> is loaded as binary when the path ends in ".bin", else as an
// edge-list text file.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/timer.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/ingest.h"
#include "graph/io.h"
#include "hcd/export.h"
#include "hcd/hierarchy_kind.h"
#include "hcd/query.h"
#include "hcd/serialize.h"
#include "hcd/stats.h"
#include "parallel/omp_utils.h"
#include "search/best_k.h"
#include "search/influential.h"
#include "search/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "truss/truss_decomposition.h"
#include "truss/truss_hierarchy.h"

namespace {

using hcd::EngineOptions;
using hcd::Graph;
using hcd::HcdEngine;
using hcd::ScopedStage;
using hcd::Status;

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

Status SaveGraphAuto(const Graph& graph, const std::string& path) {
  if (HasSuffix(path, ".bin")) return hcd::SaveBinary(graph, path);
  return hcd::SaveEdgeListText(graph, path);
}

int WriteTextFile(const std::string& path, const std::string& text);
struct CliArgs;
int CmdStatsConnect(const CliArgs& args);

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
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
      "  hcd_cli query-bench <graph> [flags]\n"
      "  hcd_cli live-bench <graph> [flags]\n"
      "  hcd_cli serve <graph> [flags]\n"
      "  hcd_cli serve-bench <graph> | --connect=HOST:PORT [flags]\n"
      "flags (serve, serve-bench):\n"
      "  --port=N                 TCP port on 127.0.0.1 (default: 0 =\n"
      "                           ephemeral; serve prints the bound port)\n"
      "  --server-workers=N       server worker threads (default:\n"
      "                           hardware threads)\n"
      "  --max-pending=N          pending connections beyond the idle\n"
      "                           workers before shedding (default 64)\n"
      "  --no-cache               disable the epoch-keyed result cache\n"
      "flags (serve):\n"
      "  --slow-log=FILE          append a JSONL slow-query log to FILE\n"
      "  --slow-query-ms=MS       log requests whose total latency exceeds\n"
      "                           MS milliseconds (0 logs every request;\n"
      "                           default: threshold disabled)\n"
      "  --slow-log-sample=N      also log every Nth request as a healthy\n"
      "                           baseline (default 1024; 0 disables)\n"
      "flags (stats):\n"
      "  --connect=HOST:PORT      fetch and render a running server's live\n"
      "                           stats (rolling QPS / latency windows)\n"
      "                           instead of analyzing a graph\n"
      "  --watch=N                with --connect: refresh every N seconds\n"
      "                           until interrupted\n"
      "flags (serve-bench):\n"
      "  --connect=HOST:PORT      drive an already-running server instead\n"
      "                           of an in-process one\n"
      "  --connections=N          concurrent client connections (default 4)\n"
      "  --server-phase-report    fetch the server's phase-attributed\n"
      "                           latency stats after the run and print\n"
      "                           queue/decode/cache/search/encode\n"
      "                           attribution next to the client tail\n"
      "  --distinct-k=N           distinct k values in the workload\n"
      "                           (default 4; smaller = more cache hits)\n"
      "  --pipeline=N             in-flight queries per connection\n"
      "                           (default 1 = latency-faithful; deeper\n"
      "                           windows measure sustained throughput)\n"
      "  --server-metrics-out=F   fetch the server's /metrics exposition\n"
      "                           after the run and write it to F\n"
      "flags (query-bench, live-bench, serve-bench):\n"
      "  --query-threads=N        concurrent query workers (default:\n"
      "                           hardware threads)\n"
      "  --queries=N              total queries to serve (default 1000;\n"
      "                           query-bench only)\n"
      "  --metrics=a,b,...        workload metric mix (default: all\n"
      "                           metrics, round-robin)\n"
      "flags (build, export, query-bench, serve):\n"
      "  --hierarchy=core|truss|nucleus\n"
      "                           decomposition family to build and serve\n"
      "                           (default core; serve keeps answering core\n"
      "                           queries and adds the element index)\n"
      "flags (export, query-bench, serve):\n"
      "  --snapshot=FILE          serve a prebuilt flat snapshot (written\n"
      "                           by `build`) instead of constructing the\n"
      "                           hierarchy; kind must match --hierarchy\n"
      "  --snapshot-mode=read|mmap\n"
      "                           how snapshot bytes reach memory: copy\n"
      "                           them in (read) or alias the mmap'd file\n"
      "                           zero-copy (mmap). Default: read, except\n"
      "                           serve, which defaults to mmap\n"
      "flags (live-bench):\n"
      "  --batch-size=N           edge updates per batch (default 100)\n"
      "  --batches=N              batches the writer applies (default 20)\n"
      "  --update-rate=R          batches per second; 0 = apply\n"
      "                           back-to-back (default 0)\n"
      "  --seed=N                 update-stream RNG seed (default 1)\n"
      "flags (any command):\n"
      "  --algo=phcd|lcps|naive   HCD construction algorithm (default phcd)\n"
      "  --threads=N              OpenMP threads for every stage (default:\n"
      "                           ambient setting)\n"
      "  --io-threads=N           OpenMP threads for graph ingest only\n"
      "                           (default: the --threads setting)\n"
      "  --json                   print a machine-readable per-stage\n"
      "                           telemetry report instead of prose\n"
      "  --trace-out=FILE         write a Chrome trace-event JSON file\n"
      "                           (open in Perfetto / chrome://tracing)\n"
      "  --metrics-out=FILE       write the metrics registry; Prometheus\n"
      "                           text exposition, or JSON when FILE ends\n"
      "                           in .json\n");
  return 2;
}

/// Arguments of one subcommand: positionals in order, plus the shared
/// engine flags. Unknown or malformed flags are a hard error (exit 2), so
/// a typo like `--thread=8` can never silently run with defaults.
struct CliArgs {
  std::vector<std::string> pos;
  EngineOptions options;
  bool json = false;
  std::string trace_out;    ///< empty: tracing disabled
  std::string metrics_out;  ///< empty: metrics disabled
  // Serve-phase flags (query-bench only; rejected by every other command
  // via `serve_flag`, which remembers the first one seen).
  int query_threads = 0;  ///< 0: use the hardware thread count
  int queries = 1000;
  std::vector<hcd::Metric> workload;  ///< empty: all metrics, round-robin
  std::string serve_flag;
  // Live-bench flags (rejected elsewhere via `live_flag`).
  int batch_size = 100;
  int batches = 20;
  double update_rate = 0.0;  ///< batches per second; 0 = unpaced
  uint64_t seed = 1;
  std::string live_flag;
  // Server flags (serve / serve-bench only; rejected elsewhere via
  // `server_flag`).
  int port = 0;             ///< 0: ephemeral
  std::string connect_host;
  int connect_port = -1;    ///< <0: serve-bench runs an in-process server
  int connections = 4;
  int server_workers = 0;   ///< 0: hardware threads
  int max_pending = 64;
  int distinct_k = 4;
  int pipeline = 1;  ///< in-flight queries per serve-bench connection
  bool no_cache = false;
  std::string server_metrics_out;
  std::string server_flag;
  // --connect targets an external server; valid for serve-bench (drive it)
  // and stats (render its live stats). Rejected elsewhere via
  // `connect_flag`.
  std::string connect_flag;
  // Slow-query log flags (serve only; rejected elsewhere via
  // `serve_only_flag`).
  double slow_query_ms = -1.0;  ///< <0: threshold disabled
  std::string slow_log_path;
  int slow_log_sample = 1024;   ///< 0: sampling disabled
  std::string serve_only_flag;
  // stats --connect flags (rejected elsewhere via `stats_flag`).
  int watch_seconds = 0;  ///< 0: print one snapshot and exit
  std::string stats_flag;
  // serve-bench-only flags (rejected elsewhere via `bench_only_flag`).
  bool server_phase_report = false;
  std::string bench_only_flag;
  // --hierarchy (build / export / query-bench / serve only; rejected
  // elsewhere via `hierarchy_flag`).
  std::string hierarchy_flag;
  // --snapshot / --snapshot-mode (export / query-bench / serve only;
  // rejected elsewhere via `snapshot_flag`).
  std::string snapshot_path;  ///< empty: build the hierarchy from the graph
  hcd::SnapshotMode snapshot_mode = hcd::SnapshotMode::kRead;
  bool snapshot_mode_set = false;  ///< --snapshot-mode given explicitly
  std::string snapshot_flag;
};

bool MetricByName(const std::string& name, hcd::Metric* metric) {
  if (hcd::ParseMetric(name, metric)) return true;
  std::fprintf(stderr, "unknown metric '%s'; choose from:", name.c_str());
  for (hcd::Metric m : hcd::kAllMetrics) {
    std::fprintf(stderr, " %s", hcd::MetricName(m));
  }
  std::fprintf(stderr, "\n");
  return false;
}

bool ParseCliArgs(int argc, char** argv, int from, CliArgs* out) {
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      out->pos.push_back(arg);
      continue;
    }
    if (arg == "--json") {
      out->json = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      out->trace_out = arg.substr(12);
      if (out->trace_out.empty()) {
        std::fprintf(stderr, "error: --trace-out needs a file path\n");
        return false;
      }
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      out->metrics_out = arg.substr(14);
      if (out->metrics_out.empty()) {
        std::fprintf(stderr, "error: --metrics-out needs a file path\n");
        return false;
      }
    } else if (arg.rfind("--algo=", 0) == 0) {
      const std::string value = arg.substr(7);
      if (!hcd::ParseEngineAlgo(value, &out->options.algo)) {
        std::fprintf(stderr,
                     "error: bad --algo value '%s' (want phcd, lcps or "
                     "naive)\n",
                     value.c_str());
        return false;
      }
    } else if (arg.rfind("--hierarchy=", 0) == 0) {
      const std::string value = arg.substr(12);
      if (!hcd::ParseHierarchyKind(value, &out->options.hierarchy)) {
        std::fprintf(stderr,
                     "error: bad --hierarchy value '%s' (want core, truss "
                     "or nucleus)\n",
                     value.c_str());
        return false;
      }
      if (out->hierarchy_flag.empty()) out->hierarchy_flag = arg;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      const long threads = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || threads <= 0) {
        std::fprintf(stderr,
                     "error: bad --threads value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->options.threads = static_cast<int>(threads);
    } else if (arg.rfind("--io-threads=", 0) == 0) {
      const std::string value = arg.substr(13);
      char* end = nullptr;
      const long threads = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || threads <= 0) {
        std::fprintf(stderr,
                     "error: bad --io-threads value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->options.io_threads = static_cast<int>(threads);
    } else if (arg.rfind("--query-threads=", 0) == 0) {
      const std::string value = arg.substr(16);
      char* end = nullptr;
      const long threads = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || threads <= 0) {
        std::fprintf(stderr,
                     "error: bad --query-threads value '%s' (want a "
                     "positive integer)\n",
                     value.c_str());
        return false;
      }
      out->query_threads = static_cast<int>(threads);
      if (out->serve_flag.empty()) out->serve_flag = arg;
    } else if (arg.rfind("--queries=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      const long queries = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || queries <= 0) {
        std::fprintf(stderr,
                     "error: bad --queries value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->queries = static_cast<int>(queries);
      if (out->serve_flag.empty()) out->serve_flag = arg;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      std::string list = arg.substr(10);
      out->workload.clear();
      size_t start = 0;
      while (start <= list.size()) {
        const size_t comma = list.find(',', start);
        const size_t end =
            comma == std::string::npos ? list.size() : comma;
        const std::string name = list.substr(start, end - start);
        hcd::Metric metric;
        if (!MetricByName(name, &metric)) {
          std::fprintf(stderr, "error: bad --metrics value '%s'\n",
                       list.c_str());
          return false;
        }
        out->workload.push_back(metric);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      if (out->serve_flag.empty()) out->serve_flag = arg;
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      const std::string value = arg.substr(13);
      char* end = nullptr;
      const long size = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || size <= 0) {
        std::fprintf(stderr,
                     "error: bad --batch-size value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->batch_size = static_cast<int>(size);
      if (out->live_flag.empty()) out->live_flag = arg;
    } else if (arg.rfind("--batches=", 0) == 0) {
      const std::string value = arg.substr(10);
      char* end = nullptr;
      const long batches = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || batches <= 0) {
        std::fprintf(stderr,
                     "error: bad --batches value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->batches = static_cast<int>(batches);
      if (out->live_flag.empty()) out->live_flag = arg;
    } else if (arg.rfind("--update-rate=", 0) == 0) {
      const std::string value = arg.substr(14);
      char* end = nullptr;
      const double rate = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || rate < 0.0) {
        std::fprintf(stderr,
                     "error: bad --update-rate value '%s' (want a "
                     "non-negative number)\n",
                     value.c_str());
        return false;
      }
      out->update_rate = rate;
      if (out->live_flag.empty()) out->live_flag = arg;
    } else if (arg.rfind("--seed=", 0) == 0) {
      const std::string value = arg.substr(7);
      char* end = nullptr;
      const long long seed = std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seed < 0) {
        std::fprintf(stderr,
                     "error: bad --seed value '%s' (want a non-negative "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->seed = static_cast<uint64_t>(seed);
      if (out->live_flag.empty()) out->live_flag = arg;
    } else if (arg.rfind("--port=", 0) == 0) {
      const std::string value = arg.substr(7);
      char* end = nullptr;
      const long port = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || port < 0 || port > 65535) {
        std::fprintf(stderr,
                     "error: bad --port value '%s' (want 0..65535)\n",
                     value.c_str());
        return false;
      }
      out->port = static_cast<int>(port);
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--connect=", 0) == 0) {
      const std::string value = arg.substr(10);
      const size_t colon = value.rfind(':');
      long port = -1;
      if (colon != std::string::npos && colon > 0) {
        const std::string port_str = value.substr(colon + 1);
        char* end = nullptr;
        port = std::strtol(port_str.c_str(), &end, 10);
        if (port_str.empty() || *end != '\0') port = -1;
      }
      if (port <= 0 || port > 65535) {
        std::fprintf(stderr,
                     "error: bad --connect value '%s' (want HOST:PORT)\n",
                     value.c_str());
        return false;
      }
      out->connect_host = value.substr(0, colon);
      out->connect_port = static_cast<int>(port);
      if (out->connect_flag.empty()) out->connect_flag = arg;
    } else if (arg.rfind("--slow-query-ms=", 0) == 0) {
      const std::string value = arg.substr(16);
      char* end = nullptr;
      const double ms = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || ms < 0.0) {
        std::fprintf(stderr,
                     "error: bad --slow-query-ms value '%s' (want a "
                     "non-negative number of milliseconds)\n",
                     value.c_str());
        return false;
      }
      out->slow_query_ms = ms;
      if (out->serve_only_flag.empty()) out->serve_only_flag = arg;
    } else if (arg.rfind("--slow-log=", 0) == 0) {
      out->slow_log_path = arg.substr(11);
      if (out->slow_log_path.empty()) {
        std::fprintf(stderr, "error: --slow-log needs a file path\n");
        return false;
      }
      if (out->serve_only_flag.empty()) out->serve_only_flag = arg;
    } else if (arg.rfind("--slow-log-sample=", 0) == 0) {
      const std::string value = arg.substr(18);
      char* end = nullptr;
      const long every = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || every < 0) {
        std::fprintf(stderr,
                     "error: bad --slow-log-sample value '%s' (want a "
                     "non-negative integer)\n",
                     value.c_str());
        return false;
      }
      out->slow_log_sample = static_cast<int>(every);
      if (out->serve_only_flag.empty()) out->serve_only_flag = arg;
    } else if (arg.rfind("--watch=", 0) == 0) {
      const std::string value = arg.substr(8);
      char* end = nullptr;
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seconds <= 0) {
        std::fprintf(stderr,
                     "error: bad --watch value '%s' (want a positive number "
                     "of seconds)\n",
                     value.c_str());
        return false;
      }
      out->watch_seconds = static_cast<int>(seconds);
      if (out->stats_flag.empty()) out->stats_flag = arg;
    } else if (arg == "--server-phase-report") {
      out->server_phase_report = true;
      if (out->bench_only_flag.empty()) out->bench_only_flag = arg;
    } else if (arg.rfind("--connections=", 0) == 0) {
      const std::string value = arg.substr(14);
      char* end = nullptr;
      const long connections = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || connections <= 0) {
        std::fprintf(stderr,
                     "error: bad --connections value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->connections = static_cast<int>(connections);
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--server-workers=", 0) == 0) {
      const std::string value = arg.substr(17);
      char* end = nullptr;
      const long workers = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || workers <= 0) {
        std::fprintf(stderr,
                     "error: bad --server-workers value '%s' (want a "
                     "positive integer)\n",
                     value.c_str());
        return false;
      }
      out->server_workers = static_cast<int>(workers);
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--max-pending=", 0) == 0) {
      const std::string value = arg.substr(14);
      char* end = nullptr;
      const long pending = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || pending < 0) {
        std::fprintf(stderr,
                     "error: bad --max-pending value '%s' (want a "
                     "non-negative integer)\n",
                     value.c_str());
        return false;
      }
      out->max_pending = static_cast<int>(pending);
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--distinct-k=", 0) == 0) {
      const std::string value = arg.substr(13);
      char* end = nullptr;
      const long distinct = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || distinct <= 0) {
        std::fprintf(stderr,
                     "error: bad --distinct-k value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->distinct_k = static_cast<int>(distinct);
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--pipeline=", 0) == 0) {
      const std::string value = arg.substr(11);
      char* end = nullptr;
      const long window = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || window <= 0) {
        std::fprintf(stderr,
                     "error: bad --pipeline value '%s' (want a positive "
                     "integer)\n",
                     value.c_str());
        return false;
      }
      out->pipeline = static_cast<int>(window);
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--snapshot=", 0) == 0) {
      out->snapshot_path = arg.substr(11);
      if (out->snapshot_path.empty()) {
        std::fprintf(stderr, "error: --snapshot needs a file path\n");
        return false;
      }
      if (out->snapshot_flag.empty()) out->snapshot_flag = arg;
    } else if (arg.rfind("--snapshot-mode=", 0) == 0) {
      const std::string value = arg.substr(16);
      if (!hcd::ParseSnapshotMode(value, &out->snapshot_mode)) {
        std::fprintf(stderr,
                     "error: bad --snapshot-mode value '%s' (want read or "
                     "mmap)\n",
                     value.c_str());
        return false;
      }
      out->snapshot_mode_set = true;
      if (out->snapshot_flag.empty()) out->snapshot_flag = arg;
    } else if (arg == "--no-cache") {
      out->no_cache = true;
      if (out->server_flag.empty()) out->server_flag = arg;
    } else if (arg.rfind("--server-metrics-out=", 0) == 0) {
      out->server_metrics_out = arg.substr(21);
      if (out->server_metrics_out.empty()) {
        std::fprintf(stderr,
                     "error: --server-metrics-out needs a file path\n");
        return false;
      }
      if (out->server_flag.empty()) out->server_flag = arg;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Honors --snapshot for the build-phase commands: loads the flat snapshot
/// in the requested mode (default: copying read) and installs it as the
/// engine's Flat() stage, so hierarchy construction is skipped and queries
/// serve straight from the file's bytes (zero-copy under --snapshot-mode=
/// mmap). No-op without --snapshot.
Status AdoptSnapshotIfRequested(const CliArgs& args, HcdEngine* engine) {
  if (args.snapshot_path.empty()) return Status::Ok();
  const hcd::SnapshotMode mode =
      args.snapshot_mode_set ? args.snapshot_mode : hcd::SnapshotMode::kRead;
  hcd::FlatHcdIndex flat;
  {
    ScopedStage stage("load.snapshot");
    Status s = hcd::LoadFlatSnapshot(args.snapshot_path, mode, &flat);
    if (!s.ok()) return s;
    stage.AddCounter("nodes", flat.NumNodes());
  }
  return engine->AdoptFlat(
      std::make_shared<const hcd::FlatHcdIndex>(std::move(flat)));
}

/// The invocation's stage record, installed by main for every command.
const hcd::StageTelemetry& Stages() {
  return *hcd::StageTelemetry::Current();
}

/// Prints the shared JSON envelope: command, effective options, graph
/// shape, optional extra fields (`",\"result\":{...}"`), and the
/// invocation's per-stage telemetry.
void PrintJsonReport(const char* command, const CliArgs& args,
                     HcdEngine& engine, const std::string& extra = "") {
  std::printf("{\"command\":\"%s\",\"algo\":\"%s\",\"threads\":%d,"
              "\"graph\":{\"n\":%u,\"m\":%llu}%s,\"telemetry\":%s}\n",
              command, hcd::EngineAlgoName(args.options.algo),
              args.options.threads, engine.graph().NumVertices(),
              static_cast<unsigned long long>(engine.graph().NumEdges()),
              extra.c_str(), Stages().ToJson().c_str());
}

int CmdGen(const CliArgs& args) {
  if (args.pos.size() < 4) return Usage();
  const std::string& model = args.pos[0];
  const std::string& out = args.pos[1];
  Graph g;
  if (model == "ba" && args.pos.size() >= 4) {
    uint64_t seed = args.pos.size() > 4 ? std::atoll(args.pos[4].c_str()) : 1;
    g = hcd::BarabasiAlbert(std::atoi(args.pos[2].c_str()),
                            std::atoi(args.pos[3].c_str()), seed);
  } else if (model == "rmat" && args.pos.size() >= 4) {
    uint64_t seed = args.pos.size() > 4 ? std::atoll(args.pos[4].c_str()) : 1;
    g = hcd::RMatGraph500(std::atoi(args.pos[2].c_str()),
                          std::atoll(args.pos[3].c_str()), seed);
  } else if (model == "gnm" && args.pos.size() >= 4) {
    uint64_t seed = args.pos.size() > 4 ? std::atoll(args.pos[4].c_str()) : 1;
    g = hcd::ErdosRenyiGnm(std::atoi(args.pos[2].c_str()),
                           std::atoll(args.pos[3].c_str()), seed);
  } else if (model == "onion" && args.pos.size() >= 4) {
    g = hcd::PlantedHierarchy(hcd::OnionSpec(std::atoi(args.pos[2].c_str()),
                                             std::atoi(args.pos[3].c_str())),
                              1);
  } else {
    return Usage();
  }
  Status s = SaveGraphAuto(g, out);
  if (!s.ok()) return Fail(s);
  if (args.json) {
    std::printf("{\"command\":\"gen\",\"out\":\"%s\",\"graph\":{\"n\":%u,"
                "\"m\":%llu}}\n",
                hcd::JsonEscape(out).c_str(), g.NumVertices(),
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
  hcd::IngestOptions ingest_options;
  ingest_options.io_threads = args.options.io_threads > 0
                                  ? args.options.io_threads
                                  : args.options.threads;
  Status s = hcd::IngestEdgeListText(args.pos[0], ingest_options, &g);
  if (!s.ok()) return Fail(s);
  {
    ScopedStage stage("serialize");
    s = hcd::SaveBinary(g, args.pos[1]);
  }
  if (!s.ok()) return Fail(s);
  if (args.json) {
    std::printf("{\"command\":\"convert\",\"out\":\"%s\",\"graph\":{\"n\":%u,"
                "\"m\":%llu},\"telemetry\":%s}\n",
                hcd::JsonEscape(args.pos[1]).c_str(), g.NumVertices(),
                static_cast<unsigned long long>(g.NumEdges()),
                Stages().ToJson().c_str());
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
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  const hcd::CoreDecomposition& cd = engine->Coreness();
  const hcd::FlatHcdIndex& flat = engine->Flat();
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
  std::printf("%s", hcd::ForestStatsToString(hcd::ComputeForestStats(flat)).c_str());
  std::printf("(computed in %.3fs)\n", Stages().TotalSeconds());
  return 0;
}

int CmdBuild(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  const hcd::FlatHcdIndex& flat = engine->Flat();
  {
    ScopedStage stage("serialize");
    s = hcd::SaveFlatIndex(flat, args.pos[1]);
    stage.AddCounter("nodes", flat.NumNodes());
  }
  if (!s.ok()) return Fail(s);
  if (args.json) {
    PrintJsonReport("build", args, *engine,
                    ",\"result\":{\"tree_nodes\":" +
                        std::to_string(flat.NumNodes()) + "}");
    return 0;
  }
  const hcd::StageTelemetry& t = Stages();
  // Non-core kinds record kind-prefixed stage names.
  const bool core = args.options.hierarchy == hcd::HierarchyKind::kCore;
  const std::string prefix =
      core ? ""
           : std::string(hcd::HierarchyKindName(args.options.hierarchy)) + ".";
  std::printf("%s: %s decomposition %.3fs, construction %.3fs (+freeze "
              "%.3fs), %u nodes\n",
              hcd::EngineAlgoName(args.options.algo),
              core ? "core" : hcd::HierarchyKindName(args.options.hierarchy),
              t.StageSeconds((prefix + "decomposition").c_str()),
              t.StageSeconds((prefix + "construction").c_str()),
              t.StageSeconds((prefix + "construction.freeze").c_str()),
              flat.NumNodes());
  return 0;
}

int CmdSearch(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  hcd::Metric metric;
  if (!MetricByName(args.pos[1], &metric)) return 2;
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  hcd::SearchResult r = engine->Search(metric);
  const hcd::FlatHcdIndex& flat = engine->Flat();
  if (args.json) {
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ",\"result\":{\"metric\":\"%s\",\"k\":%u,\"size\":%llu,"
                  "\"score\":%.9g}",
                  hcd::MetricName(metric), flat.Level(r.best_node),
                  static_cast<unsigned long long>(flat.CoreSize(r.best_node)),
                  r.best_score);
    PrintJsonReport("search", args, *engine, extra);
    return 0;
  }
  std::printf("best k-core under %s: k=%u |S|=%llu score=%.6f (%.3fs)\n",
              hcd::MetricName(metric), flat.Level(r.best_node),
              static_cast<unsigned long long>(flat.CoreSize(r.best_node)),
              r.best_score, Stages().TotalSeconds());
  return 0;
}

int CmdExport(const CliArgs& args) {
  if (args.pos.size() != 2) return Usage();
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  s = AdoptSnapshotIfRequested(args, engine.get());
  if (!s.ok()) return Fail(s);
  const hcd::FlatHcdIndex& flat = engine->Flat();
  {
    ScopedStage stage("serialize");
    std::ofstream out(args.pos[1]);
    if (!out) {
      return Fail(Status::IoError("cannot write " + args.pos[1]));
    }
    out << hcd::ForestToDot(flat);
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
  hcd::Metric metric;
  if (!MetricByName(args.pos[1], &metric)) return 2;
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  const hcd::CoreDecomposition& cd = engine->Coreness();
  hcd::BestKResult r;
  {
    std::optional<hcd::ThreadCountGuard> guard;
    if (args.options.threads > 0) guard.emplace(args.options.threads);
    ScopedStage stage("bestk");
    r = hcd::FindBestK(engine->graph(), cd, metric);
  }
  if (args.json) {
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ",\"result\":{\"metric\":\"%s\",\"best_k\":%u,"
                  "\"size\":%llu,\"score\":%.9g}",
                  hcd::MetricName(metric), r.best_k,
                  static_cast<unsigned long long>(r.per_k[r.best_k].n_s),
                  r.best_score);
    PrintJsonReport("bestk", args, *engine, extra);
    return 0;
  }
  std::printf("best k for the k-core set under %s: k=%u score=%.6f "
              "(|K_k|=%llu vertices, %.3fs)\n",
              args.pos[1].c_str(), r.best_k, r.best_score,
              static_cast<unsigned long long>(r.per_k[r.best_k].n_s),
              Stages().StageSeconds("bestk"));
  return 0;
}

int CmdTruss(const CliArgs& args) {
  if (args.pos.size() != 1) return Usage();
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  const Graph& g = engine->graph();
  std::optional<hcd::ThreadCountGuard> guard;
  if (args.options.threads > 0) guard.emplace(args.options.threads);
  hcd::EdgeIndexer index;
  hcd::TrussDecomposition td;
  hcd::TrussForest forest;
  hcd::DensestTrussResult best;
  {
    ScopedStage stage("truss.decomposition");
    index = hcd::BuildEdgeIndexer(g);
    td = hcd::PeelTrussDecomposition(g, index);
    stage.AddCounter("k_max", td.k_max);
  }
  {
    ScopedStage stage("truss.hierarchy");
    forest = hcd::BuildTrussHierarchy(g, index, td);
    stage.AddCounter("nodes", forest.NumNodes());
  }
  {
    ScopedStage stage("truss.densest");
    best = hcd::DensestTruss(g, index, forest);
  }
  if (args.json) {
    char extra[256];
    std::snprintf(extra, sizeof(extra),
                  ",\"result\":{\"k_max\":%u,\"tree_nodes\":%u,"
                  "\"densest_k\":%u,\"densest_size\":%zu}",
                  td.k_max, forest.NumNodes(), best.level,
                  best.community.vertices.size());
    PrintJsonReport("truss", args, *engine, extra);
    return 0;
  }
  std::printf("truss k_max  %u\n", td.k_max);
  std::printf("tree nodes   %u\n", forest.NumNodes());
  std::printf("densest      k=%u |V|=%zu |E|=%llu avg_deg=%.2f\n", best.level,
              best.community.vertices.size(),
              static_cast<unsigned long long>(best.community.num_edges),
              best.community.AverageDegree());
  std::printf("(computed in %.3fs)\n", Stages().TotalSeconds());
  return 0;
}

int CmdInfluential(const CliArgs& args) {
  if (args.pos.size() < 3) return Usage();
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  const Graph& g = engine->graph();
  const uint32_t k = std::atoi(args.pos[1].c_str());
  const uint32_t r = std::atoi(args.pos[2].c_str());
  const uint64_t seed =
      args.pos.size() > 3 ? std::atoll(args.pos[3].c_str()) : 1;
  // Synthetic weights; a real deployment would load per-vertex scores.
  hcd::Rng rng(seed);
  std::vector<double> weights(g.NumVertices());
  for (double& w : weights) w = rng.UniformDouble() * 100.0;
  std::vector<hcd::InfluentialCommunity> top;
  {
    std::optional<hcd::ThreadCountGuard> guard;
    if (args.options.threads > 0) guard.emplace(args.options.threads);
    ScopedStage stage("influential");
    top = hcd::TopInfluentialCommunities(g, weights, k, r);
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

/// query-bench for element hierarchies (truss / nucleus): builds one
/// immutable ElementSearchIndex, then serves a mixed workload from
/// --query-threads concurrent workers — alternating level-constrained
/// densest scans (k cycling) with community materializations of the
/// class containing a deterministically sampled element. Reports QPS and
/// nearest-rank tail latency, and emits a "<kind>_query_bench_cli"
/// baseline row.
int CmdElementQueryBench(const CliArgs& args) {
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  s = AdoptSnapshotIfRequested(args, engine.get());
  if (!s.ok()) return Fail(s);
  const hcd::ElementSearchIndex& index = engine->ElementSearcher();
  const hcd::FlatHcdIndex& flat = index.flat();
  const hcd::VertexId num_elements = flat.NumVertices();
  const char* kind_name = hcd::HierarchyKindName(args.options.hierarchy);
  const int workers = args.query_threads > 0 ? args.query_threads
                                             : hcd::HardwareThreads();
  const int queries = args.queries;

  std::vector<hcd::bench::LatencyRecorder> recorders(workers);
  double wall = 0.0;
  {
    ScopedStage stage("serve");
    hcd::Timer timer;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int t = 0; t < workers; ++t) {
      pool.emplace_back([&, t] {
        hcd::ElementWorkspace ws;
        std::vector<hcd::VertexId> community;
        for (int q = t; q < queries; q += workers) {
          hcd::Timer query_timer;
          if (q % 2 == 0 || num_elements == 0) {
            index.DensestAtLeast(static_cast<uint32_t>(q / 2) % 8);
          } else {
            // Community of the class containing a deterministically
            // sampled element (Knuth-hash spread over the element ids).
            const hcd::VertexId element = static_cast<hcd::VertexId>(
                (static_cast<uint64_t>(q) * 2654435761ull) % num_elements);
            community.clear();
            index.CommunityOf(hcd::NodeOfKCoreContaining(flat, element, 0),
                              &ws, &community);
          }
          recorders[t].Record(query_timer.Seconds());
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    wall = timer.Seconds();
    stage.AddCounter("queries", queries);
    stage.AddCounter("workers", workers);
  }
  hcd::bench::LatencyRecorder latencies;
  for (const hcd::bench::LatencyRecorder& r : recorders) latencies.Merge(r);
  const double qps =
      hcd::FiniteOrZero(static_cast<double>(queries) / wall);
  hcd::bench::ReportBaseline(
      std::string(kind_name) + "_query_bench_cli",
      hcd::bench::DatasetNameFromPath(args.pos[0]), workers, wall,
      {{"qps", qps},
       {"queries", static_cast<double>(queries)},
       {"p99_us", latencies.P99() * 1e6}});

  if (args.json) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  ",\"result\":{\"hierarchy\":\"%s\",\"queries\":%d,"
                  "\"query_threads\":%d,\"tree_nodes\":%u,\"elements\":%u,"
                  "\"qps\":%.1f,\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,"
                  "\"p99\":%.1f}}",
                  kind_name, queries, workers, flat.NumNodes(), num_elements,
                  qps, latencies.P50() * 1e6, latencies.P95() * 1e6,
                  latencies.P99() * 1e6);
    PrintJsonReport("query-bench", args, *engine, buf);
    return 0;
  }
  std::printf("served %d %s queries with %d workers over one element "
              "index (%u classes, %u elements)\n",
              queries, kind_name, workers, flat.NumNodes(), num_elements);
  std::printf("QPS   %.0f\n", qps);
  std::printf("p50   %.1f us\n", latencies.P50() * 1e6);
  std::printf("p95   %.1f us\n", latencies.P95() * 1e6);
  std::printf("p99   %.1f us\n", latencies.P99() * 1e6);
  return 0;
}

int CmdQueryBench(const CliArgs& args) {
  if (args.pos.size() != 1) return Usage();
  if (args.options.hierarchy != hcd::HierarchyKind::kCore) {
    return CmdElementQueryBench(args);
  }
  std::unique_ptr<HcdEngine> engine;
  Status s = HcdEngine::Load(args.pos[0], args.options, &engine);
  if (!s.ok()) return Fail(s);
  s = AdoptSnapshotIfRequested(args, engine.get());
  if (!s.ok()) return Fail(s);

  std::vector<hcd::Metric> workload = args.workload;
  if (workload.empty()) {
    workload.assign(std::begin(hcd::kAllMetrics), std::end(hcd::kAllMetrics));
  }
  const int workers = args.query_threads > 0 ? args.query_threads
                                             : hcd::HardwareThreads();
  const int queries = args.queries;

  // Build phase: every expensive stage runs here, once, on this thread.
  const hcd::QuerySnapshot snapshot = engine->Snapshot();

  // When --metrics-out is active, every served query also lands in the
  // hcd_query_latency_seconds histogram: one unlabeled overall series
  // (bucket counts sum to --queries) plus one {metric=...} child per
  // workload metric. The registry lookups happen once, up front; the
  // per-query path is a pair of lock-free Observe calls.
  hcd::Histogram* overall_hist = nullptr;
  std::vector<hcd::Histogram*> metric_hist(workload.size(), nullptr);
  if (hcd::MetricsRegistry* registry = hcd::MetricsRegistry::Current()) {
    const std::string name = "hcd_query_latency_seconds";
    const std::string help = "End-to-end latency of one served query.";
    overall_hist = registry->GetHistogram(name, help);
    for (size_t i = 0; i < workload.size(); ++i) {
      metric_hist[i] = registry->GetHistogram(
          name, help, {{"metric", hcd::MetricName(workload[i])}});
    }
  }

  // Serve phase: `workers` threads score the mixed workload concurrently
  // against the shared snapshot. Worker t serves query ids t, t+workers,
  // ... so every worker sees every metric in the mix. Each worker owns a
  // reusable SearchWorkspace and private per-metric LatencyRecorders
  // (merged after the join); the stage record gets one aggregate "serve"
  // stage rather than one record per query.
  std::vector<std::vector<hcd::bench::LatencyRecorder>> recorders(
      workers, std::vector<hcd::bench::LatencyRecorder>(workload.size()));
  double wall = 0.0;
  {
    ScopedStage stage("serve");
    hcd::Timer timer;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int t = 0; t < workers; ++t) {
      pool.emplace_back([&, t] {
        hcd::SearchWorkspace ws;
        for (int q = t; q < queries; q += workers) {
          const size_t mi = static_cast<size_t>(q) % workload.size();
          hcd::Timer query_timer;
          snapshot.Search(workload[mi], &ws);
          const double seconds = query_timer.Seconds();
          recorders[t][mi].Record(seconds);
          if (overall_hist != nullptr) {
            overall_hist->Observe(seconds);
            metric_hist[mi]->Observe(seconds);
          }
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    wall = timer.Seconds();
    stage.AddCounter("queries", queries);
    stage.AddCounter("workers", workers);
  }
  hcd::bench::LatencyRecorder latencies;
  std::vector<hcd::bench::LatencyRecorder> per_metric(workload.size());
  for (const auto& worker_recorders : recorders) {
    for (size_t i = 0; i < workload.size(); ++i) {
      per_metric[i].Merge(worker_recorders[i]);
      latencies.Merge(worker_recorders[i]);
    }
  }
  // Guard the ratio: a degenerate wall time (clock granularity on a tiny
  // run) must not put `inf`/`nan` into the JSON report or the baseline.
  const double qps =
      hcd::FiniteOrZero(static_cast<double>(queries) / wall);
  hcd::bench::ReportBaseline(
      "query_bench_cli", hcd::bench::DatasetNameFromPath(args.pos[0]),
      workers, wall,
      {{"qps", qps},
       {"queries", static_cast<double>(queries)},
       {"p99_us", latencies.P99() * 1e6}});

  if (args.json) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"result\":{\"queries\":%d,\"query_threads\":%d,"
                  "\"qps\":%.1f,\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,"
                  "\"p99\":%.1f},\"latency_us_by_metric\":{",
                  queries, workers, qps, latencies.P50() * 1e6,
                  latencies.P95() * 1e6, latencies.P99() * 1e6);
    std::string extra = buf;
    for (size_t i = 0; i < workload.size(); ++i) {
      if (i > 0) extra += ',';
      std::snprintf(buf, sizeof(buf),
                    "\"%s\":{\"count\":%zu,\"p50\":%.1f,\"p95\":%.1f,"
                    "\"p99\":%.1f}",
                    hcd::MetricName(workload[i]), per_metric[i].Count(),
                    per_metric[i].P50() * 1e6, per_metric[i].P95() * 1e6,
                    per_metric[i].P99() * 1e6);
      extra += buf;
    }
    extra += "}}";
    PrintJsonReport("query-bench", args, *engine, extra);
    return 0;
  }
  std::printf("served %d queries (%zu-metric mix) with %d workers over one "
              "snapshot\n",
              queries, workload.size(), workers);
  std::printf("QPS   %.0f\n", qps);
  std::printf("p50   %.1f us\n", latencies.P50() * 1e6);
  std::printf("p95   %.1f us\n", latencies.P95() * 1e6);
  std::printf("p99   %.1f us\n", latencies.P99() * 1e6);
  return 0;
}

/// Serves a mixed-metric read workload from --query-threads workers while a
/// writer thread applies --batches random edge batches of --batch-size
/// updates each (paced by --update-rate), measuring read throughput and
/// tail latency under live hot-swaps. A second, read-only phase of the same
/// wall duration then gives the interference-free baseline, so the report
/// can state what fraction of read throughput survives the update stream.
int CmdLiveBench(const CliArgs& args) {
  if (args.pos.size() != 1) return Usage();
  Graph graph;
  Status s = HasSuffix(args.pos[0], ".bin")
                 ? hcd::LoadBinary(args.pos[0], &graph)
                 : hcd::LoadEdgeListText(args.pos[0], &graph);
  if (!s.ok()) return Fail(s);
  const hcd::VertexId n = graph.NumVertices();
  if (n < 2) return Fail(Status::InvalidArgument("graph too small"));
  const hcd::EdgeIndex m = graph.NumEdges();

  std::vector<hcd::Metric> workload = args.workload;
  if (workload.empty()) {
    workload.assign(std::begin(hcd::kAllMetrics), std::end(hcd::kAllMetrics));
  }
  const int workers = args.query_threads > 0 ? args.query_threads
                                             : hcd::HardwareThreads();

  hcd::LiveEngineOptions live_options;
  live_options.engine = args.options;
  hcd::LiveEngine live(std::move(graph), live_options);

  // One phase of concurrent reading: `workers` threads acquire + search in
  // a loop until told to stop; returns {reads, wall, latencies}.
  struct PhaseResult {
    uint64_t reads = 0;
    double wall = 0.0;
    hcd::bench::LatencyRecorder latencies;
  };
  auto run_readers = [&](const std::function<void()>& writer_body) {
    PhaseResult result;
    std::atomic<bool> stop{false};
    std::vector<hcd::bench::LatencyRecorder> recorders(workers);
    std::vector<uint64_t> counts(workers, 0);
    hcd::Timer timer;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int t = 0; t < workers; ++t) {
      pool.emplace_back([&, t] {
        hcd::SearchWorkspace ws;
        // Cached per-reader handle: lock-free while the epoch is stable,
        // refreshed from the manager when a new generation lands.
        hcd::SnapshotReader reader(live.manager());
        size_t mi = static_cast<size_t>(t) % workload.size();
        while (!stop.load(std::memory_order_relaxed)) {
          const hcd::QuerySnapshot snap = reader.Snapshot();
          hcd::Timer query_timer;
          snap.Search(workload[mi], &ws);
          recorders[t].Record(query_timer.Seconds());
          ++counts[t];
          mi = (mi + 1) % workload.size();
        }
      });
    }
    writer_body();
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& worker : pool) worker.join();
    result.wall = timer.Seconds();
    for (int t = 0; t < workers; ++t) {
      result.reads += counts[t];
      result.latencies.Merge(recorders[t]);
    }
    return result;
  };

  // Live phase: the writer toggles `batch_size` distinct random edges per
  // batch against its own view of the graph, so every batch has full net
  // effect and publishes exactly one epoch.
  hcd::Rng rng(args.seed);
  std::vector<hcd::BatchApplyReport> reports;
  reports.reserve(args.batches);
  Status writer_status = Status::Ok();
  const auto writer = [&] {
    const auto start = std::chrono::steady_clock::now();
    for (int b = 0; b < args.batches; ++b) {
      if (args.update_rate > 0.0) {
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(b / args.update_rate));
        std::this_thread::sleep_until(due);
      }
      std::vector<hcd::EdgeUpdate> batch;
      std::unordered_set<uint64_t> used;
      uint64_t attempts = 0;
      while (batch.size() < static_cast<size_t>(args.batch_size) &&
             ++attempts < 100 * static_cast<uint64_t>(args.batch_size)) {
        const auto u = static_cast<hcd::VertexId>(rng.Uniform(n));
        const auto v = static_cast<hcd::VertexId>(rng.Uniform(n));
        if (u == v) continue;
        const uint64_t key =
            (uint64_t{std::min(u, v)} << 32) | std::max(u, v);
        if (!used.insert(key).second) continue;
        batch.push_back({u, v,
                         live.dynamic().HasEdge(u, v) ? hcd::EdgeOp::kRemove
                                                      : hcd::EdgeOp::kInsert});
      }
      hcd::BatchApplyReport report;
      writer_status = live.ApplyBatch(batch, &report);
      if (!writer_status.ok()) return;
      reports.push_back(report);
    }
  };
  const PhaseResult live_phase = run_readers(writer);
  if (!writer_status.ok()) return Fail(writer_status);

  // Read-only phase over the final generation, same wall duration.
  const double live_wall = live_phase.wall;
  const PhaseResult readonly_phase = run_readers([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(live_wall));
  });

  // Every ratio is guarded: a degenerate phase (zero wall, zero reads)
  // must report 0, never `inf`/`nan` — the JSON report would not parse.
  const double live_qps = hcd::FiniteOrZero(
      static_cast<double>(live_phase.reads) / live_phase.wall);
  const double readonly_qps = hcd::FiniteOrZero(
      static_cast<double>(readonly_phase.reads) / readonly_phase.wall);
  const double retained = hcd::FiniteOrZero(live_qps / readonly_qps);
  double apply_sum = 0.0, apply_max = 0.0, refreeze_sum = 0.0;
  uint64_t subcores = 0, full_rebuilds = 0;
  for (const hcd::BatchApplyReport& r : reports) {
    apply_sum += r.total_seconds;
    apply_max = std::max(apply_max, r.total_seconds);
    refreeze_sum += r.refreeze_seconds;
    subcores += r.stats.subcores_touched;
    full_rebuilds += r.full_rebuild ? 1 : 0;
  }
  const double apply_mean =
      reports.empty() ? 0.0 : apply_sum / static_cast<double>(reports.size());

  if (args.json) {
    std::printf(
        "{\"command\":\"live-bench\",\"graph\":{\"n\":%u,\"m\":%llu},"
        "\"result\":{\"query_threads\":%d,\"batches\":%zu,"
        "\"batch_size\":%d,\"update_rate\":%.3f,\"epochs\":%llu,"
        "\"live\":{\"reads\":%llu,\"qps\":%.1f,\"latency_us\":{"
        "\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}},"
        "\"read_only\":{\"reads\":%llu,\"qps\":%.1f,\"latency_us\":{"
        "\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}},"
        "\"qps_retained\":%.3f,"
        "\"batch_apply_ms\":{\"mean\":%.3f,\"max\":%.3f},"
        "\"refreeze_ms_total\":%.3f,\"subcores_touched\":%llu,"
        "\"full_rebuilds\":%llu}}\n",
        n, static_cast<unsigned long long>(m), workers, reports.size(),
        args.batch_size, args.update_rate,
        static_cast<unsigned long long>(live.Epoch()),
        static_cast<unsigned long long>(live_phase.reads), live_qps,
        live_phase.latencies.P50() * 1e6, live_phase.latencies.P95() * 1e6,
        live_phase.latencies.P99() * 1e6,
        static_cast<unsigned long long>(readonly_phase.reads), readonly_qps,
        readonly_phase.latencies.P50() * 1e6,
        readonly_phase.latencies.P95() * 1e6,
        readonly_phase.latencies.P99() * 1e6, retained, apply_mean * 1e3,
        apply_max * 1e3, refreeze_sum * 1e3,
        static_cast<unsigned long long>(subcores),
        static_cast<unsigned long long>(full_rebuilds));
    return 0;
  }
  std::printf("live phase: %d readers over %zu batches x %d updates "
              "(%llu epochs published)\n",
              workers, reports.size(), args.batch_size,
              static_cast<unsigned long long>(live.Epoch()));
  std::printf("  read QPS  %.0f   p50 %.1f us   p99 %.1f us\n", live_qps,
              live_phase.latencies.P50() * 1e6,
              live_phase.latencies.P99() * 1e6);
  std::printf("read-only phase (same duration):\n");
  std::printf("  read QPS  %.0f   p50 %.1f us   p99 %.1f us\n", readonly_qps,
              readonly_phase.latencies.P50() * 1e6,
              readonly_phase.latencies.P99() * 1e6);
  std::printf("throughput retained under writes: %.1f%%\n", retained * 100.0);
  std::printf("batch apply: mean %.2f ms, max %.2f ms (%llu subcores, "
              "%llu full rebuilds)\n",
              apply_mean * 1e3, apply_max * 1e3,
              static_cast<unsigned long long>(subcores),
              static_cast<unsigned long long>(full_rebuilds));
  return 0;
}

std::atomic<bool> g_serve_stop{false};

void ServeSignalHandler(int) { g_serve_stop.store(true); }

/// Minimal scanner over the server's fixed-layout stats JSON (see
/// QueryServer::RenderStatsJson): finds `"key":` at or after `from` and
/// parses the number that follows. Good enough for rendering a document we
/// emit ourselves; not a general JSON parser.
bool FindJsonNumber(const std::string& json, const char* key, size_t from,
                    double* value) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return false;
  const char* start = json.c_str() + pos + needle.size();
  char* end = nullptr;
  const double parsed = std::strtod(start, &end);
  if (end == start) return false;
  *value = parsed;
  return true;
}

double JsonNumberOr(const std::string& json, const char* key, size_t from,
                    double fallback) {
  double value = fallback;
  FindJsonNumber(json, key, from, &value);
  return value;
}

/// One "  <name>  mean  p50  p95  p99 (count)" row from the quantile
/// object that follows `from` (a position inside the stats JSON just
/// before the object's keys).
void PrintQuantileRow(const std::string& json, const char* name,
                      size_t from) {
  std::printf("  %-8s %10.1f %10.1f %10.1f %10.1f %12.0f\n", name,
              JsonNumberOr(json, "mean_us", from, 0.0),
              JsonNumberOr(json, "p50_us", from, 0.0),
              JsonNumberOr(json, "p95_us", from, 0.0),
              JsonNumberOr(json, "p99_us", from, 0.0),
              JsonNumberOr(json, "count", from, 0.0));
}

/// Renders the kStats JSON as the human `stats --connect` view: server
/// line, totals line, one row per rolling window, and the lifetime phase
/// attribution table.
void PrintServerStatsJson(const std::string& json) {
  std::printf("uptime %.1fs  epoch %.0f  workers %.0f  queue %.0f  "
              "inflight %.0f\n",
              JsonNumberOr(json, "uptime_seconds", 0, 0.0),
              JsonNumberOr(json, "epoch", 0, 0.0),
              JsonNumberOr(json, "workers", 0, 0.0),
              JsonNumberOr(json, "queue_depth", 0, 0.0),
              JsonNumberOr(json, "inflight", 0, 0.0));
  const size_t totals_pos = json.find("\"totals\":{");
  std::printf("totals: %.0f requests, %.0f cache hits, %.0f bad, %.0f shed, "
              "%.0f connections, slow log %.0f written / %.0f dropped\n",
              JsonNumberOr(json, "requests", totals_pos, 0.0),
              JsonNumberOr(json, "cache_hits", totals_pos, 0.0),
              JsonNumberOr(json, "bad_requests", totals_pos, 0.0),
              JsonNumberOr(json, "shed", totals_pos, 0.0),
              JsonNumberOr(json, "connections", totals_pos, 0.0),
              JsonNumberOr(json, "slow_log_written", totals_pos, 0.0),
              JsonNumberOr(json, "slow_log_dropped", totals_pos, 0.0));
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
                label.c_str(), JsonNumberOr(json, "qps", label_pos, 0.0),
                JsonNumberOr(json, "cache_hit_rate", label_pos, 0.0) * 100.0,
                JsonNumberOr(json, "error_rate", label_pos, 0.0) * 100.0,
                JsonNumberOr(json, "p50_us", latency_pos, 0.0),
                JsonNumberOr(json, "p95_us", latency_pos, 0.0),
                JsonNumberOr(json, "p99_us", latency_pos, 0.0));
    pos = label_end;
  }
  const size_t total_pos = json.find("\"total\":{");
  if (total_pos == std::string::npos) return;
  std::printf("lifetime phase attribution (us):\n");
  std::printf("  %-8s %10s %10s %10s %10s %12s\n", "phase", "mean", "p50",
              "p95", "p99", "count");
  PrintQuantileRow(json, "latency", json.find("\"latency_us\":", total_pos));
  const size_t phases_pos = json.find("\"phases_us\":{", total_pos);
  for (const char* phase : {"queue", "decode", "cache", "search", "encode"}) {
    const std::string needle = std::string("\"") + phase + "\":{";
    PrintQuantileRow(json, phase, json.find(needle, phases_pos));
  }
}

/// `stats --connect=HOST:PORT [--watch=N]`: fetches a running server's
/// kStats snapshot and renders it (raw JSON under --json); --watch
/// refreshes every N seconds until interrupted.
int CmdStatsConnect(const CliArgs& args) {
  if (!args.pos.empty()) return Usage();
  g_serve_stop.store(false);
  if (args.watch_seconds > 0) {
    std::signal(SIGINT, ServeSignalHandler);
    std::signal(SIGTERM, ServeSignalHandler);
  }
  for (;;) {
    hcd::server::QueryClient client;
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
    if (args.watch_seconds <= 0) return 0;
    for (int tick = 0;
         tick < args.watch_seconds * 10 && !g_serve_stop.load(); ++tick) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (g_serve_stop.load()) return 0;
  }
}

/// Runs the socket front door over <graph> until SIGINT/SIGTERM: builds
/// the hierarchy once (LiveEngine, so a future writer could keep applying
/// batches), starts the QueryServer, prints the bound port, and waits.
int CmdServe(const CliArgs& args) {
  if (args.pos.size() != 1) return Usage();
  Graph graph;
  Status s = HasSuffix(args.pos[0], ".bin")
                 ? hcd::LoadBinary(args.pos[0], &graph)
                 : hcd::LoadEdgeListText(args.pos[0], &graph);
  if (!s.ok()) return Fail(s);
  // --snapshot: load a prebuilt flat index instead of constructing the
  // hierarchy at startup. Serving defaults to --snapshot-mode=mmap: the
  // kernel pages the index in on demand and shares the page cache across
  // restarts and processes, so the server is ready as soon as the graph is
  // loaded and validation has run.
  const hcd::SnapshotMode serve_mode =
      args.snapshot_mode_set ? args.snapshot_mode : hcd::SnapshotMode::kMmap;
  std::shared_ptr<const hcd::FlatHcdIndex> snapshot_flat;
  if (!args.snapshot_path.empty()) {
    hcd::FlatHcdIndex flat;
    s = hcd::LoadFlatSnapshot(args.snapshot_path, serve_mode, &flat);
    if (!s.ok()) return Fail(s);
    snapshot_flat =
        std::make_shared<const hcd::FlatHcdIndex>(std::move(flat));
    if (snapshot_flat->kind() != args.options.hierarchy) {
      return Fail(Status::InvalidArgument(
          args.snapshot_path + ": snapshot kind " +
          hcd::HierarchyKindName(snapshot_flat->kind()) +
          " does not match --hierarchy=" +
          hcd::HierarchyKindName(args.options.hierarchy)));
    }
    const hcd::VertexId covered =
        snapshot_flat->kind() == hcd::HierarchyKind::kCore
            ? snapshot_flat->NumVertices()
            : snapshot_flat->NumGraphVertices();
    if (covered != graph.NumVertices()) {
      return Fail(Status::InvalidArgument(
          args.snapshot_path + ": snapshot covers " + std::to_string(covered) +
          " graph vertices but " + args.pos[0] + " has " +
          std::to_string(graph.NumVertices())));
    }
  }
  // --hierarchy=truss|nucleus: build the element hierarchy up front (on a
  // copy of the graph — the live engine takes the original) and serve its
  // eager search index next to the core snapshots. The live manager keeps
  // publishing core generations; element requests route by their wire
  // hierarchy byte. With --snapshot, the element index is built straight
  // over the (typically mapped) snapshot — no decomposition runs at all.
  std::optional<HcdEngine> element_engine;
  std::optional<hcd::ElementSearchIndex> snapshot_element_index;
  hcd::server::ServerOptions options;
  if (args.options.hierarchy != hcd::HierarchyKind::kCore) {
    if (snapshot_flat != nullptr) {
      snapshot_element_index.emplace(snapshot_flat);
      options.element_index = &*snapshot_element_index;
    } else {
      element_engine.emplace(Graph(graph), args.options);
      options.element_index = &element_engine->ElementSearcher();
    }
  }
  hcd::LiveEngineOptions live_options;
  live_options.engine = args.options;
  live_options.engine.hierarchy = hcd::HierarchyKind::kCore;
  if (snapshot_flat != nullptr &&
      snapshot_flat->kind() == hcd::HierarchyKind::kCore) {
    live_options.initial_flat = snapshot_flat;
  }
  hcd::LiveEngine live(std::move(graph), live_options);

  options.port = static_cast<uint16_t>(args.port);
  options.workers = args.server_workers;
  options.max_pending = args.max_pending;
  options.cache = !args.no_cache;
  if (args.slow_query_ms >= 0.0 && args.slow_log_path.empty()) {
    return Fail(Status::InvalidArgument(
        "--slow-query-ms needs --slow-log=FILE to write the records to"));
  }
  options.slow_query_ms = args.slow_query_ms;
  options.slow_log_path = args.slow_log_path;
  options.slow_log_sample_every = args.slow_log_sample;
  hcd::server::QueryServer server(&live.manager(), options);
  s = server.Start();
  if (!s.ok()) return Fail(s);

  // The port line is the readiness signal scripts wait for; flush it.
  std::string hierarchy_note =
      options.element_index != nullptr
          ? std::string(", ") +
                hcd::HierarchyKindName(args.options.hierarchy) + " index"
          : "";
  if (snapshot_flat != nullptr) {
    hierarchy_note +=
        std::string(", snapshot ") + hcd::SnapshotModeName(serve_mode);
  }
  if (!args.slow_log_path.empty()) {
    hierarchy_note += ", slow log " + args.slow_log_path;
  }
  std::printf("serving %s on 127.0.0.1:%u (%d workers, cache %s%s)\n",
              args.pos[0].c_str(), server.port(), server.workers(),
              options.cache ? "on" : "off", hierarchy_note.c_str());
  std::fflush(stdout);

  g_serve_stop.store(false);
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (!g_serve_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.Stop();

  const hcd::server::ServerStats stats = server.stats();
  const hcd::server::SlowQueryLog* slow_log = server.slow_log();
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
/// warm cache answers most requests.
int CmdServeBench(const CliArgs& args) {
  const bool self_hosted = args.connect_port < 0;
  if (self_hosted && args.pos.size() != 1) return Usage();
  if (!self_hosted && !args.pos.empty()) return Usage();

  std::optional<hcd::LiveEngine> live;
  std::optional<hcd::server::QueryServer> server;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string dataset = "remote";
  if (self_hosted) {
    Graph graph;
    Status s = HasSuffix(args.pos[0], ".bin")
                   ? hcd::LoadBinary(args.pos[0], &graph)
                   : hcd::LoadEdgeListText(args.pos[0], &graph);
    if (!s.ok()) return Fail(s);
    dataset = hcd::bench::DatasetNameFromPath(args.pos[0]);
    hcd::LiveEngineOptions live_options;
    live_options.engine = args.options;
    live.emplace(std::move(graph), live_options);
    hcd::server::ServerOptions options;
    options.port = static_cast<uint16_t>(args.port);
    options.workers = args.server_workers;
    // Self mode drives exactly --connections clients; make sure admission
    // control never sheds the bench's own load.
    options.max_pending = std::max(args.max_pending, args.connections);
    options.cache = !args.no_cache;
    server.emplace(&live->manager(), options);
    s = server->Start();
    if (!s.ok()) return Fail(s);
    port = server->port();
  } else {
    host = args.connect_host;
    port = static_cast<uint16_t>(args.connect_port);
  }

  std::vector<hcd::Metric> workload = args.workload;
  if (workload.empty()) {
    workload.assign(std::begin(hcd::kAllMetrics), std::end(hcd::kAllMetrics));
  }
  const int connections = args.connections;
  const int queries = args.queries;
  const uint32_t distinct_k = static_cast<uint32_t>(args.distinct_k);

  // Connection c serves query ids c, c+connections, ...; the key of query
  // q is (metric q mod |mix|, k (q / |mix|) mod distinct_k), so the
  // distinct-key count is |mix| * distinct_k and everything beyond the
  // first cycle repeats — the cache-hit half of the acceptance test.
  std::vector<hcd::bench::LatencyRecorder> recorders(connections);
  std::vector<uint64_t> hit_counts(connections, 0);
  std::vector<Status> worker_status(connections, Status::Ok());
  hcd::Timer timer;
  std::vector<std::thread> pool;
  pool.reserve(connections);
  for (int c = 0; c < connections; ++c) {
    pool.emplace_back([&, c] {
      hcd::server::QueryClient client;
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
      hcd::server::QueryRequest request;
      hcd::server::QueryResponse response;
      std::vector<int> ids;
      for (int q = c; q < queries; q += connections) ids.push_back(q);
      const size_t window = static_cast<size_t>(args.pipeline);
      std::vector<hcd::Timer> in_flight(window);
      size_t sent = 0, received = 0;
      while (received < ids.size()) {
        while (sent < ids.size() && sent - received < window) {
          const int q = ids[sent];
          const size_t mi = static_cast<size_t>(q) % workload.size();
          request.metric = workload[mi];
          request.k = static_cast<uint32_t>(q / workload.size()) % distinct_k;
          in_flight[sent % window] = hcd::Timer();
          s = client.SendQuery(request);
          if (!s.ok()) {
            worker_status[c] = s;
            return;
          }
          ++sent;
        }
        s = client.ReadQueryResponse(&response);
        if (!s.ok() || response.status != hcd::server::ResponseStatus::kOk) {
          worker_status[c] =
              s.ok() ? Status::Internal("server refused a query") : s;
          return;
        }
        recorders[c].Record(in_flight[received % window].Seconds());
        if (response.cache_hit) ++hit_counts[c];
        ++received;
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  const double wall = timer.Seconds();
  for (const Status& s : worker_status) {
    if (!s.ok()) return Fail(s);
  }

  hcd::bench::LatencyRecorder latencies;
  uint64_t hits = 0;
  for (int c = 0; c < connections; ++c) {
    latencies.Merge(recorders[c]);
    hits += hit_counts[c];
  }
  const uint64_t served = latencies.Count();
  // Guarded ratios: a degenerate run (zero wall, zero requests) must
  // report 0, never `inf`/`nan`.
  const double qps = hcd::FiniteOrZero(static_cast<double>(served) / wall);
  const double hit_rate =
      hcd::FiniteOrZero(static_cast<double>(hits) /
                        static_cast<double>(served));

  if (!args.server_metrics_out.empty()) {
    hcd::server::QueryClient client;
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
    hcd::server::QueryClient client;
    Status s = client.Connect(host, port);
    if (s.ok()) s = client.FetchStats(&server_stats_json);
    if (!s.ok()) return Fail(s);
  }

  hcd::bench::ReportBaseline(
      "serve_bench", dataset, connections, wall,
      {{"qps", qps},
       {"hit_rate", hit_rate},
       {"queries", static_cast<double>(served)},
       {"pipeline", static_cast<double>(args.pipeline)},
       {"p99_us", latencies.P99() * 1e6}});

  if (args.json) {
    std::string server_extra;
    if (self_hosted) {
      const hcd::server::ServerStats stats = server->stats();
      char buf[192];
      std::snprintf(buf, sizeof(buf),
                    ",\"server\":{\"workers\":%d,\"requests\":%llu,"
                    "\"cache_hits\":%llu,\"shed\":%llu}",
                    server->workers(),
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
        "\"result\":{\"queries\":%llu,\"qps\":%.1f,\"hit_rate\":%.4f,"
        "\"cache_hits\":%llu,\"latency_us\":{\"p50\":%.1f,\"p95\":%.1f,"
        "\"p99\":%.1f}%s}}\n",
        connections, args.pipeline,
        static_cast<unsigned long long>(served), qps, hit_rate,
        static_cast<unsigned long long>(hits), latencies.P50() * 1e6,
        latencies.P95() * 1e6, latencies.P99() * 1e6, server_extra.c_str());
    return 0;
  }
  std::printf("served %llu queries over %d connections "
              "(%zu-metric mix, k<%u, pipeline %d)\n",
              static_cast<unsigned long long>(served), connections,
              workload.size(), distinct_k, args.pipeline);
  std::printf("QPS   %.0f\n", qps);
  std::printf("p50   %.1f us\n", latencies.P50() * 1e6);
  std::printf("p95   %.1f us\n", latencies.P95() * 1e6);
  std::printf("p99   %.1f us\n", latencies.P99() * 1e6);
  std::printf("cache hit rate %.1f%% (%llu/%llu)\n", hit_rate * 100.0,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(served));
  if (!server_stats_json.empty()) {
    const size_t total_pos = server_stats_json.find("\"total\":{");
    std::printf("server phase attribution (lifetime, us; client p99 was "
                "%.1f us including the wire):\n",
                latencies.P99() * 1e6);
    std::printf("  %-8s %10s %10s %10s %10s %12s\n", "phase", "mean", "p50",
                "p95", "p99", "count");
    PrintQuantileRow(server_stats_json, "latency",
                     server_stats_json.find("\"latency_us\":", total_pos));
    const size_t phases_pos =
        server_stats_json.find("\"phases_us\":{", total_pos);
    for (const char* phase :
         {"queue", "decode", "cache", "search", "encode"}) {
      const std::string needle = std::string("\"") + phase + "\":{";
      PrintQuantileRow(server_stats_json, phase,
                       server_stats_json.find(needle, phases_pos));
    }
  }
  return 0;
}

int RunCommand(const std::string& cmd, const CliArgs& args) {
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "convert") return CmdConvert(args);
  if (cmd == "stats") return CmdStats(args);
  if (cmd == "build") return CmdBuild(args);
  if (cmd == "search") return CmdSearch(args);
  if (cmd == "export") return CmdExport(args);
  if (cmd == "truss") return CmdTruss(args);
  if (cmd == "influential") return CmdInfluential(args);
  if (cmd == "bestk") return CmdBestK(args);
  if (cmd == "query-bench") return CmdQueryBench(args);
  if (cmd == "live-bench") return CmdLiveBench(args);
  if (cmd == "serve") return CmdServe(args);
  if (cmd == "serve-bench") return CmdServeBench(args);
  return Usage();
}

int WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) return Fail(Status::IoError("cannot write " + path));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  CliArgs args;
  if (!ParseCliArgs(argc, argv, 2, &args)) return Usage();
  if (cmd != "query-bench" && cmd != "live-bench" && cmd != "serve-bench" &&
      !args.serve_flag.empty()) {
    std::fprintf(stderr,
                 "error: flag '%s' is only valid for query-bench, "
                 "live-bench or serve-bench\n",
                 args.serve_flag.c_str());
    return Usage();
  }
  if (cmd != "live-bench" && !args.live_flag.empty()) {
    std::fprintf(stderr, "error: flag '%s' is only valid for live-bench\n",
                 args.live_flag.c_str());
    return Usage();
  }
  if (cmd != "serve" && cmd != "serve-bench" && !args.server_flag.empty()) {
    std::fprintf(stderr,
                 "error: flag '%s' is only valid for serve or serve-bench\n",
                 args.server_flag.c_str());
    return Usage();
  }
  if (cmd != "serve-bench" && cmd != "stats" && !args.connect_flag.empty()) {
    std::fprintf(stderr,
                 "error: flag '%s' is only valid for serve-bench or stats\n",
                 args.connect_flag.c_str());
    return Usage();
  }
  if (cmd != "serve" && !args.serve_only_flag.empty()) {
    std::fprintf(stderr, "error: flag '%s' is only valid for serve\n",
                 args.serve_only_flag.c_str());
    return Usage();
  }
  if (cmd != "stats" && !args.stats_flag.empty()) {
    std::fprintf(stderr, "error: flag '%s' is only valid for stats\n",
                 args.stats_flag.c_str());
    return Usage();
  }
  if (cmd != "serve-bench" && !args.bench_only_flag.empty()) {
    std::fprintf(stderr, "error: flag '%s' is only valid for serve-bench\n",
                 args.bench_only_flag.c_str());
    return Usage();
  }
  if (cmd != "build" && cmd != "export" && cmd != "query-bench" &&
      cmd != "serve" && !args.hierarchy_flag.empty()) {
    std::fprintf(stderr,
                 "error: flag '%s' is only valid for build, export, "
                 "query-bench or serve\n",
                 args.hierarchy_flag.c_str());
    return Usage();
  }
  if (cmd != "export" && cmd != "query-bench" && cmd != "serve" &&
      !args.snapshot_flag.empty()) {
    std::fprintf(stderr,
                 "error: flag '%s' is only valid for export, query-bench "
                 "or serve\n",
                 args.snapshot_flag.c_str());
    return Usage();
  }

  // Observability backends live for the whole invocation: every ScopedStage
  // and ScopedSpan below RunCommand reports into them, and the files are
  // written after the command (and its root span) finish. The stage
  // collector is always installed, since the reports and prose timings read
  // it; with neither flag the tracer/registry stay uninstalled.
  hcd::StageTelemetry stages;
  hcd::Tracer tracer;
  hcd::MetricsRegistry registry;
  stages.Install();
  if (!args.trace_out.empty()) tracer.Install();
  // The server commands always get a registry: the /metrics endpoint (and
  // serve-bench's --server-metrics-out) should carry the process-wide
  // instruments (stage histograms, snapshot gauges) next to the server's
  // own, even when no --metrics-out file was requested.
  const bool metrics_installed =
      !args.metrics_out.empty() || cmd == "serve" || cmd == "serve-bench";
  if (metrics_installed) registry.Install();

  int rc;
  const std::string root_name = "cli." + cmd;
  {
    hcd::ScopedSpan root_span(root_name.c_str());
    rc = RunCommand(cmd, args);
  }

  if (!args.trace_out.empty()) {
    tracer.Uninstall();
    const Status s = tracer.WriteChromeJson(args.trace_out);
    if (!s.ok() && rc == 0) rc = Fail(s);
  }
  if (metrics_installed) registry.Uninstall();
  stages.Uninstall();
  if (!args.metrics_out.empty()) {
    const std::string text = HasSuffix(args.metrics_out, ".json")
                                 ? registry.RenderJson()
                                 : registry.RenderPrometheus();
    const int write_rc = WriteTextFile(args.metrics_out, text);
    if (write_rc != 0 && rc == 0) rc = write_rc;
  }
  return rc;
}
