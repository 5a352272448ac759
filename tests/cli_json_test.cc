// Round-trips every hcd_cli subcommand's --json output through the strict
// JSON parser in tests/test_util.h. The parser rejects bare `inf`/`nan`
// tokens and trailing garbage, so this is the regression net for the
// ratio-guard bugs: a degenerate run (zero wall time, zero queries) must
// emit 0, never `"qps":inf`. It also pins the exit status of every kind of
// bad invocation, and drives the wire path (serve, serve-bench --connect,
// stats --connect, SIGTERM) end to end.
//
// The CLI binary's path arrives via the HCD_CLI_BIN environment variable
// (set by the ctest registration from $<TARGET_FILE:hcd_cli>); the whole
// suite is skipped when it is absent so the test target still builds and
// runs standalone.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tests/test_util.h"

namespace {

using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

const char* CliBin() { return std::getenv("HCD_CLI_BIN"); }

std::string WorkDir() {
  const char* base = std::getenv("TMPDIR");
  std::string dir = (base != nullptr && base[0] != '\0') ? base : "/tmp";
  dir += "/hcd_cli_json_test";
  return dir;
}

/// Runs `hcd_cli <args>`, captures stdout, and requires exit status 0.
std::string RunCli(const std::string& args) {
  const std::string command = std::string(CliBin()) + " " + args;
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = pclose(pipe);
  EXPECT_EQ(status, 0) << command << "\n--- output ---\n" << out;
  return out;
}

/// Runs `hcd_cli <args>` under `timeout 20` (a command that wrongly starts
/// serving fails by timeout instead of hanging the suite) and returns its
/// exit status; `*err` receives its stderr.
int RunCliStatus(const std::string& args, std::string* err) {
  const std::string command = "timeout 20 " + std::string(CliBin()) + " " +
                              args + " 2>&1 >/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  err->clear();
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    err->append(buffer, n);
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Appends what `fd` yields to `*out` until `done(*out)` holds, EOF, or 20
/// seconds pass; returns whether `done` held.
template <typename Done>
bool ReadUntil(int fd, std::string* out, Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!done(*out)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd, POLLIN, 0};
    if (left.count() <= 0 ||
        poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return false;
    }
    char buffer[4096];
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n <= 0) return done(*out);
    out->append(buffer, static_cast<size_t>(n));
  }
  return true;
}

/// Kills and reaps a child process if the test leaves before reaping it,
/// so a failed assertion never leaves a server running.
struct ChildGuard {
  pid_t pid = -1;
  ~ChildGuard() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
};

/// The JSON document a command emitted: its last non-empty stdout line.
/// (Commands in --json mode print exactly one object as the final line;
/// anything after it would be trailing garbage and fail here.)
std::string LastLine(const std::string& out) {
  size_t end = out.size();
  while (end > 0 && (out[end - 1] == '\n' || out[end - 1] == '\r')) --end;
  const size_t start = out.find_last_of('\n', end == 0 ? 0 : end - 1);
  return out.substr(start == std::string::npos ? 0 : start + 1,
                    end - (start == std::string::npos ? 0 : start + 1));
}

/// Runs the command and strictly parses its JSON line. The returned
/// object is the parsed document; the `command` field must match.
JsonValue RunAndParse(const std::string& args, const std::string& command) {
  const std::string out = RunCli(args + " --json");
  const std::string line = LastLine(out);
  JsonValue doc;
  EXPECT_TRUE(ParseJson(line, &doc))
      << "not strict JSON from `" << args << " --json`:\n" << line;
  const JsonValue* name = doc.Find("command");
  EXPECT_NE(name, nullptr) << line;
  if (name != nullptr) {
    EXPECT_EQ(name->str, command) << line;
  }
  return doc;
}

class CliJsonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    if (CliBin() == nullptr) return;
    const std::string dir = WorkDir();
    std::system(("mkdir -p " + dir).c_str());
    bin_path_ = dir + "/g.bin";
    txt_path_ = dir + "/g.txt";
    // One binary graph for every command, one text graph for convert.
    RunCli("gen gnm " + bin_path_ + " 400 1200 7");
    RunCli("gen gnm " + txt_path_ + " 120 300 3");
  }

  void SetUp() override {
    if (CliBin() == nullptr) {
      GTEST_SKIP() << "HCD_CLI_BIN not set; run under ctest";
    }
  }

  static std::string bin_path_;
  static std::string txt_path_;
};

std::string CliJsonTest::bin_path_;
std::string CliJsonTest::txt_path_;

TEST_F(CliJsonTest, GenAndConvert) {
  const JsonValue gen =
      RunAndParse("gen gnm " + WorkDir() + "/g2.bin 100 250 5", "gen");
  const JsonValue* graph = gen.Find("graph");
  ASSERT_NE(graph, nullptr);
  const JsonValue* n = graph->Find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->number, 100.0);
  RunAndParse("convert " + txt_path_ + " " + WorkDir() + "/g3.bin", "convert");
}

TEST_F(CliJsonTest, EngineCommands) {
  RunAndParse("stats " + bin_path_, "stats");
  const JsonValue build = RunAndParse(
      "build " + bin_path_ + " " + WorkDir() + "/g.forest", "build");
  // The envelope carries the process's peak resident set (getrusage).
  const JsonValue* peak_rss_mb = build.Find("peak_rss_mb");
  ASSERT_NE(peak_rss_mb, nullptr);
  EXPECT_GT(peak_rss_mb->number, 0.0);
  RunAndParse("search " + bin_path_ + " conductance", "search");
  RunAndParse("export " + bin_path_ + " " + WorkDir() + "/g.dot", "export");
  RunAndParse("bestk " + bin_path_ + " average-degree", "bestk");
  RunAndParse("truss " + bin_path_, "truss");
  RunAndParse("influential " + bin_path_ + " 3 2", "influential");
}

/// `result.found` of a command's document; true when the field is absent.
bool Found(const JsonValue& doc) {
  const JsonValue* result = doc.Find("result");
  EXPECT_NE(result, nullptr);
  const JsonValue* found = result == nullptr ? nullptr : result->Find("found");
  return found == nullptr || found->boolean;
}

// A graph without vertices has no k-core and no k-truss: every engine
// command still exits 0 with a document that parses, and search and truss
// report that they found nothing.
TEST_F(CliJsonTest, EmptyGraphCommands) {
  const std::string empty = WorkDir() + "/empty.txt";
  std::ofstream(empty).close();
  RunAndParse("stats " + empty, "stats");
  RunAndParse("build " + empty + " " + WorkDir() + "/empty.forest", "build");
  for (const char* metric : {"average-degree", "clustering-coefficient"}) {
    EXPECT_FALSE(
        Found(RunAndParse("search " + empty + " " + metric, "search")))
        << metric;
  }
  RunAndParse("bestk " + empty + " average-degree", "bestk");
  RunAndParse("export " + empty + " " + WorkDir() + "/empty.dot", "export");
  EXPECT_FALSE(Found(RunAndParse("truss " + empty, "truss")));
  RunAndParse("influential " + empty + " 2 3", "influential");
}

/// The `hcd_stage_*` series of a registry JSON document, keyed by name and
/// labels, each with its value (counters) or count and sum (histograms).
std::map<std::string, std::string> StageSeries(const JsonValue& registry) {
  std::map<std::string, std::string> series;
  const JsonValue* metrics = registry.Find("metrics");
  EXPECT_NE(metrics, nullptr);
  if (metrics == nullptr) return series;
  for (const JsonValue& m : metrics->array) {
    const std::string& name = m.Find("name")->str;
    if (!name.starts_with("hcd_stage_")) continue;
    std::string key = name;
    for (const auto& [label, value] : m.Find("labels")->object) {
      key += " " + label + "=" + value.str;
    }
    const JsonValue* value = m.Find("value");
    series[key] = value != nullptr
                      ? std::to_string(value->number)
                      : std::to_string(m.Find("count")->number) + " " +
                            std::to_string(m.Find("sum")->number);
  }
  return series;
}

// --json's "telemetry" is the metrics registry, the document
// --metrics-out=*.json writes: every named stage is in it, whatever order
// the stages completed in, and both views hold the same stage series.
TEST_F(CliJsonTest, BuildTelemetryIsTheMetricsRegistry) {
  const std::string metrics_path = WorkDir() + "/build_metrics.json";
  const JsonValue build =
      RunAndParse("build " + bin_path_ + " " + WorkDir() +
                      "/g_metrics.forest --threads=2 --metrics-out=" +
                      metrics_path,
                  "build");
  const JsonValue* telemetry = build.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const std::map<std::string, std::string> series = StageSeries(*telemetry);
  for (const char* stage :
       {"load", "load.read", "load.validate", "decomposition", "construction",
        "construction.freeze", "serialize"}) {
    const auto runs =
        series.find(std::string("hcd_stage_runs_total stage=") + stage);
    ASSERT_NE(runs, series.end()) << stage;
    EXPECT_EQ(runs->second, std::to_string(1.0)) << stage;
    EXPECT_TRUE(series.contains(std::string("hcd_stage_seconds stage=") +
                                stage))
        << stage;
  }
  EXPECT_TRUE(
      series.contains("hcd_stage_counter_total stage=serialize counter=nodes"));

  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << metrics_path;
  std::stringstream file;
  file << in.rdbuf();
  JsonValue written;
  ASSERT_TRUE(ParseJson(file.str(), &written));
  EXPECT_EQ(StageSeries(written), series);
}

TEST_F(CliJsonTest, ServeBenchServesTheTrussIndex) {
  // --hierarchy=truss: the self-hosted server builds the truss element
  // index, every request asks for that kind, and the report names it.
  const JsonValue doc = RunAndParse(
      "serve-bench " + bin_path_ +
          " --hierarchy=truss --connections=2 --queries=60",
      "serve-bench");
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* hierarchy = result->Find("hierarchy");
  ASSERT_NE(hierarchy, nullptr);
  EXPECT_EQ(hierarchy->str, "truss");
  const JsonValue* qps = result->Find("qps");
  ASSERT_NE(qps, nullptr);
  EXPECT_GE(qps->number, 0.0);  // the strict parser already rejected inf/nan
  const JsonValue* server = result->Find("server");
  ASSERT_NE(server, nullptr);
  const JsonValue* requests = server->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->number, 60.0);
}

TEST_F(CliJsonTest, ServeBenchReportsServerStats) {
  const JsonValue doc = RunAndParse(
      "serve-bench " + bin_path_ + " --connections=2 --queries=80",
      "serve-bench");
  const JsonValue* result = doc.Find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* hit_rate = result->Find("hit_rate");
  ASSERT_NE(hit_rate, nullptr);
  EXPECT_GE(hit_rate->number, 0.0);
  EXPECT_LE(hit_rate->number, 1.0);
  // Self-hosted mode reports the in-process server's counters inline.
  const JsonValue* server = result->Find("server");
  ASSERT_NE(server, nullptr);
  const JsonValue* requests = server->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->number, 80.0);
}

TEST_F(CliJsonTest, BadInvocationsExitTwoWithAnError) {
  const std::string g = bin_path_;
  const std::string out = WorkDir() + "/bad_out.bin";
  // Each case names the error it must fail with, so a refused flag cannot
  // pass by being unknown, nor a bad value by naming a missing command.
  const std::string kOnlyValid = "is only valid for";
  const std::vector<std::pair<std::string, std::string>> cases = {
      // Malformed or out-of-range numeric positionals, rejected before any
      // generator or load runs.
      {"gen gnm " + out + " abc 3000", "bad <n> value"},
      {"gen gnm " + out + " 10 1000", "bad <m> value"},
      {"gen gnm " + out + " 1 0", "bad <n> value"},
      {"gen rmat " + out + " 12x 100", "bad <scale> value"},
      {"gen rmat " + out + " 32 100", "bad <scale> value"},
      {"gen ba " + out + " 5 5", "bad <edges-per-vertex> value"},
      {"gen onion " + out + " 1 5", "bad <k_max> value"},
      {"influential " + g + " abc 2", "bad <k> value"},
      {"influential " + g + " 3 2x", "bad <r> value"},
      // Flags a command would otherwise accept and ignore.
      {"serve-bench " + g + " --slow-log=" + WorkDir() + "/bad.jsonl",
       kOnlyValid},
      {"serve " + g + " --queries=10", kOnlyValid},
      {"serve " + g + " --connections=4", kOnlyValid},
      {"serve " + g + " --distinct-k=2", kOnlyValid},
      {"serve " + g + " --pipeline=4", kOnlyValid},
      {"serve " + g + " --server-metrics-out=" + WorkDir() + "/bad.prom",
       kOnlyValid},
      // Unknown, malformed and wrong-command flags.
      {"build " + g + " " + WorkDir() + "/bad.forest --thread=8",
       "unknown flag '--thread=8'"},
      {"stats " + g + " --threads=zero", "bad --threads value"},
      // Removed flags: the engine always builds with PHCD, and ingest runs
      // on --threads.
      {"stats " + g + " --algo=phcd", "unknown flag '--algo=phcd'"},
      {"build " + g + " " + WorkDir() + "/bad.forest --algo=lcps",
       "unknown flag '--algo=lcps'"},
      {"stats " + g + " --io-threads=2", "unknown flag '--io-threads=2'"},
      {"serve-bench " + g + " --io-threads=4",
       "unknown flag '--io-threads=4'"},
      {"stats " + g + " --pipeline=4", kOnlyValid},
      {"stats " + g + " --hierarchy=truss", kOnlyValid},
      {"stats " + g + " --connections=4", kOnlyValid},
      {"serve-bench " + g + " --metrics=conductance,densiy",
       "bad --metrics value"},
      {"serve-bench --connect=localhost", "bad --connect value"},
      // Commands that no longer exist.
      {"query-bench " + g, "unknown command 'query-bench'"},
      {"live-bench " + g, "unknown command 'live-bench'"},
  };
  for (const auto& [args, error] : cases) {
    std::string err;
    EXPECT_EQ(RunCliStatus(args, &err), 2) << args << "\n" << err;
    EXPECT_NE(err.find("error: "), std::string::npos) << args << "\n" << err;
    EXPECT_NE(err.find(error), std::string::npos)
        << args << "\nwant: " << error << "\n" << err;
  }
}

TEST_F(CliJsonTest, ServeAnswersServeBenchAndStatsOverTheWire) {
  int out_pipe[2];
  ASSERT_EQ(pipe(out_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execl(CliBin(), CliBin(), "serve", bin_path_.c_str(), "--port=0", "--json",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  ChildGuard guard{pid};
  close(out_pipe[1]);
  // The "serving <graph> on 127.0.0.1:PORT (...)" line is the readiness
  // signal.
  const std::string marker = "on 127.0.0.1:";
  std::string out;
  const bool ready = ReadUntil(out_pipe[0], &out, [&](const std::string& o) {
    const size_t at = o.find(marker);
    return at != std::string::npos &&
           o.find(' ', at + marker.size()) != std::string::npos;
  });
  ASSERT_TRUE(ready) << "serve printed no port line:\n" << out;
  const int port = std::atoi(out.c_str() + out.find(marker) + marker.size());
  const std::string target = " --connect=127.0.0.1:" + std::to_string(port);

  const JsonValue bench = RunAndParse(
      "serve-bench" + target + " --queries=200 --server-phase-report",
      "serve-bench");
  const JsonValue* result = bench.Find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->Find("queries"), nullptr);
  EXPECT_EQ(result->Find("queries")->number, 200.0);
  EXPECT_NE(result->Find("server_stats"), nullptr);
  const std::string stats_line = LastLine(RunCli("stats" + target + " --json"));
  JsonValue stats;
  EXPECT_TRUE(ParseJson(stats_line, &stats)) << stats_line;

  // SIGTERM must end serve cleanly, with its summary as the last line.
  kill(pid, SIGTERM);
  ReadUntil(out_pipe[0], &out, [](const std::string&) { return false; });
  close(out_pipe[0]);
  int status = 0;
  for (int tick = 0; tick < 2000; ++tick) {
    if (waitpid(pid, &status, WNOHANG) == pid) {
      guard.pid = -1;
      break;
    }
    usleep(10000);
  }
  ASSERT_EQ(guard.pid, -1) << "serve ignored SIGTERM:\n" << out;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
  const std::string summary_line = LastLine(out);
  JsonValue summary;
  ASSERT_TRUE(ParseJson(summary_line, &summary)) << out;
  const JsonValue* command = summary.Find("command");
  ASSERT_NE(command, nullptr);
  EXPECT_EQ(command->str, "serve");
  const JsonValue* served = summary.Find("result");
  ASSERT_NE(served, nullptr);
  ASSERT_NE(served->Find("requests"), nullptr);
  EXPECT_EQ(served->Find("requests")->number, 200.0);
  ASSERT_NE(served->Find("stats_requests"), nullptr);
  // One from --server-phase-report, one from stats --connect.
  EXPECT_GE(served->Find("stats_requests")->number, 2.0);
}

}  // namespace
