// Pipeline benchmark harness: drives one graph file through every layer of
// the system and times each layer from outside, by calls into the
// library's public functions — ingest, PKC peeling, PHCD construction,
// Freeze, the SearchIndex build, snapshot save and mmap load, LiveEngine
// batches, and a loopback QueryServer answering wire-protocol traffic.
// run.py builds it, generates the inputs, runs it once per workload and
// turns its report into the metrics listed in BENCHMARK.json.
//
//   bench_pipeline gen --workload W --seed S --seconds T --dir D
//       Writes D/graph.bin (the workload's generated graph) and
//       D/traffic.bin (the seeded request stream the client replays). The
//       program under test only ever sees these files.
//   bench_pipeline run --workload W --seed S --seconds T --dir D
//                      [--trace FILE]
//       Measures and prints one JSON report on stdout (progress on
//       stderr). Without --trace: the end-to-end numbers, tracing off.
//       With --trace: a Tracer is installed, every layer is called one by
//       one inside a `bench.<layer>` span, the correctness oracles run, and
//       the Chrome trace is written to FILE.
//
// Every workload runs the same rounds of phases — build reps, server
// set-ups, open-loop traffic, closed-loop traffic — so every end-to-end
// metric exists on every workload; the workloads differ in the graph, in
// how the run time is shared between the phases, in the request rate and
// in whether a writer applies live batches. HCD_BENCH_SMALL=1 shrinks the
// graphs to smoke-test size.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/core_decomposition.h"
#include "core/dynamic.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "engine/snapshot.h"
#include "graph/generators.h"
#include "graph/ingest.h"
#include "graph/io.h"
#include "hcd/flat_index.h"
#include "hcd/lcps.h"
#include "hcd/phcd.h"
#include "hcd/serialize.h"
#include "hcd/validate.h"
#include "hcd/vertex_rank.h"
#include "parallel/omp_utils.h"
#include "search/bks.h"
#include "search/metrics.h"
#include "search/pbks.h"
#include "search/preprocess.h"
#include "search/search_index.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using hcd::FlatHcdIndex;
using hcd::Graph;
using hcd::Status;
using hcd::server::QueryRequest;
using hcd::server::QueryResponse;

// --- Workloads ---------------------------------------------------------------

/// One workload: the generated graph plus how a run of --seconds is spent.
/// The shares split --seconds between build reps, server set-ups, the open
/// loop and the closed loop; verification comes on top.
struct Workload {
  const char* name;
  bool rmat;            ///< RMatGraph500(scale, edges) or ErdosRenyiGnm(n, edges)
  uint32_t scale;
  uint32_t n;
  uint64_t edges;
  uint32_t small_scale;  ///< HCD_BENCH_SMALL=1 sizes
  uint32_t small_n;
  uint64_t small_edges;
  double build_share;
  double setup_share;
  double open_share;
  double closed_share;
  double rate;          ///< open-loop requests per second
  double write_period;  ///< seconds between live batches; 0 = read-only
};

// Why these four (bench/pipeline/README.md has the long form):
//  - build-skewed: hundreds of thin peeling rounds and shells plus hub-heavy
//    triangle work, so parallel overhead and search.primary_b dominate;
//  - build-uniform: few huge shells that already scale, dominated by ingest
//    and bulk peeling — a small-shell optimisation must not move it;
//  - serve-read: repeated keys, so the result cache and the request path
//    dominate and uncached scoring barely matters;
//  - serve-live: a writer publishes a new epoch every write_period, each
//    flushing the cache and rebuilding the SearchIndex next to the readers.
// The build graphs are sized so a 20 s run holds enough build reps for a
// steady median.
constexpr Workload kWorkloads[] = {
    {.name = "build-skewed", .rmat = true, .scale = 16, .n = 0,
     .edges = 1'000'000, .small_scale = 12, .small_n = 0,
     .small_edges = 30'000, .build_share = 0.4, .setup_share = 0.3,
     .open_share = 0.2, .closed_share = 0.1, .rate = 20'000,
     .write_period = 0},
    {.name = "build-uniform", .rmat = false, .scale = 0, .n = 250'000,
     .edges = 2'000'000, .small_scale = 0, .small_n = 20'000,
     .small_edges = 120'000, .build_share = 0.45, .setup_share = 0.15,
     .open_share = 0.25, .closed_share = 0.15, .rate = 20'000,
     .write_period = 0},
    {.name = "serve-read", .rmat = true, .scale = 16, .n = 0,
     .edges = 250'000, .small_scale = 11, .small_n = 0,
     .small_edges = 10'000, .build_share = 0.15, .setup_share = 0.1,
     .open_share = 0.45, .closed_share = 0.3, .rate = 20'000,
     .write_period = 0},
    {.name = "serve-live", .rmat = true, .scale = 16, .n = 0,
     .edges = 250'000, .small_scale = 11, .small_n = 0,
     .small_edges = 10'000, .build_share = 0.15, .setup_share = 0.1,
     .open_share = 0.55, .closed_share = 0.2, .rate = 2'000,
     .write_period = 2.0},
};

// On a shared 4-vCPU host, the speed of memory-heavy code drifts by about
// ±10% over spans of 5-15 s (neighbouring load), and bursts often take one
// or two vCPUs away. So the parallel builds run at two threads, the most
// such a host reliably provides, and a run is kRounds rounds of the same
// phases — build reps, set-ups, open loop, closed loop — so that every
// metric samples the whole run; each is a median or a whole-run total.
constexpr int kRounds = 5;
constexpr int kBuildThreads = 2;
constexpr int kServerWorkers = 2;
constexpr size_t kConnections = 2;
constexpr size_t kClosedWindow = 16;  ///< in flight per connection
constexpr uint32_t kMaxReturnVertices = 16;
constexpr double kKeyShare = 0.6;     ///< (metric, k) keys; rest vertex pairs
constexpr int kBatchEdges = 10;
constexpr int kMinSetups = 2;         ///< per round
constexpr int kMaxRepsPerRound = 100;  ///< of each kind
constexpr int kTracedReps = 5;
constexpr double kTracedServeSeconds = 5.0;
constexpr size_t kTracedSpansPerThread = 20'000;
constexpr size_t kInProcessQueries = 500;  ///< per regime, traced run
constexpr int64_t kDrainNs = 10'000'000'000;

bool Small() { return std::getenv("HCD_BENCH_SMALL") != nullptr; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (the ceil(q*N)-th smallest), 0 when empty.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

int Fail(const Status& s) {
  std::fprintf(stderr, "bench_pipeline: %s\n", s.ToString().c_str());
  return 1;
}

// --- Traffic -----------------------------------------------------------------

/// One request of the replayed stream, as stored in traffic.bin.
struct TrafficEntry {
  uint8_t metric = 0;        ///< index into kAllMetrics
  uint8_t num_vertices = 0;  ///< 0: a (metric, k) key; 2: a vertex pair
  uint16_t reserved = 0;
  uint32_t k = 0;
  uint32_t u = 0;
  uint32_t v = 0;
};
static_assert(sizeof(TrafficEntry) == 16);

constexpr char kTrafficMagic[8] = {'H', 'C', 'D', 'T', 'R', 'F', '0', '1'};
constexpr size_t kNumMetrics = std::size(hcd::kAllMetrics);

enum Regime { kGlobal = 0, kLevel, kVertexSet, kNumRegimes };

Regime RegimeOf(const TrafficEntry& e) {
  if (e.num_vertices > 0) return kVertexSet;
  return e.k == 0 ? kGlobal : kLevel;
}

/// 60% (metric, k) keys drawn Zipf(1.0) over 9 metrics x the hierarchy's
/// levels (k = 0 included), ranks shuffled by the seed; 40% two-vertex
/// queries (u, a neighbour of u) at a k no larger than both corenesses, so
/// every such query has an answer on the unmodified graph.
std::vector<TrafficEntry> MakeTraffic(const Graph& graph,
                                      const hcd::CoreDecomposition& cd,
                                      size_t count, uint64_t seed) {
  hcd::Rng rng(seed ^ 0x7452414646494331ULL);
  std::vector<uint32_t> levels = {0};
  {
    std::vector<bool> present(cd.k_max + 1, false);
    for (uint32_t c : cd.coreness) present[c] = true;
    for (uint32_t k = 1; k <= cd.k_max; ++k) {
      if (present[k]) levels.push_back(k);
    }
  }
  const size_t num_keys = kNumMetrics * levels.size();
  std::vector<uint32_t> key_of_rank(num_keys);
  for (size_t i = 0; i < num_keys; ++i) key_of_rank[i] = static_cast<uint32_t>(i);
  for (size_t i = num_keys; i > 1; --i) {
    std::swap(key_of_rank[i - 1], key_of_rank[rng.Uniform(i)]);
  }
  std::vector<double> cdf(num_keys);
  double total = 0.0;
  for (size_t r = 0; r < num_keys; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<hcd::VertexId> sources;
  for (hcd::VertexId v = 0; v < graph.NumVertices(); ++v) {
    if (graph.Degree(v) > 0) sources.push_back(v);
  }

  std::vector<TrafficEntry> traffic(count);
  for (TrafficEntry& e : traffic) {
    if (sources.empty() || rng.UniformDouble() < kKeyShare) {
      const double x = rng.UniformDouble() * total;
      const size_t rank = std::min<size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin(),
          num_keys - 1);
      const uint32_t key = key_of_rank[rank];
      e.metric = static_cast<uint8_t>(key % kNumMetrics);
      e.k = levels[key / kNumMetrics];
    } else {
      const hcd::VertexId u = sources[rng.Uniform(sources.size())];
      const auto neighbours = graph.Neighbors(u);
      const hcd::VertexId v = neighbours[rng.Uniform(neighbours.size())];
      e.metric = static_cast<uint8_t>(rng.Uniform(kNumMetrics));
      e.num_vertices = 2;
      e.u = u;
      e.v = v;
      e.k = 1 + static_cast<uint32_t>(
                    rng.Uniform(std::min(cd.coreness[u], cd.coreness[v])));
    }
  }
  return traffic;
}

Status WriteTraffic(const std::vector<TrafficEntry>& traffic,
                    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const uint64_t count = traffic.size();
  bool ok = std::fwrite(kTrafficMagic, 1, 8, f) == 8 &&
            std::fwrite(&count, sizeof(count), 1, f) == 1 &&
            std::fwrite(traffic.data(), sizeof(TrafficEntry), count, f) ==
                count;
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::Ok() : Status::IoError("short write to " + path);
}

/// Reads a traffic file back, checking its size against the declared
/// count and the fields used as indexes. Vertex ids need no check: server
/// and verification alike answer an out-of-range vertex with found = false.
Status ReadTraffic(const std::string& path,
                   std::vector<TrafficEntry>* traffic) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot read " + path);
  char magic[8] = {};
  uint64_t count = 0;
  long size = -1;
  if (std::fseek(f, 0, SEEK_END) == 0) size = std::ftell(f);
  std::rewind(f);
  bool ok = std::fread(magic, 1, 8, f) == 8 &&
            std::memcmp(magic, kTrafficMagic, 8) == 0 &&
            std::fread(&count, sizeof(count), 1, f) == 1 &&
            count < (uint64_t{1} << 32) &&
            static_cast<uint64_t>(size) == 16 + count * sizeof(TrafficEntry);
  if (ok) {
    traffic->resize(count);
    ok = std::fread(traffic->data(), sizeof(TrafficEntry), count, f) == count;
  }
  std::fclose(f);
  if (!ok) return Status::Corruption(path + ": not a traffic file");
  for (const TrafficEntry& e : *traffic) {
    if (e.metric >= kNumMetrics ||
        (e.num_vertices != 0 && e.num_vertices != 2)) {
      return Status::Corruption(path + ": request out of range");
    }
  }
  return Status::Ok();
}

void ToRequest(const TrafficEntry& e, QueryRequest* request) {
  request->metric = hcd::kAllMetrics[e.metric];
  request->hierarchy = hcd::HierarchyKind::kCore;
  request->k = e.k;
  request->max_return_vertices = kMaxReturnVertices;
  request->vertices.clear();
  if (e.num_vertices == 2) request->vertices = {e.u, e.v};
}

// --- Answers and their verification ------------------------------------------

/// Compact record of one answer: what the server said, or what in-process
/// ExecuteQuery says the answer on that epoch must be.
struct Answer {
  uint32_t epoch = 0;
  uint32_t level = 0;
  uint64_t core_size = 0;
  uint64_t score_bits = 0;
  uint64_t vertex_hash = 0;
  uint8_t state = 0;  ///< 0: none, 1: found, 2: not found

  bool operator==(const Answer&) const = default;
};

uint64_t HashVertices(std::span<const hcd::VertexId> vertices) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (hcd::VertexId v : vertices) {
    h = (h ^ v) * 0x100000001b3ULL;
  }
  return (h ^ vertices.size()) * 0x100000001b3ULL;
}

Answer AnswerOf(const QueryResponse& r) {
  Answer a;
  a.epoch = static_cast<uint32_t>(r.epoch);
  a.level = r.level;
  a.core_size = r.core_size;
  std::memcpy(&a.score_bits, &r.score, sizeof(double));
  a.vertex_hash = HashVertices(r.vertices);
  a.state = r.found ? 1 : 2;
  return a;
}

/// The answer the server must give `request` from `snapshot`, computed the
/// way the server computes it (ExecuteQuery, then the first
/// max_return_vertices members of the answering core).
Answer ExpectedAnswer(const hcd::QuerySnapshot& snapshot,
                      const QueryRequest& request,
                      hcd::SearchWorkspace* ws) {
  const hcd::server::QueryOutcome out =
      hcd::server::ExecuteQuery(snapshot, request, ws);
  QueryResponse r;
  r.epoch = out.epoch;
  r.found = out.found;
  r.level = out.level;
  r.core_size = out.core_size;
  r.score = out.score;
  if (out.found) {
    const auto members = snapshot.CoreVertices(out.node);
    const size_t count =
        std::min<size_t>(request.max_return_vertices, members.size());
    r.vertices.assign(members.begin(), members.begin() + count);
  }
  return AnswerOf(r);
}

/// Checks served answers against ExecuteQuery on the snapshot of the epoch
/// that answered. Answers from epochs whose snapshot is not held are
/// counted as unverified.
class Verifier {
 public:
  const std::vector<TrafficEntry>* traffic = nullptr;
  std::map<uint64_t, hcd::QuerySnapshot> snapshots;
  uint64_t verified = 0;
  uint64_t unverified = 0;
  uint64_t mismatches = 0;
  std::vector<std::string> errors;

  void Check(uint32_t index, const Answer& got) {
    const auto it = snapshots.find(got.epoch);
    if (it == snapshots.end()) {
      ++unverified;
      return;
    }
    const TrafficEntry& e = (*traffic)[index];
    // Answers repeat: keys across the stream, and every entry in the closed
    // loop. Compute each (epoch, metric, k) key and each (epoch, entry)
    // vertex query once.
    std::unordered_map<uint64_t, Answer>& memo =
        e.num_vertices == 0 ? key_memo_ : entry_memo_;
    const uint64_t key =
        e.num_vertices == 0
            ? (uint64_t{got.epoch} << 40) | (uint64_t{e.metric} << 32) | e.k
            : (uint64_t{got.epoch} << 32) | index;
    auto [slot, fresh] = memo.try_emplace(key);
    if (fresh) {
      ToRequest(e, &request_);
      slot->second = ExpectedAnswer(it->second, request_, &ws_);
    }
    const Answer& want = slot->second;
    ++verified;
    if (!(want == got)) {
      ++mismatches;
      if (errors.size() < 5) {
        errors.push_back("request " + std::to_string(index) + " on epoch " +
                         std::to_string(got.epoch) +
                         ": served answer differs from ExecuteQuery");
      }
    }
  }

 private:
  std::unordered_map<uint64_t, Answer> key_memo_;
  std::unordered_map<uint64_t, Answer> entry_memo_;
  QueryRequest request_;
  hcd::SearchWorkspace ws_;
};

// --- Wire client -------------------------------------------------------------

/// The benchmark's load generator: one thread driving kConnections
/// non-blocking loopback connections with the server's framed protocol.
/// Requests are sent when due, whether or not earlier answers arrived;
/// answers are read whenever the sockets have data and matched to their
/// requests in send order (the server answers each connection in order).
class LoadClient {
 public:
  struct InFlight {
    uint32_t index = 0;   ///< traffic entry
    int64_t due_ns = 0;   ///< when it was due to be sent
  };
  using Handler = std::function<void(const InFlight&, const QueryResponse&,
                                     int64_t now_ns)>;

  explicit LoadClient(const std::vector<TrafficEntry>& traffic)
      : traffic_(traffic) {}
  ~LoadClient() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  Status Connect(uint16_t port) {
    for (Conn& c : conns_) {
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) return Status::IoError("socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        return Status::IoError(std::string("connect: ") + std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
    return Status::Ok();
  }

  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  size_t Outstanding(size_t c) const { return conns_[c].inflight.size(); }
  size_t Outstanding() const {
    size_t total = 0;
    for (const Conn& c : conns_) total += c.inflight.size();
    return total;
  }

  /// Sends traffic entry `index` on connection `c`. A full socket buffer
  /// is waited out while reading answers, so client and server can never
  /// block each other.
  Status Send(size_t c, uint32_t index, int64_t due_ns) {
    ToRequest(traffic_[index], &request_);
    frame_.clear();
    hcd::server::AppendFrame(&frame_,
                             hcd::server::EncodeQueryRequest(request_));
    Conn& conn = conns_[c];
    conn.inflight.push_back({index, due_ns});
    size_t off = 0;
    while (off < frame_.size()) {
      const ssize_t w = ::send(conn.fd, frame_.data() + off,
                               frame_.size() - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<size_t>(w);
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        Status s = Poll(1'000'000);
        if (!s.ok()) return s;
      } else {
        return Status::IoError(std::string("send: ") + std::strerror(errno));
      }
    }
    return Status::Ok();
  }

  /// Waits up to `timeout_ns` for answers and hands every complete one to
  /// the handler.
  Status Poll(int64_t timeout_ns) {
    pollfd fds[kConnections];
    for (size_t i = 0; i < kConnections; ++i) {
      fds[i] = {conns_[i].fd, POLLIN, 0};
    }
    const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                      static_cast<long>(timeout_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds, kConnections, &ts, nullptr);
    if (ready < 0) {
      return errno == EINTR ? Status::Ok()
                            : Status::IoError(std::string("poll: ") +
                                              std::strerror(errno));
    }
    if (ready == 0) return Status::Ok();
    const int64_t now = NowNs();
    for (size_t i = 0; i < kConnections; ++i) {
      if (fds[i].revents != 0) {
        Status s = ReadAvailable(i, now);
        if (!s.ok()) return s;
      }
    }
    return Status::Ok();
  }

  /// Reads until every request in flight is answered or `deadline_ns`.
  Status Drain(int64_t deadline_ns) {
    while (Outstanding() > 0 && NowNs() < deadline_ns) {
      Status s = Poll(1'000'000);
      if (!s.ok()) return s;
    }
    return Outstanding() == 0
               ? Status::Ok()
               : Status::Internal(std::to_string(Outstanding()) +
                                  " requests never answered");
  }

 private:
  struct Conn {
    int fd = -1;
    std::string in;
    std::deque<InFlight> inflight;
  };

  Status ReadAvailable(size_t c, int64_t now) {
    Conn& conn = conns_[c];
    char buf[1 << 16];
    for (;;) {
      const ssize_t r = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (r > 0) {
        conn.in.append(buf, static_cast<size_t>(r));
        // The server's sockets keep Nagle on. With delayed ACKs, a request
        // sent before the previous answer arrived does not acknowledge it,
        // so the server holds its next answer until a later request does:
        // latency then locks to the inter-arrival gap. Acknowledging every
        // answer at once keeps the measurement on the server's own work.
        const int one = 1;
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
        continue;
      }
      if (r == 0) return Status::IoError("server closed a connection");
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    size_t pos = 0;
    while (conn.in.size() - pos >= 4) {
      const auto* p = reinterpret_cast<const unsigned char*>(conn.in.data()) + pos;
      const uint32_t len = uint32_t{p[0]} | (uint32_t{p[1]} << 8) |
                           (uint32_t{p[2]} << 16) | (uint32_t{p[3]} << 24);
      if (len > hcd::server::kMaxPayloadBytes) {
        return Status::Corruption("oversized response frame");
      }
      if (conn.in.size() - pos - 4 < len) break;
      const std::string_view payload(conn.in.data() + pos + 4, len);
      pos += 4 + len;
      if (conn.inflight.empty()) {
        return Status::Corruption("answer without a request");
      }
      const InFlight request = conn.inflight.front();
      conn.inflight.pop_front();
      if (!hcd::server::DecodeQueryResponse(payload, &response_)) {
        return Status::Corruption("undecodable response frame");
      }
      handler_(request, response_, now);
    }
    conn.in.erase(0, pos);
    return Status::Ok();
  }

  const std::vector<TrafficEntry>& traffic_;
  Conn conns_[kConnections];
  Handler handler_;
  QueryRequest request_;
  QueryResponse response_;
  std::string frame_;
};

// --- Report ------------------------------------------------------------------

/// The JSON report run.py reads: named values plus correctness counts.
struct Report {
  std::vector<std::pair<std::string, double>> values;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string server_stats = "null";  ///< RenderStatsJson, traced run
  std::string live = "null";          ///< per-batch summary, serve-live

  void Set(const std::string& name, double value) {
    values.emplace_back(name, hcd::FiniteOrZero(value));
  }
  void Error(std::string message) {
    std::fprintf(stderr, "bench_pipeline: %s\n", message.c_str());
    errors.push_back(std::move(message));
  }
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", hcd::FiniteOrZero(v));
  return buf;
}

void PrintReport(const Workload& w, uint64_t seed, bool traced,
                 const Report& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"mode\":\"%s\","
              "\"host\":{\"nproc\":%d,\"compiler\":\"%s\","
              "\"build_type\":\"%s\"},\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,\"errors\":[",
              w.name, static_cast<unsigned long long>(seed),
              traced ? "trace" : "plain", hcd::HardwareThreads(),
              hcd::JsonEscape(HCD_BENCH_COMPILER).c_str(),
              hcd::JsonEscape(HCD_BENCH_BUILD_TYPE).c_str(),
              r.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? "," : "",
                hcd::JsonEscape(r.errors[i]).c_str());
  }
  std::printf("],\"values\":{");
  for (size_t i = 0; i < r.values.size(); ++i) {
    std::printf("%s\"%s\":%s", i > 0 ? "," : "", r.values[i].first.c_str(),
                Num(r.values[i].second).c_str());
  }
  std::printf("},\"server_stats\":%s,\"live\":%s}\n",
              r.server_stats.c_str(), r.live.c_str());
  std::fflush(stdout);
}

// --- Build layers --------------------------------------------------------------

struct Paths {
  std::string graph;
  std::string traffic;
  std::string snapshot;
};

/// Installs a tracer for its own lifetime, so an early return can never
/// destroy the tracer while it is still installed.
class ScopedInstall {
 public:
  explicit ScopedInstall(hcd::Tracer* tracer) : tracer_(tracer) {
    tracer_->Install();
  }
  ~ScopedInstall() { tracer_->Uninstall(); }
  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;

 private:
  hcd::Tracer* tracer_;
};

/// Times `fn` inside a `name` span (a no-op span when no tracer is
/// installed).
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  hcd::ScopedSpan span(name);
  hcd::Timer timer;
  fn();
  return timer.Seconds();
}

struct RepTimes {
  double hcd = 0.0;
  double ready = 0.0;
};

/// One user-visible build: graph file -> frozen index (`hcd`) -> serve-ready
/// snapshot (`ready`), through HcdEngine with only EngineOptions::threads
/// set. Outside the timed region the result is compared with `reference`
/// (when given) and, for a serve-ready rep, its flat index handed out.
Status PipelineRep(const std::string& graph_path, int threads, bool to_ready,
                   const FlatHcdIndex* reference, RepTimes* times,
                   std::shared_ptr<const FlatHcdIndex>* flat_out) {
  hcd::Timer timer;
  std::unique_ptr<hcd::HcdEngine> engine;
  hcd::EngineOptions options;
  options.threads = threads;
  Status s = hcd::HcdEngine::Load(graph_path, options, &engine);
  if (!s.ok()) return s;
  const FlatHcdIndex& flat = engine->Flat();
  times->hcd = timer.Seconds();
  std::optional<hcd::QuerySnapshot> snapshot;
  if (to_ready) {
    snapshot.emplace(engine->Snapshot());
    times->ready = timer.Seconds();
  }
  if (reference != nullptr && !hcd::HcdEquals(*reference, flat)) {
    return Status::Internal("a build rep at " + std::to_string(threads) +
                            " threads froze a different hierarchy");
  }
  if (flat_out != nullptr && snapshot) {
    *flat_out = snapshot->state()->shared_flat();
  }
  return Status::Ok();
}

/// Per-layer seconds of one layer-by-layer rep (traced run).
struct LayerTimes {
  double ingest = 0, pkc = 0, phcd = 0, freeze = 0;
  double preprocess = 0, primary_a = 0, rank = 0, primary_b = 0;
  double total = 0;
};

/// What the last layer-by-layer rep built, for the oracles.
struct LayerOutputs {
  Graph graph;
  hcd::CoreDecomposition cd;
  FlatHcdIndex flat;
  std::vector<hcd::PrimaryValues> type_a;
  std::vector<hcd::PrimaryValues> type_b;
  uint64_t bytes = 0;
};

/// Calls each layer of the build one by one, the same calls HcdEngine makes
/// from Load to Snapshot, each inside its own `bench.<layer>` span. With
/// `search` false it stops after Freeze.
Status LayerRep(const std::string& graph_path, int threads, bool search,
                LayerTimes* t, LayerOutputs* out) {
  hcd::ThreadCountGuard guard(threads);
  hcd::Timer total;
  Status s;
  hcd::IngestOptions io;
  io.io_threads = threads;
  hcd::IngestStats stats;
  out->graph = Graph();
  t->ingest = Timed("bench.graph.ingest", [&] {
    s = hcd::IngestBinary(graph_path, io, &out->graph, &stats);
  });
  if (!s.ok()) return s;
  out->bytes = stats.bytes;
  const Graph& g = out->graph;
  t->pkc = Timed("bench.core.pkc", [&] { out->cd = hcd::PkcCoreDecomposition(g); });
  hcd::HcdForest forest;
  t->phcd = Timed("bench.hcd.phcd", [&] { forest = hcd::PhcdBuild(g, out->cd); });
  t->freeze = Timed("bench.hcd.freeze", [&] { out->flat = hcd::Freeze(forest); });
  if (search) {
    hcd::CorenessNeighborCounts pre;
    t->preprocess = Timed("bench.search.preprocess", [&] {
      pre = hcd::PreprocessCorenessCounts(g, out->cd);
    });
    t->primary_a = Timed("bench.search.primary_a", [&] {
      out->type_a = hcd::PbksTypeAPrimary(g, out->cd, out->flat, pre);
    });
    hcd::VertexRank vr;
    t->rank = Timed("bench.search.rank",
                    [&] { vr = hcd::ComputeVertexRank(out->cd); });
    t->primary_b = Timed("bench.search.primary_b", [&] {
      out->type_b = hcd::PbksTypeBPrimary(g, out->cd, out->flat, vr, pre);
    });
  }
  t->total = total.Seconds();
  return Status::Ok();
}

bool SamePrimary(const std::vector<hcd::PrimaryValues>& a,
                 const std::vector<hcd::PrimaryValues>& b, bool type_b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].n_s != b[i].n_s || a[i].edges2 != b[i].edges2 ||
        a[i].boundary != b[i].boundary) {
      return false;
    }
    if (type_b && (a[i].triangles != b[i].triangles ||
                   a[i].triplets != b[i].triplets)) {
      return false;
    }
  }
  return true;
}

/// The bit-identity oracles against the serial reference algorithms:
/// PKC = BZ, PHCD = LCPS, PBKS type A/B primaries = BKS type A/B.
void RunBuildOracles(const LayerOutputs& out, Report* report) {
  hcd::ScopedSpan span("bench.oracle.build");
  const Graph& g = out.graph;
  const hcd::CoreDecomposition bz = hcd::BzCoreDecomposition(g);
  if (bz.coreness != out.cd.coreness) {
    report->Error("oracle: PkcCoreDecomposition differs from BZ");
    return;
  }
  if (!hcd::HcdEquals(hcd::LcpsBuild(g, bz), out.flat)) {
    report->Error("oracle: PhcdBuild + Freeze differs from LcpsBuild");
  }
  const hcd::BksIndex bks = hcd::BuildBksIndex(g, bz);
  const hcd::VertexRank vr = hcd::ComputeVertexRank(bz);
  if (!SamePrimary(hcd::BksTypeAPrimary(g, bz, out.flat, bks, vr), out.type_a,
                   false)) {
    report->Error("oracle: PbksTypeAPrimary differs from BksTypeAPrimary");
  }
  if (!SamePrimary(hcd::BksTypeBPrimary(g, bz, out.flat, bks, vr), out.type_b,
                   true)) {
    report->Error("oracle: PbksTypeBPrimary differs from BksTypeBPrimary");
  }
}

// --- Serving -----------------------------------------------------------------

/// A serving process's state: the live engine over the mapped snapshot and
/// the loopback server in front of it.
class ServeStack {
 public:
  ServeStack() = default;
  ~ServeStack() { StopServer(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// QueryServer::Stop wakes idle workers without holding their queue
  /// mutex, so a worker caught between its wait predicate and the wait
  /// itself misses the wake-up and Stop never returns. Stopping only after
  /// the workers have sat idle for a moment keeps out of that window.
  void StopServer() {
    if (server == nullptr) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server.reset();
  }

  std::unique_ptr<hcd::LiveEngine> live;
  std::unique_ptr<hcd::server::QueryServer> server;
};

/// Files on disk to a server accepting connections: IngestBinary,
/// MapFlatIndex, LiveEngine{initial_flat}, QueryServer::Start.
Status SetUp(const Paths& paths, int threads, ServeStack* stack,
             double* seconds) {
  stack->StopServer();
  stack->live.reset();
  hcd::Timer timer;
  Graph graph;
  hcd::IngestOptions io;
  io.io_threads = threads;
  Status s;
  Timed("bench.graph.ingest",
        [&] { s = hcd::IngestBinary(paths.graph, io, &graph); });
  if (!s.ok()) return s;
  FlatHcdIndex flat;
  Timed("bench.hcd.map", [&] { s = hcd::MapFlatIndex(paths.snapshot, &flat); });
  if (!s.ok()) return s;
  hcd::LiveEngineOptions options;
  options.engine.threads = threads;
  options.initial_flat = std::make_shared<const FlatHcdIndex>(std::move(flat));
  Timed("bench.engine.live_init", [&] {
    stack->live = std::make_unique<hcd::LiveEngine>(std::move(graph), options);
  });
  hcd::server::ServerOptions server_options;
  server_options.workers = kServerWorkers;
  Timed("bench.server.start", [&] {
    stack->server = std::make_unique<hcd::server::QueryServer>(
        &stack->live->manager(), server_options);
    s = stack->server->Start();
  });
  *seconds = timer.Seconds();
  return s;
}

/// The serve-live writer: one seeded batch of kBatchEdges edge toggles due
/// in the middle of every `period_ns` from `start_ns` (open loop: a late
/// batch does not shift the next one's due time), applied at OpenMP width
/// 1. Reports and publish times accumulate over the rounds of a run;
/// `retained` holds the current round's generations for verification.
struct Writer {
  std::vector<hcd::BatchApplyReport> reports;
  std::vector<double> publish_ms;  ///< due time -> epoch visible
  std::map<uint64_t, hcd::QuerySnapshot> retained;
  Status status;

  void Run(hcd::LiveEngine* live, int64_t start_ns, int64_t period_ns,
           int64_t end_ns, uint64_t seed, bool retain,
           const std::atomic<bool>& stop) {
    if (!status.ok()) return;
    hcd::ThreadCountGuard width(1);
    hcd::Rng rng(seed ^ 0x5752495445520000ULL);
    const hcd::VertexId n = live->dynamic().NumVertices();
    for (int64_t b = 0;; ++b) {
      const int64_t due = start_ns + b * period_ns + period_ns / 2;
      if (due > end_ns) return;
      while (NowNs() < due) {
        if (stop.load(std::memory_order_relaxed)) return;
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<int64_t>(10'000, (due - NowNs()) / 1000 + 1)));
      }
      std::vector<hcd::EdgeUpdate> batch;
      std::unordered_set<uint64_t> used;
      while (batch.size() < static_cast<size_t>(kBatchEdges)) {
        const auto u = static_cast<hcd::VertexId>(rng.Uniform(n));
        const auto v = static_cast<hcd::VertexId>(rng.Uniform(n));
        if (u == v) continue;
        const uint64_t key = (uint64_t{std::min(u, v)} << 32) | std::max(u, v);
        if (!used.insert(key).second) continue;
        batch.push_back({u, v,
                         live->dynamic().HasEdge(u, v) ? hcd::EdgeOp::kRemove
                                                       : hcd::EdgeOp::kInsert});
      }
      hcd::BatchApplyReport report;
      {
        hcd::ScopedSpan span("bench.engine.apply_batch");
        status = live->ApplyBatch(batch, &report);
      }
      if (!status.ok()) return;
      publish_ms.push_back(static_cast<double>(NowNs() - due) * 1e-6);
      reports.push_back(report);
      if (retain) retained.emplace(report.epoch, live->Snapshot());
    }
  }

  std::string SummaryJson() const {
    std::vector<double> apply, refreeze, index, dirty;
    double full = 0;
    for (const hcd::BatchApplyReport& r : reports) {
      apply.push_back(r.apply_seconds * 1e3);
      refreeze.push_back(r.refreeze_seconds * 1e3);
      index.push_back(
          (r.total_seconds - r.apply_seconds - r.refreeze_seconds) * 1e3);
      dirty.push_back(r.dirty_fraction);
      full += r.full_rebuild ? 1 : 0;
    }
    const double batches = static_cast<double>(reports.size());
    return "{\"batches\":" + Num(batches) + ",\"publish_ms\":" +
           Num(Median(publish_ms)) + ",\"publish_max_ms\":" +
           Num(Quantile(publish_ms, 1.0)) + ",\"apply_ms\":" +
           Num(Median(apply)) + ",\"refreeze_ms\":" + Num(Median(refreeze)) +
           ",\"index_ms\":" + Num(Median(index)) +
           ",\"full_rebuild_ratio\":" + Num(batches > 0 ? full / batches : 0) +
           ",\"dirty_fraction\":" + Num(Median(dirty)) + "}";
  }
};

/// What one serving phase measured.
struct ServeResult {
  uint32_t begin = 0;              ///< first traffic entry of the open loop
  std::vector<double> latency_us;  ///< open loop, by entry - begin, from
                                   ///< its due time (-1: no answer)
  std::vector<double> late_us;     ///< generator lateness per send
  std::vector<Answer> answers;     ///< open loop, by entry - begin
  std::vector<std::pair<uint32_t, Answer>> later;  ///< closed-loop answers
                                                   ///< on other epochs
  uint64_t closed_answers = 0;     ///< answered within closed_seconds
  double closed_seconds = 0;
  uint64_t sent = 0;
  uint64_t not_ok = 0;
  uint64_t closed_mismatches = 0;
  std::string stats_json;
  hcd::server::ServerStats stats;
};

/// Open loop over traffic entries [begin, end): entry begin + i is due at
/// start + i / rate, sent round-robin over the connections whatever the
/// state of earlier requests; each answer's latency runs from its due
/// time. The stats JSON is read right after it. Then, for
/// `closed_seconds`, a closed loop keeps kClosedWindow requests in flight
/// per connection, cycling over the same entries, and counts the answers.
Status Serve(const std::vector<TrafficEntry>& traffic, uint32_t begin,
             uint32_t end, double rate, double closed_seconds,
             hcd::server::QueryServer* server, ServeResult* out) {
  LoadClient client(traffic);
  Status s = client.Connect(server->port());
  if (!s.ok()) return s;
  const size_t open_count = end - begin;
  out->begin = begin;
  out->answers.assign(open_count, Answer{});
  out->latency_us.assign(open_count, -1.0);
  out->late_us.reserve(open_count);
  client.SetHandler([&](const LoadClient::InFlight& f,
                        const QueryResponse& r, int64_t now) {
    out->latency_us[f.index - begin] =
        static_cast<double>(now - f.due_ns) * 1e-3;
    if (r.status != hcd::server::ResponseStatus::kOk) {
      ++out->not_ok;
      return;
    }
    out->answers[f.index - begin] = AnswerOf(r);
  });
  {
    hcd::ScopedSpan span("bench.client.open_loop");
    const double gap_ns = 1e9 / rate;
    const int64_t start = NowNs() + 1'000'000;
    size_t next = 0;
    while (next < open_count) {
      int64_t now = NowNs();
      while (next < open_count) {
        const int64_t due = start + static_cast<int64_t>(next * gap_ns);
        if (due > now) break;
        out->late_us.push_back(static_cast<double>(now - due) * 1e-3);
        s = client.Send(next % kConnections,
                        static_cast<uint32_t>(begin + next), due);
        if (!s.ok()) return s;
        ++next;
        now = NowNs();
      }
      if (next == open_count) break;
      const int64_t wait =
          start + static_cast<int64_t>(next * gap_ns) - NowNs();
      // Sleep in the kernel only when the next send is far enough away
      // for the wake-up to be on time; otherwise spin on a zero poll.
      s = client.Poll(wait > 200'000 ? wait - 100'000 : 0);
      if (!s.ok()) return s;
    }
    s = client.Drain(NowNs() + kDrainNs);
    if (!s.ok()) return s;
  }
  out->sent = open_count;
  out->stats_json = server->RenderStatsJson();
  out->stats = server->stats();
  if (closed_seconds <= 0) return Status::Ok();

  hcd::ScopedSpan span("bench.client.closed_loop");
  size_t cursor = 0;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(closed_seconds * 1e9);
  client.SetHandler([&](const LoadClient::InFlight& f,
                        const QueryResponse& r, int64_t now) {
    if (now < stop) ++out->closed_answers;
    if (r.status != hcd::server::ResponseStatus::kOk) {
      ++out->not_ok;
      return;
    }
    const Answer got = AnswerOf(r);
    const Answer& open = out->answers[f.index - begin];
    if (open.state != 0 && open.epoch == got.epoch) {
      if (!(open == got)) ++out->closed_mismatches;
    } else {
      out->later.emplace_back(f.index, got);
    }
  });
  auto top_up = [&]() -> Status {
    for (size_t c = 0; c < kConnections; ++c) {
      while (client.Outstanding(c) < kClosedWindow) {
        Status st = client.Send(
            c, static_cast<uint32_t>(begin + cursor % open_count), NowNs());
        if (!st.ok()) return st;
        ++cursor;
      }
    }
    return Status::Ok();
  };
  s = top_up();
  while (s.ok() && NowNs() < stop) {
    s = client.Poll(1'000'000);
    if (s.ok()) s = top_up();
  }
  if (!s.ok()) return s;
  out->closed_seconds = static_cast<double>(stop - start) * 1e-9;
  out->sent += cursor;
  return client.Drain(NowNs() + kDrainNs);
}

/// Verifies every answer the client received against the snapshots held
/// in `verifier`.
void VerifyServed(const ServeResult& served, Verifier* verifier,
                  Report* report) {
  for (size_t i = 0; i < served.answers.size(); ++i) {
    if (served.answers[i].state != 0) {
      verifier->Check(static_cast<uint32_t>(served.begin + i),
                      served.answers[i]);
    }
  }
  for (const auto& [index, answer] : served.later) {
    verifier->Check(index, answer);
  }
  if (served.closed_mismatches > 0) {
    report->Error(std::to_string(served.closed_mismatches) +
                  " closed-loop answers differ from the open-loop answer on "
                  "the same epoch");
  }
  for (const std::string& e : verifier->errors) report->Error(e);
  if (verifier->mismatches > 0) {
    report->Error(std::to_string(verifier->mismatches) +
                  " served answers differ from ExecuteQuery");
  }
  std::fprintf(stderr,
               "  verified %llu served answers (%llu on epochs not held)\n",
               static_cast<unsigned long long>(verifier->verified),
               static_cast<unsigned long long>(verifier->unverified));
}

/// In-process ExecuteQuery p50 per regime on `snapshot`, in microseconds:
/// global keys for every metric, and the workload's own level and
/// vertex-set requests.
void InProcessQueryTimes(const hcd::QuerySnapshot& snapshot,
                         const std::vector<TrafficEntry>& traffic,
                         Report* report) {
  hcd::SearchWorkspace ws;
  QueryRequest request;
  std::vector<double> us[kNumRegimes];
  auto time_one = [&](const TrafficEntry& e) {
    ToRequest(e, &request);
    hcd::Timer timer;
    hcd::server::ExecuteQuery(snapshot, request, &ws);
    us[RegimeOf(e)].push_back(timer.Seconds() * 1e6);
  };
  for (size_t i = 0; i < kInProcessQueries; ++i) {
    TrafficEntry e;
    e.metric = static_cast<uint8_t>(i % kNumMetrics);
    time_one(e);
  }
  for (const TrafficEntry& e : traffic) {
    const Regime r = RegimeOf(e);
    if (r != kGlobal && us[r].size() < kInProcessQueries) time_one(e);
  }
  report->Set("search.global_us", Median(us[kGlobal]));
  report->Set("search.level_us", Median(us[kLevel]));
  report->Set("search.vertex_set_us", Median(us[kVertexSet]));
}

// --- The two runs --------------------------------------------------------------

struct RunArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;
  std::string trace_path;
};

Paths PathsIn(const std::string& dir) {
  return {dir + "/graph.bin", dir + "/traffic.bin", dir + "/snapshot.hcd"};
}

size_t OpenCount(const Workload& w, double seconds) {
  return static_cast<size_t>(std::ceil(w.rate * w.open_share * seconds)) + 1;
}

double PeakRssMiB() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

/// Runs the serve-live writer on its own thread over one serving phase
/// (no-op for read-only workloads) and joins it on destruction.
class WriterThread {
 public:
  WriterThread(const Workload& w, Writer* writer, hcd::LiveEngine* live,
               int64_t start_ns, int64_t end_ns, uint64_t seed, bool retain) {
    if (w.write_period <= 0) return;
    const double period = Small() ? w.write_period / 40 : w.write_period;
    thread_ = std::thread([=, this] {
      writer->Run(live, start_ns, static_cast<int64_t>(period * 1e9), end_ns,
                  seed, retain, stop_);
    });
  }
  ~WriterThread() { Join(); }
  WriterThread(const WriterThread&) = delete;
  WriterThread& operator=(const WriterThread&) = delete;

  /// Stops scheduling further batches and waits for the one in progress.
  void Join() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};

void ReportWriter(const Writer& writer, Report* report) {
  report->attempted += writer.reports.size();
  if (!writer.status.ok()) {
    ++report->failed;
    report->Error("live batch failed: " + writer.status.ToString());
  }
  report->live = writer.SummaryJson();
}

void ReportServe(const ServeResult& served, Report* report) {
  report->attempted += served.sent;
  report->failed += served.not_ok;
  if (served.stats.shed > 0) {
    report->Error(std::to_string(served.stats.shed) + " connections shed");
  }
}

/// The untraced run: every end-to-end metric. The run is kRounds rounds of
/// the same phases, each with its share of --seconds:
///   - build reps: at kBuildThreads to serve-ready, then pairs to the
///     frozen index at kBuildThreads and at one thread;
///   - server set-ups (at least kMinSetups), the last of which serves;
///   - an open loop over the round's slice of the traffic, with the
///     serve-live writer publishing next to it, then a closed loop;
///   - verification of every answer of the round, on the snapshot of the
///     epoch that gave it (untimed).
int RunPlain(const RunArgs& args, const std::vector<TrafficEntry>& traffic) {
  const Workload& w = *args.workload;
  const Paths paths = PathsIn(args.dir);
  const double round_seconds = args.seconds / kRounds;
  Report report;

  // A discarded warm-up rep, whose index every later rep must equal and
  // whose snapshot the set-ups map.
  std::shared_ptr<const FlatHcdIndex> reference;
  RepTimes rep;
  Status s = PipelineRep(paths.graph, kBuildThreads, true, nullptr, &rep,
                         &reference);
  if (!s.ok()) return Fail(s);
  ++report.attempted;
  s = hcd::SaveFlatIndex(*reference, paths.snapshot);
  if (!s.ok()) return Fail(s);

  std::vector<double> hcd_s, ready_s, speedup, setup_s, latency_us, late_us;
  uint64_t closed_answers = 0;
  double closed_seconds = 0;
  double peak_rss_mb = 0;
  Writer writer;
  const uint32_t open_count = static_cast<uint32_t>(OpenCount(w, args.seconds));
  for (int round = 0; round < kRounds; ++round) {
    // Half the build share goes to serve-ready reps, half to pairs of
    // frozen-index reps at kBuildThreads and at one thread, which are far
    // cheaper where the search index dominates (build-skewed).
    hcd::Timer timer;
    const double build_seconds = w.build_share * round_seconds;
    for (int reps = 0; reps < kMaxRepsPerRound &&
                       (reps == 0 || timer.Seconds() < build_seconds / 2);
         ++reps) {
      s = PipelineRep(paths.graph, kBuildThreads, true, reference.get(), &rep,
                      nullptr);
      if (!s.ok()) return Fail(s);
      hcd_s.push_back(rep.hcd);
      ready_s.push_back(rep.ready);
      ++report.attempted;
    }
    for (int reps = 0; reps < kMaxRepsPerRound &&
                       (reps == 0 || timer.Seconds() < build_seconds);
         ++reps) {
      s = PipelineRep(paths.graph, kBuildThreads, false, reference.get(),
                      &rep, nullptr);
      if (!s.ok()) return Fail(s);
      const double parallel = rep.hcd;
      hcd_s.push_back(rep.hcd);
      s = PipelineRep(paths.graph, 1, false, reference.get(), &rep, nullptr);
      if (!s.ok()) return Fail(s);
      // Adjacent reps see the same host, so their ratio cancels its drift.
      speedup.push_back(rep.hcd / parallel);
      report.attempted += 2;
    }

    ServeStack stack;
    timer.Reset();
    for (int i = 0;
         i < kMinSetups || timer.Seconds() < w.setup_share * round_seconds;
         ++i) {
      double seconds = 0;
      s = SetUp(paths, kBuildThreads, &stack, &seconds);
      if (!s.ok()) return Fail(s);
      setup_s.push_back(seconds);
      ++report.attempted;
    }
    // Memory is read once the first server is up (build reps and set-ups
    // included). Later, allocator timing around live generations makes
    // the peak differ between identical runs.
    if (round == 0) peak_rss_mb = PeakRssMiB();

    Verifier verifier;
    verifier.traffic = &traffic;
    const hcd::QuerySnapshot initial = stack.live->Snapshot();
    verifier.snapshots.emplace(initial.epoch(), initial);
    ServeResult served;
    {
      const int64_t serve_start = NowNs();
      WriterThread writer_thread(
          w, &writer, stack.live.get(), serve_start,
          serve_start + static_cast<int64_t>((w.open_share + w.closed_share) *
                                             round_seconds * 1e9),
          args.seed * kRounds + round, /*retain=*/true);
      s = Serve(traffic, open_count * round / kRounds,
                open_count * (round + 1) / kRounds, w.rate,
                w.closed_share * round_seconds, stack.server.get(), &served);
    }
    if (!s.ok()) return Fail(s);
    if (!writer.status.ok()) break;
    stack.StopServer();
    ReportServe(served, &report);
    verifier.snapshots.merge(writer.retained);
    writer.retained.clear();
    const hcd::QuerySnapshot final_snapshot = stack.live->Snapshot();
    verifier.snapshots.emplace(final_snapshot.epoch(), final_snapshot);
    VerifyServed(served, &verifier, &report);
    if (verifier.unverified > 0) {
      report.Error("answers from epochs that were not retained");
    }
    for (double us : served.latency_us) {
      if (us >= 0) latency_us.push_back(us);
    }
    late_us.insert(late_us.end(), served.late_us.begin(), served.late_us.end());
    closed_answers += served.closed_answers;
    closed_seconds += served.closed_seconds;
  }
  if (w.write_period > 0) ReportWriter(writer, &report);
  std::fprintf(stderr, "  %zu serve-ready reps (median %.4fs), %zu rep "
               "pairs (median hcd %.4fs), %zu set-ups (median %.4fs)\n",
               ready_s.size(), Median(ready_s), speedup.size(), Median(hcd_s),
               setup_s.size(), Median(setup_s));

  report.Set("setup_s", Median(setup_s));
  report.Set("hcd_s", Median(hcd_s));
  report.Set("hcd_speedup", Median(speedup));
  report.Set("ready_s", Median(ready_s));
  report.Set("p50_us", Median(latency_us));
  report.Set("peak_qps", static_cast<double>(closed_answers) / closed_seconds);
  report.Set("peak_rss_mb", peak_rss_mb);
  report.Set("client.late_p99_us", Quantile(std::move(late_us), 0.99));
  PrintReport(w, args.seed, false, report);
  return 0;
}

/// The traced run: every per-layer metric, the correctness oracles and the
/// Chrome trace.
int RunTraced(const RunArgs& args, const std::vector<TrafficEntry>& traffic) {
  const Workload& w = *args.workload;
  const Paths paths = PathsIn(args.dir);
  Report report;

  // Untraced serve-ready reps through HcdEngine, the base of
  // trace.coverage and trace.overhead_pct, interleaved with traced
  // layer-by-layer reps at kBuildThreads and at one thread (construction
  // layers only), so host interference falls on both sides alike.
  RepTimes rep;
  std::shared_ptr<const FlatHcdIndex> reference;
  Status s = PipelineRep(paths.graph, kBuildThreads, true, nullptr, &rep,
                         &reference);
  if (!s.ok()) return Fail(s);
  hcd::Tracer tracer(kTracedSpansPerThread);
  std::vector<double> ready_s;
  std::vector<LayerTimes> layers(kTracedReps), layers_1t(kTracedReps);
  LayerOutputs out, out_1t;
  for (int i = 0; i < kTracedReps; ++i) {
    s = PipelineRep(paths.graph, kBuildThreads, true, reference.get(), &rep,
                    nullptr);
    if (!s.ok()) return Fail(s);
    ready_s.push_back(rep.ready);
    ScopedInstall installed(&tracer);
    {
      hcd::ScopedSpan span("bench.layers");
      s = LayerRep(paths.graph, kBuildThreads, true, &layers[i], &out);
    }
    if (s.ok()) {
      hcd::ScopedSpan span("bench.layers_1t");
      s = LayerRep(paths.graph, 1, false, &layers_1t[i], &out_1t);
    }
    if (!s.ok()) return Fail(s);
  }
  out_1t = LayerOutputs();
  ScopedInstall installed(&tracer);
  report.attempted += 1 + 3 * kTracedReps;
  if (!hcd::HcdEquals(*reference, out.flat)) {
    report.Error("layer-by-layer build differs from the HcdEngine build");
  }
  reference.reset();
  RunBuildOracles(out, &report);

  // Snapshot save and mmap load, and their round trip.
  std::vector<double> save_s, map_s;
  FlatHcdIndex mapped;
  for (int i = 0; i < kTracedReps; ++i) {
    save_s.push_back(Timed("bench.hcd.save", [&] {
      s = hcd::SaveFlatIndex(out.flat, paths.snapshot);
    }));
    if (!s.ok()) return Fail(s);
    mapped = FlatHcdIndex();
    map_s.push_back(Timed("bench.hcd.map", [&] {
      s = hcd::MapFlatIndex(paths.snapshot, &mapped);
    }));
    if (!s.ok()) return Fail(s);
  }
  if (!hcd::HcdEquals(out.flat, mapped)) {
    report.Error("oracle: SaveFlatIndex -> MapFlatIndex round trip differs");
  }

  auto best_of = [](const std::vector<LayerTimes>& reps,
                      double LayerTimes::*field) {
    std::vector<double> v;
    for (const LayerTimes& t : reps) v.push_back(t.*field);
    return Min(v);
  };
  const double ingest = best_of(layers, &LayerTimes::ingest);
  report.Set("graph.ingest_s", ingest);
  report.Set("graph.ingest_mbps", static_cast<double>(out.bytes) / ingest / 1e6);
  report.Set("core.pkc_s", best_of(layers, &LayerTimes::pkc));
  report.Set("core.pkc_1t_s", best_of(layers_1t, &LayerTimes::pkc));
  report.Set("core.k_max", out.cd.k_max);
  const std::vector<hcd::VertexId> shells = hcd::KShellSizes(out.cd);
  report.Set("core.max_shell", *std::max_element(shells.begin(), shells.end()));
  report.Set("hcd.phcd_s", best_of(layers, &LayerTimes::phcd));
  report.Set("hcd.phcd_1t_s", best_of(layers_1t, &LayerTimes::phcd));
  report.Set("hcd.freeze_s", best_of(layers, &LayerTimes::freeze));
  report.Set("hcd.freeze_1t_s", best_of(layers_1t, &LayerTimes::freeze));
  report.Set("hcd.nodes", out.flat.NumNodes());
  report.Set("hcd.save_s", Min(save_s));
  report.Set("hcd.map_s", Min(map_s));
  {
    std::FILE* f = std::fopen(paths.snapshot.c_str(), "rb");
    long bytes = 0;
    if (f != nullptr && std::fseek(f, 0, SEEK_END) == 0) bytes = std::ftell(f);
    if (f != nullptr) std::fclose(f);
    report.Set("hcd.snapshot_mb", static_cast<double>(bytes) / (1 << 20));
  }
  report.Set("search.preprocess_s", best_of(layers, &LayerTimes::preprocess));
  report.Set("search.rank_s", best_of(layers, &LayerTimes::rank));
  report.Set("search.primary_a_s", best_of(layers, &LayerTimes::primary_a));
  report.Set("search.primary_b_s", best_of(layers, &LayerTimes::primary_b));
  const double layer_sum =
      ingest + best_of(layers, &LayerTimes::pkc) +
      best_of(layers, &LayerTimes::phcd) +
      best_of(layers, &LayerTimes::freeze) +
      best_of(layers, &LayerTimes::preprocess) +
      best_of(layers, &LayerTimes::primary_a) +
      best_of(layers, &LayerTimes::rank) +
      best_of(layers, &LayerTimes::primary_b);
  report.Set("trace.coverage", layer_sum / Min(ready_s));
  report.Set("trace.overhead_pct",
             (best_of(layers, &LayerTimes::total) / Min(ready_s) - 1) *
                 100);
  out = LayerOutputs();

  // At most kTracedServeSeconds of the same traffic, every generation
  // retained so every answer is checked on the epoch that gave it.
  ServeStack stack;
  double setup_seconds = 0;
  s = SetUp(paths, kBuildThreads, &stack, &setup_seconds);
  if (!s.ok()) return Fail(s);
  ++report.attempted;
  Verifier verifier;
  verifier.traffic = &traffic;
  const hcd::QuerySnapshot initial = stack.live->Snapshot();
  verifier.snapshots.emplace(initial.epoch(), initial);
  const double open_seconds =
      std::min(w.open_share * args.seconds, kTracedServeSeconds);
  const size_t open_count =
      std::min(OpenCount(w, args.seconds),
               static_cast<size_t>(std::ceil(w.rate * open_seconds)) + 1);
  const int64_t serve_start = NowNs();
  ServeResult served;
  Writer writer;
  {
    WriterThread writer_thread(
        w, &writer, stack.live.get(), serve_start,
        serve_start + static_cast<int64_t>(open_seconds * 1e9), args.seed,
        /*retain=*/true);
    s = Serve(traffic, 0, static_cast<uint32_t>(open_count), w.rate, 0,
              stack.server.get(), &served);
  }
  if (w.write_period > 0) {
    ReportWriter(writer, &report);
    verifier.snapshots.merge(writer.retained);
  }
  if (!s.ok()) return Fail(s);
  stack.StopServer();
  ReportServe(served, &report);
  const hcd::QuerySnapshot final_snapshot = stack.live->Snapshot();
  verifier.snapshots.emplace(final_snapshot.epoch(), final_snapshot);
  VerifyServed(served, &verifier, &report);
  if (verifier.unverified > 0) {
    report.Error("answers from epochs that were not retained");
  }
  report.server_stats = served.stats_json;
  std::vector<double> answered;
  for (double us : served.latency_us) {
    if (us >= 0) answered.push_back(us);
  }
  report.Set("client.p50_us", Quantile(answered, 0.50));
  report.Set("client.p99_us", Quantile(std::move(answered), 0.99));
  report.Set("client.late_p99_us", Quantile(served.late_us, 0.99));
  report.Set("server.cache_hit_rate",
             static_cast<double>(served.stats.cache_hits) /
                 static_cast<double>(std::max<uint64_t>(served.stats.requests, 1)));
  report.Set("server.shed", static_cast<double>(served.stats.shed));
  InProcessQueryTimes(final_snapshot, traffic, &report);

  s = tracer.WriteChromeJson(args.trace_path);
  if (!s.ok()) return Fail(s);
  PrintReport(w, args.seed, true, report);
  return 0;
}

// --- Entry points ---------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: bench_pipeline gen|run --workload NAME --seed N "
               "--seconds S --dir DIR [--trace FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Host honesty: timings come only from optimized builds, at thread counts
/// the host has. HCD_BENCH_SMALL runs time nothing worth keeping, so they
/// run in any build (sanitizer and Debug builds included).
Status CheckHost() {
  bool optimized = std::string_view(HCD_BENCH_BUILD_TYPE) == "Release";
#ifndef NDEBUG
  optimized = false;
#endif
  if (!optimized && !Small()) {
    return Status::InvalidArgument(
        std::string("build type is '") + HCD_BENCH_BUILD_TYPE +
        "' (or assertions are on); measured runs need "
        "-DCMAKE_BUILD_TYPE=Release");
  }
  if (kBuildThreads > hcd::HardwareThreads()) {
    return Status::InvalidArgument(
        "the builds run at " + std::to_string(kBuildThreads) +
        " threads but the host has " +
        std::to_string(hcd::HardwareThreads()));
  }
  return Status::Ok();
}

int Gen(const RunArgs& args) {
  const Workload& w = *args.workload;
  const bool small = Small();
  const Graph graph =
      w.rmat ? hcd::RMatGraph500(small ? w.small_scale : w.scale,
                                 small ? w.small_edges : w.edges, args.seed)
             : hcd::ErdosRenyiGnm(small ? w.small_n : w.n,
                                  small ? w.small_edges : w.edges, args.seed);
  const Paths paths = PathsIn(args.dir);
  Status s = hcd::SaveBinary(graph, paths.graph);
  if (!s.ok()) return Fail(s);
  // Traffic keys come from the serial reference decomposition, not from
  // the code under test.
  const hcd::CoreDecomposition cd = hcd::BzCoreDecomposition(graph);
  s = WriteTraffic(MakeTraffic(graph, cd, OpenCount(w, args.seconds), args.seed),
                   paths.traffic);
  if (!s.ok()) return Fail(s);
  std::fprintf(stderr, "  generated %s: n=%u m=%llu k_max=%u\n", w.name,
               graph.NumVertices(),
               static_cast<unsigned long long>(graph.NumEdges()), cd.k_max);
  return 0;
}

int Run(const RunArgs& args) {
  Status s = CheckHost();
  if (!s.ok()) {
    std::fprintf(stderr, "bench_pipeline: refusing to run: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  std::vector<TrafficEntry> traffic;
  s = ReadTraffic(PathsIn(args.dir).traffic, &traffic);
  if (!s.ok()) return Fail(s);
  if (traffic.size() < OpenCount(*args.workload, args.seconds)) {
    return Fail(Status::InvalidArgument(
        "traffic.bin was generated for a shorter run"));
  }
  return args.trace_path.empty() ? RunPlain(args, traffic)
                                 : RunTraced(args, traffic);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) return Usage();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace") {
      args.trace_path = value;
    } else {
      return Usage();
    }
  }
  if ((argc % 2) != 0 || args.workload == nullptr || args.dir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }
  if (command == "gen") return Gen(args);
  if (command == "run") return Run(args);
  return Usage();
}
