#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/check.h"
#include "common/telemetry.h"
#include "hcd/query.h"
#include "parallel/omp_utils.h"
#include "search/metrics.h"

namespace hcd::server {
namespace {

// The wire format encodes a metric as its index into kAllMetrics; the
// per-metric histogram table is likewise indexed by the raw enum value.
// Both are only sound while the array enumerates the enum in order.
constexpr bool MetricsAreDense() {
  for (size_t i = 0; i < std::size(kAllMetrics); ++i) {
    if (static_cast<size_t>(kAllMetrics[i]) != i) return false;
  }
  return true;
}
static_assert(MetricsAreDense(),
              "kAllMetrics must enumerate Metric values in declaration order");

constexpr int kPollMillis = 100;  ///< stop-flag check cadence for blocked IO

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t UnixNowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// The request stamp clock: tracer-epoch nanoseconds when tracing (so the
/// stamps double as span ts values), steady-clock nanoseconds otherwise.
/// Either way consecutive stamps subtract into exact phase durations.
uint64_t StampNow(const Tracer* tracer) {
  return tracer != nullptr ? tracer->NowNs() : SteadyNowNs();
}

uint64_t StampDelta(uint64_t from, uint64_t to) {
  return to > from ? to - from : 0;
}

/// Which of ExecuteQuery's regimes answered, for the slow log.
const char* RegimeName(const QueryRequest& request, bool element_served) {
  if (request.hierarchy != HierarchyKind::kCore) {
    return element_served ? "element" : "unserved";
  }
  if (!request.vertices.empty()) return "vertex-set";
  return request.k == 0 ? "global" : "level";
}

/// Positions of the window-sample counters pushed by the stats ticker.
enum WindowCounter {
  kWinRequests = 0,
  kWinCacheHits,
  kWinBadRequests,
  kWinShed,
  kWinConnections,
  kNumWindowCounters,
};

std::string StatsDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", FiniteOrZero(value));
  return buf;
}

enum class ReadResult {
  kFrame,    ///< one complete frame read
  kClosed,   ///< peer closed cleanly at a frame boundary
  kError,    ///< IO error or protocol violation (bad length, torn frame)
  kStopped,  ///< server shutdown observed mid-wait
};

/// Receives exactly `n` bytes, polling so a shutdown is observed within
/// kPollMillis even on an idle connection. `*got_any` reports whether any
/// byte of the current frame arrived, distinguishing clean EOF from a
/// torn frame.
ReadResult RecvExact(int fd, char* buf, size_t n,
                     const std::atomic<bool>& stop, bool* got_any) {
  size_t done = 0;
  while (done < n) {
    if (stop.load(std::memory_order_relaxed)) return ReadResult::kStopped;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kError;
    }
    if (ready == 0) continue;
    const ssize_t r = ::recv(fd, buf + done, n - done, 0);
    if (r == 0) {
      return done == 0 && !*got_any ? ReadResult::kClosed : ReadResult::kError;
    }
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return ReadResult::kError;
    }
    done += static_cast<size_t>(r);
    *got_any = true;
  }
  return ReadResult::kFrame;
}

/// Reads one length-prefixed frame into `*payload`.
ReadResult ReadFrame(int fd, const std::atomic<bool>& stop,
                     std::string* payload) {
  char prefix[4];
  bool got_any = false;
  const ReadResult head = RecvExact(fd, prefix, sizeof(prefix), stop, &got_any);
  if (head != ReadResult::kFrame) return head;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(static_cast<uint8_t>(prefix[i])) << (8 * i);
  }
  if (length > kMaxPayloadBytes) return ReadResult::kError;
  payload->resize(length);
  if (length == 0) return ReadResult::kFrame;
  return RecvExact(fd, payload->data(), length, stop, &got_any);
}

/// Sends all of `data`; MSG_NOSIGNAL so a vanished peer surfaces as an
/// error return instead of SIGPIPE.
bool WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(w);
  }
  return true;
}

bool WriteFrame(int fd, std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size());
  AppendFrame(&out, payload);
  return WriteAll(fd, out);
}

}  // namespace

QueryOutcome ExecuteQuery(const QuerySnapshot& snapshot,
                          const QueryRequest& request, SearchWorkspace* ws) {
  QueryOutcome out;
  out.epoch = snapshot.epoch();
  const FlatHcdIndex& flat = snapshot.flat();
  const SearchIndex& sidx = snapshot.search_index();
  if (request.vertices.empty()) {
    const SearchHit hit = SearchInto(flat, sidx, request.metric, ws);
    if (request.k == 0) {
      if (hit.best_node == kInvalidNode) return out;
      out.found = true;
      out.node = hit.best_node;
      out.score = hit.best_score;
    } else {
      // Restrict the argmax to nodes of level >= k over the scores
      // SearchInto just filled, keeping its first-node-wins tie order.
      TreeNodeId best = kInvalidNode;
      double best_score = 0.0;
      for (TreeNodeId node = 0; node < flat.NumNodes(); ++node) {
        if (flat.Level(node) < request.k) continue;
        if (best == kInvalidNode || ws->scores[node] > best_score) {
          best = node;
          best_score = ws->scores[node];
        }
      }
      if (best == kInvalidNode) return out;
      out.found = true;
      out.node = best;
      out.score = best_score;
    }
  } else {
    const TreeNodeId node =
        NodeOfKCoreContainingAll(flat, request.vertices, request.k);
    if (node == kInvalidNode) return out;
    out.found = true;
    out.node = node;
    out.score = EvaluateMetric(request.metric,
                               sidx.PrimaryFor(request.metric)[node],
                               sidx.globals());
  }
  out.level = flat.Level(out.node);
  out.core_size = flat.CoreSize(out.node);
  return out;
}

QueryOutcome ExecuteElementQuery(const ElementSearchIndex& index,
                                 const QueryRequest& request, uint64_t epoch) {
  QueryOutcome out;
  out.epoch = epoch;
  ElementHit hit;
  if (request.vertices.empty()) {
    hit = request.k == 0 ? index.Densest() : index.DensestAtLeast(request.k);
  } else {
    // The ids are untrusted: NodeOfKCoreContaining rejects out-of-range
    // element ids, so a hostile request degrades to found = false.
    const TreeNodeId node =
        NodeOfKCoreContainingAll(index.flat(), request.vertices, request.k);
    if (node == kInvalidNode) return out;
    hit.found = true;
    hit.node = node;
    hit.level = index.flat().Level(node);
    hit.elements = index.CommunityElements(node);
    hit.score = index.Density(node);
  }
  if (!hit.found) return out;
  out.found = true;
  out.node = hit.node;
  out.level = hit.level;
  out.core_size = hit.elements;
  out.score = hit.score;
  return out;
}

const char* QueryServer::PhaseName(int phase) {
  switch (phase) {
    case kQueue: return "queue";
    case kDecode: return "decode";
    case kCache: return "cache";
    case kSearch: return "search";
    case kEncode: return "encode";
    default: return "?";
  }
}

QueryServer::QueryServer(const SnapshotManager* manager, ServerOptions options)
    : manager_(manager), options_(options) {
  HCD_CHECK(manager_ != nullptr) << "a query server needs a snapshot manager";
  if (options_.workers <= 0) options_.workers = HardwareThreads();
  if (options_.max_pending < 0) options_.max_pending = 0;
  if (options_.stats_tick_millis <= 0) options_.stats_tick_millis = 1000;
  if (options_.cache) {
    cache_ = std::make_unique<ResultCache>(options_.cache_options);
  }
  // Resolve every instrument once, here: the per-request path must perform
  // zero registry lookups (bench_micro's zero-lookup row and server_test
  // assert exactly this), and stats() is valid from construction on.
  registry_ = MetricsRegistry::Current();
  if (registry_ == nullptr) {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  MetricsRegistry& registry = *registry_;
  instruments_.requests = registry.GetCounter(
      "hcd_server_requests_total", "Query requests answered by the server.");
  instruments_.cache_hits = registry.GetCounter(
      "hcd_server_cache_hits_total",
      "Query requests answered from the epoch-keyed result cache.");
  instruments_.overload = registry.GetCounter(
      "hcd_server_overload_total",
      "Connections shed by admission control (pending queue full).");
  instruments_.bad_requests = registry.GetCounter(
      "hcd_server_bad_requests_total",
      "Malformed frames; the offending connection is closed.");
  instruments_.connections = registry.GetCounter(
      "hcd_server_connections_total", "Connections handed to workers.");
  instruments_.metrics_requests = registry.GetCounter(
      "hcd_server_metrics_requests_total", "Metrics expositions served.");
  instruments_.stats_requests = registry.GetCounter(
      "hcd_server_stats_requests_total", "Live-stats documents served.");
  instruments_.slow_log_dropped = registry.GetCounter(
      "hcd_server_slow_log_dropped_total",
      "Slow-query log lines refused by a full ring buffer.");
  // Registered here (it is incremented by Tracer::PublishDroppedSpans)
  // so the serving smoke can assert its presence and zero value.
  registry.GetCounter("hcd_trace_dropped_spans_total",
                      "Trace spans discarded by full per-thread buffers.");
  const std::string latency_name = "hcd_query_latency_seconds";
  const std::string latency_help =
      "End-to-end latency of one served query (queue wait included).";
  instruments_.latency = registry.GetHistogram(latency_name, latency_help);
  instruments_.latency_by_metric.resize(std::size(kAllMetrics));
  for (size_t i = 0; i < std::size(kAllMetrics); ++i) {
    instruments_.latency_by_metric[i] = registry.GetHistogram(
        latency_name, latency_help, {{"metric", MetricName(kAllMetrics[i])}});
  }
  for (int phase = 0; phase < kNumPhases; ++phase) {
    instruments_.phases[phase] = registry.GetHistogram(
        "hcd_server_phase_seconds",
        "Per-phase share of each served query's latency.",
        {{"phase", PhaseName(phase)}});
  }
  instruments_.queue_depth = registry.GetGauge(
      "hcd_server_queue_depth", "Accepted connections waiting for a worker.");
  instruments_.inflight = registry.GetGauge(
      "hcd_server_inflight",
      "Requests currently between frame read and response write.");
}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  HCD_CHECK(!started_) << "query server already started";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const std::string message = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(message);
  }
  if (::listen(listen_fd_, options_.max_pending + options_.workers + 16) != 0) {
    const std::string message = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(message);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  if (!options_.slow_log_path.empty()) {
    SlowQueryLog::Options log_options;
    log_options.path = options_.slow_log_path;
    slow_log_ = std::make_unique<SlowQueryLog>(log_options);
    if (Status status = slow_log_->Start(); !status.ok()) {
      slow_log_.reset();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return status;
    }
  }

  start_steady_ns_ = SteadyNowNs();
  start_unix_ms_ = UnixNowMs();
  // Seed the window ring so the first ticker push already yields a delta.
  windows_.Push(CaptureSample());

  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  stats_ticker_ = std::thread([this] { StatsTickerLoop(); });
  return Status::Ok();
}

void QueryServer::Stop() {
  if (!started_) return;
  {
    // Under the workers' queue mutex, for the same reason as the ticker's
    // below: a notify lost there would hang Stop in join.
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  // Wakes the acceptor's poll at once (POLLHUP, and accept then fails), so
  // Stop does not wait out a poll interval. The fd is closed after the
  // join, so the acceptor never polls a closed (or reused) descriptor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
  {
    // Taken so the ticker is either still before its predicate check (and
    // will see stop_) or inside the wait (and will get the notify) — never
    // in the unlocked gap where the notify would be lost for a full tick.
    std::lock_guard<std::mutex> lock(ticker_mu_);
  }
  ticker_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (stats_ticker_.joinable()) stats_ticker_.join();
  // Connections still pending were never owned by a worker: shed them.
  for (const PendingConn& conn : pending_) {
    instruments_.overload->Increment();
    WriteFrame(conn.fd, EncodeStatusOnlyResponse(ResponseStatus::kOverloaded));
    ::close(conn.fd);
  }
  pending_.clear();
  instruments_.queue_depth->Set(0.0);
  if (slow_log_ != nullptr) slow_log_->Stop();
  ::close(listen_fd_);
  listen_fd_ = -1;
  started_ = false;
}

void QueryServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    bool admitted = false;
    {
      // Admission: there is an idle worker to take the connection now, or
      // room in the bounded pending queue. Everything else is shed.
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() <
          idle_workers_ + static_cast<size_t>(options_.max_pending)) {
        pending_.push_back({fd, StampNow(Tracer::Current())});
        instruments_.queue_depth->Set(static_cast<double>(pending_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      instruments_.overload->Increment();
      WriteFrame(fd, EncodeStatusOnlyResponse(ResponseStatus::kOverloaded));
      ::close(fd);
    }
  }
}

void QueryServer::WorkerLoop() {
  // Worker-owned serve state, created once per worker lifetime: the
  // epoch-cached snapshot reader, the reusable scoring workspaces and the
  // timing scratch (the constructor already resolved the instruments).
  WorkerContext ctx(*manager_);
  while (true) {
    PendingConn conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      ++idle_workers_;
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !pending_.empty();
      });
      --idle_workers_;
      if (stop_.load(std::memory_order_relaxed)) return;
      conn = pending_.front();
      pending_.pop_front();
      ctx.queue_depth = pending_.size();
      instruments_.queue_depth->Set(static_cast<double>(pending_.size()));
    }
    ctx.conn_enqueue_ns = conn.enqueue_ns;
    ctx.conn_queue_ns =
        StampDelta(conn.enqueue_ns, StampNow(Tracer::Current()));
    ctx.first_request = true;
    instruments_.connections->Increment();
    ServeConnection(conn.fd, &ctx);
    ::close(conn.fd);
  }
}

void QueryServer::ServeConnection(int fd, WorkerContext* ctx) {
  std::string payload;
  while (!stop_.load(std::memory_order_relaxed)) {
    const ReadResult read = ReadFrame(fd, stop_, &payload);
    if (read == ReadResult::kClosed || read == ReadResult::kStopped) return;
    // t0 anchors the request's stamp chain: everything from here to the
    // response write is attributed to exactly one phase.
    Tracer* const tracer = Tracer::Current();
    const uint64_t t0 = StampNow(tracer);
    MessageType type;
    if (read == ReadResult::kError || !DecodeRequestType(payload, &type)) {
      instruments_.bad_requests->Increment();
      WriteFrame(fd, EncodeStatusOnlyResponse(ResponseStatus::kBadRequest));
      return;
    }
    if (type == MessageType::kMetrics) {
      instruments_.metrics_requests->Increment();
      const MetricsRegistry* installed = MetricsRegistry::Current();
      const MetricsRegistry& exposed =
          installed != nullptr ? *installed : *registry_;
      if (!WriteFrame(fd, EncodeMetricsResponse(exposed.RenderPrometheus()))) {
        return;
      }
      continue;
    }
    if (type == MessageType::kStats) {
      instruments_.stats_requests->Increment();
      if (!WriteFrame(fd, EncodeMetricsResponse(RenderStatsJson()))) return;
      continue;
    }
    QueryRequest request;
    if (!DecodeQueryRequest(payload, &request)) {
      instruments_.bad_requests->Increment();
      WriteFrame(fd, EncodeStatusOnlyResponse(ResponseStatus::kBadRequest));
      return;
    }
    const uint64_t t1 = StampNow(tracer);  // decode done
    if (!AnswerQuery(fd, request, ctx, t0, t1, tracer)) return;
  }
}

bool QueryServer::AnswerQuery(int fd, const QueryRequest& request,
                              WorkerContext* ctx, uint64_t t0, uint64_t t1,
                              Tracer* tracer) {
  instruments_.inflight->Add(1.0);
  // The generation this request is answered on is fixed here: a publish
  // racing with the request leaves this query on its acquired snapshot,
  // and the cache refuses to mix the two epochs.
  const QuerySnapshot snapshot = ctx->reader.Snapshot();
  const uint64_t epoch = snapshot.epoch();
  // Element requests route to the static element index when its kind
  // matches; otherwise they answer found = false (the default outcome) so
  // a client can probe what the server has loaded without being dropped.
  const ElementSearchIndex* element_index =
      request.hierarchy != HierarchyKind::kCore &&
              options_.element_index != nullptr &&
              options_.element_index->kind() == request.hierarchy
          ? options_.element_index
          : nullptr;

  CachedResult result;
  bool hit = false;
  std::string key;
  if (cache_ != nullptr) {
    key = CacheKeyFor(request);
    hit = cache_->Lookup(epoch, key, &result);
  }
  const uint64_t t2 = StampNow(tracer);  // snapshot + cache resolved
  if (!hit) {
    QueryOutcome outcome;
    if (request.hierarchy == HierarchyKind::kCore) {
      outcome = ExecuteQuery(snapshot, request, &ctx->ws);
    } else if (element_index != nullptr) {
      outcome = ExecuteElementQuery(*element_index, request, epoch);
    } else {
      outcome.epoch = epoch;  // unserved kind: found stays false
    }
    result = {outcome.epoch, outcome.found, outcome.node,
              outcome.level, outcome.core_size, outcome.score};
    if (cache_ != nullptr) cache_->Insert(epoch, key, result);
  }

  QueryResponse response;
  response.status = ResponseStatus::kOk;
  response.epoch = epoch;
  response.cache_hit = hit;
  response.found = result.found;
  response.level = result.level;
  response.core_size = result.core_size;
  response.score = result.score;
  if (result.found && request.max_return_vertices > 0) {
    if (element_index != nullptr) {
      // Element communities echo their member graph vertices (sorted),
      // materialized per request into the worker's stamp workspace.
      element_index->CommunityOf(result.node, &ctx->ews, &response.vertices);
      if (response.vertices.size() > request.max_return_vertices) {
        response.vertices.resize(request.max_return_vertices);
      }
    } else {
      // Node ids in the cache are valid exactly for `epoch`, which is the
      // generation `snapshot` holds, so this span cannot dangle.
      const std::span<const VertexId> members =
          snapshot.CoreVertices(result.node);
      const size_t count =
          std::min<size_t>(request.max_return_vertices, members.size());
      response.vertices.assign(members.begin(), members.begin() + count);
    }
  }
  const uint64_t t3 = StampNow(tracer);  // scored + vertices materialized

  // The request/hit counters precede the response on the wire: a client
  // that fetches metrics right after reading its last response must see
  // every answered request counted (the CI smoke pins the exact total).
  // The latency/phase recording stays after the write so it covers it.
  const uint64_t seq = instruments_.requests->Increment();
  if (response.cache_hit) instruments_.cache_hits->Increment();

  const bool ok = WriteFrame(fd, EncodeQueryResponse(response));
  const uint64_t t4 = StampNow(tracer);  // response on the wire

  const uint64_t stamps[5] = {t0, t1, t2, t3, t4};
  RecordRequestObservability(request, response, ctx, seq, stamps, tracer);

  instruments_.inflight->Add(-1.0);
  return ok;
}

void QueryServer::RecordRequestObservability(const QueryRequest& request,
                                             const QueryResponse& response,
                                             WorkerContext* ctx, uint64_t seq,
                                             const uint64_t stamps[5],
                                             Tracer* tracer) {
  RequestTimings& timings = ctx->timings;
  timings.ResetPhases();
  timings.trace_id = request.trace_id;
  timings.sampled = request.sampled;
  timings.queue_ns = ctx->first_request ? ctx->conn_queue_ns : 0;
  timings.decode_ns = StampDelta(stamps[0], stamps[1]);
  timings.cache_ns = StampDelta(stamps[1], stamps[2]);
  timings.search_ns = StampDelta(stamps[2], stamps[3]);
  timings.encode_ns = StampDelta(stamps[3], stamps[4]);

  const double total_seconds = static_cast<double>(timings.TotalNs()) * 1e-9;
  const double phase_seconds[kNumPhases] = {
      static_cast<double>(timings.queue_ns) * 1e-9,
      static_cast<double>(timings.decode_ns) * 1e-9,
      static_cast<double>(timings.cache_ns) * 1e-9,
      static_cast<double>(timings.search_ns) * 1e-9,
      static_cast<double>(timings.encode_ns) * 1e-9,
  };
  instruments_.latency->Observe(total_seconds);
  instruments_.latency_by_metric[static_cast<size_t>(request.metric)]->Observe(
      total_seconds);
  for (int phase = 0; phase < kNumPhases; ++phase) {
    instruments_.phases[phase]->Observe(phase_seconds[phase]);
  }

  if (tracer != nullptr) {
    const std::string trace_hex = TraceIdHex(timings.trace_id);
    const auto record = [&](const char* name, uint64_t ts, uint64_t dur) {
      TraceSpan span;
      span.name = name;
      span.ts_ns = ts;
      span.dur_ns = dur;
      span.args.push_back({"trace_id", 0, trace_hex, true});
      tracer->RecordSpan(std::move(span));
    };
    if (ctx->first_request && ctx->conn_queue_ns > 0) {
      // The connection's pending-queue wait, deferred to its first request
      // so the span can carry that request's trace id.
      record("serve.queue", ctx->conn_enqueue_ns, ctx->conn_queue_ns);
    }
    record("serve.decode", stamps[0], timings.decode_ns);
    record("serve.cache", stamps[1], timings.cache_ns);
    record("serve.search", stamps[2], timings.search_ns);
    record("serve.encode", stamps[3], timings.encode_ns);
    TraceSpan root;
    root.name = "serve.request";
    root.ts_ns = stamps[0];
    root.dur_ns = StampDelta(stamps[0], stamps[4]);
    root.args.push_back({"trace_id", 0, trace_hex, true});
    root.args.push_back(
        {"sampled", timings.sampled ? uint64_t{1} : uint64_t{0}, "", false});
    root.args.push_back(
        {"cache_hit", response.cache_hit ? uint64_t{1} : uint64_t{0}, "",
         false});
    root.args.push_back({"epoch", response.epoch, "", false});
    tracer->RecordSpan(std::move(root));
  }

  if (slow_log_ != nullptr) {
    const double total_ms = static_cast<double>(timings.TotalNs()) * 1e-6;
    const bool slow =
        options_.slow_query_ms >= 0 && total_ms >= options_.slow_query_ms;
    const bool sampled_log =
        options_.slow_log_sample_every > 0 &&
        seq % static_cast<uint64_t>(options_.slow_log_sample_every) == 0;
    if (slow || sampled_log) {
      const bool element_served =
          options_.element_index != nullptr &&
          options_.element_index->kind() == request.hierarchy;
      SlowLogRecord record;
      record.ts_unix_ms = UnixNowMs();
      record.reason = slow ? "slow" : "sampled";
      record.regime = RegimeName(request, element_served);
      record.hierarchy = request.hierarchy;
      record.metric = request.metric;
      record.k = request.k;
      record.cache_hit = response.cache_hit;
      record.found = response.found;
      record.overloaded = ctx->queue_depth > 0;
      record.epoch = response.epoch;
      record.queue_depth = ctx->queue_depth;
      record.timings = timings;
      if (!slow_log_->Append(FormatSlowLogRecord(record))) {
        instruments_.slow_log_dropped->Increment();
      }
    }
  }
  ctx->first_request = false;
}

void QueryServer::StatsTickerLoop() {
  std::unique_lock<std::mutex> lock(ticker_mu_);
  while (!stop_.load(std::memory_order_relaxed)) {
    ticker_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.stats_tick_millis),
        [this] { return stop_.load(std::memory_order_relaxed); });
    if (stop_.load(std::memory_order_relaxed)) return;
    windows_.Push(CaptureSample());
  }
}

WindowSample QueryServer::CaptureSample() const {
  WindowSample sample;
  sample.at_seconds = static_cast<double>(SteadyNowNs()) * 1e-9;
  sample.counters.resize(kNumWindowCounters);
  sample.counters[kWinRequests] = instruments_.requests->Value();
  sample.counters[kWinCacheHits] = instruments_.cache_hits->Value();
  sample.counters[kWinBadRequests] = instruments_.bad_requests->Value();
  sample.counters[kWinShed] = instruments_.overload->Value();
  sample.counters[kWinConnections] = instruments_.connections->Value();
  sample.histograms.reserve(1 + kNumPhases);
  sample.histograms.push_back(SampleHistogram(*instruments_.latency));
  for (int phase = 0; phase < kNumPhases; ++phase) {
    sample.histograms.push_back(SampleHistogram(*instruments_.phases[phase]));
  }
  return sample;
}

namespace {

/// `{"count":N,"mean_us":...,"p50_us":...,"p95_us":...,"p99_us":...}` for
/// one histogram sample (a windowed delta or a cumulative snapshot).
std::string QuantilesJson(const HistogramSample& sample) {
  const uint64_t count = sample.TotalCount();
  const double mean =
      count > 0 ? sample.sum_seconds / static_cast<double>(count) : 0.0;
  std::string out = "{\"count\":";
  out += std::to_string(count);
  out += ",\"mean_us\":";
  out += StatsDouble(mean * 1e6);
  out += ",\"p50_us\":";
  out += StatsDouble(SampleQuantile(sample, 0.5) * 1e6);
  out += ",\"p95_us\":";
  out += StatsDouble(SampleQuantile(sample, 0.95) * 1e6);
  out += ",\"p99_us\":";
  out += StatsDouble(SampleQuantile(sample, 0.99) * 1e6);
  out += '}';
  return out;
}

uint64_t WinCounter(const WindowSample& sample, size_t index) {
  return index < sample.counters.size() ? sample.counters[index] : 0;
}

const HistogramSample& WinHistogram(const WindowSample& sample, size_t index) {
  static const HistogramSample kEmpty;
  return index < sample.histograms.size() ? sample.histograms[index] : kEmpty;
}

}  // namespace

std::string QueryServer::RenderStatsJson() const {
  const ServerStats totals = stats();
  std::string out;
  out.reserve(2048);
  out += "{\"server\":{\"start_unix_ms\":";
  out += std::to_string(start_unix_ms_);
  out += ",\"uptime_seconds\":";
  out += StatsDouble(static_cast<double>(SteadyNowNs() - start_steady_ns_) *
                     1e-9);
  out += ",\"workers\":";
  out += std::to_string(options_.workers);
  out += ",\"epoch\":";
  out += std::to_string(manager_->Epoch());
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out += ",\"queue_depth\":";
    out += std::to_string(pending_.size());
  }
  out += ",\"inflight\":";
  out += std::to_string(static_cast<int64_t>(
      std::max(0.0, instruments_.inflight->Value())));
  out += ",\"totals\":{\"requests\":";
  out += std::to_string(totals.requests);
  out += ",\"cache_hits\":";
  out += std::to_string(totals.cache_hits);
  out += ",\"metrics_requests\":";
  out += std::to_string(totals.metrics_requests);
  out += ",\"stats_requests\":";
  out += std::to_string(totals.stats_requests);
  out += ",\"bad_requests\":";
  out += std::to_string(totals.bad_requests);
  out += ",\"shed\":";
  out += std::to_string(totals.shed);
  out += ",\"connections\":";
  out += std::to_string(totals.connections);
  out += ",\"slow_log_appended\":";
  out += std::to_string(slow_log_ != nullptr ? slow_log_->appended() : 0);
  out += ",\"slow_log_written\":";
  out += std::to_string(slow_log_ != nullptr ? slow_log_->written() : 0);
  out += ",\"slow_log_dropped\":";
  out += std::to_string(slow_log_ != nullptr ? slow_log_->dropped() : 0);
  out += "}},\"windows\":[";
  // The windows are deltas between ring samples, so each reflects exactly
  // the requests that completed inside its span (its `seconds` reports the
  // real time covered, which also keeps the rates honest if a tick slips).
  static constexpr size_t kWindowTicks[] = {1, 10, 60};
  bool first = true;
  for (const size_t ticks : kWindowTicks) {
    WindowSample delta;
    if (!windows_.Delta(ticks, &delta)) continue;
    const double span =
        delta.at_seconds > 0 ? delta.at_seconds : 1e-9;  // div-by-zero guard
    const uint64_t requests = WinCounter(delta, kWinRequests);
    const uint64_t bad = WinCounter(delta, kWinBadRequests);
    const uint64_t shed = WinCounter(delta, kWinShed);
    const uint64_t connections = WinCounter(delta, kWinConnections);
    if (!first) out += ',';
    first = false;
    out += "{\"label\":\"";
    out += StatsDouble(static_cast<double>(ticks) *
                       static_cast<double>(options_.stats_tick_millis) / 1e3);
    out += "s\",\"ticks\":";
    out += std::to_string(ticks);
    out += ",\"seconds\":";
    out += StatsDouble(delta.at_seconds);
    out += ",\"qps\":";
    out += StatsDouble(static_cast<double>(requests) / span);
    out += ",\"error_rate\":";
    out += StatsDouble(static_cast<double>(bad) /
                       static_cast<double>(std::max<uint64_t>(requests + bad,
                                                              1)));
    out += ",\"shed_rate\":";
    out += StatsDouble(
        static_cast<double>(shed) /
        static_cast<double>(std::max<uint64_t>(connections + shed, 1)));
    out += ",\"cache_hit_rate\":";
    out += StatsDouble(static_cast<double>(WinCounter(delta, kWinCacheHits)) /
                       static_cast<double>(std::max<uint64_t>(requests, 1)));
    out += ",\"latency_us\":";
    out += QuantilesJson(WinHistogram(delta, 0));
    out += ",\"phases_us\":{";
    for (int phase = 0; phase < kNumPhases; ++phase) {
      if (phase > 0) out += ',';
      out += '"';
      out += PhaseName(phase);
      out += "\":";
      out += QuantilesJson(WinHistogram(delta, 1 + static_cast<size_t>(phase)));
    }
    out += "}}";
  }
  // Lifetime totals over the same histograms, for tools (serve-bench's
  // --server-phase-report) that want attribution across a whole run.
  out += "],\"total\":{\"latency_us\":";
  out += QuantilesJson(SampleHistogram(*instruments_.latency));
  out += ",\"phases_us\":{";
  for (int phase = 0; phase < kNumPhases; ++phase) {
    if (phase > 0) out += ',';
    out += '"';
    out += PhaseName(phase);
    out += "\":";
    out += QuantilesJson(SampleHistogram(*instruments_.phases[phase]));
  }
  out += "}}}";
  return out;
}

ServerStats QueryServer::stats() const {
  ServerStats stats;
  stats.requests = instruments_.requests->Value();
  stats.cache_hits = instruments_.cache_hits->Value();
  stats.metrics_requests = instruments_.metrics_requests->Value();
  stats.stats_requests = instruments_.stats_requests->Value();
  stats.bad_requests = instruments_.bad_requests->Value();
  stats.shed = instruments_.overload->Value();
  stats.connections = instruments_.connections->Value();
  return stats;
}

}  // namespace hcd::server
