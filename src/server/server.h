#ifndef HCD_SERVER_SERVER_H_
#define HCD_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rolling_window.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/live.h"
#include "engine/snapshot.h"
#include "search/element_search.h"
#include "search/search_index.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/slow_log.h"

namespace hcd::server {

/// One evaluated query, before response encoding. `epoch` is always the
/// generation of the snapshot that answered (found or not).
struct QueryOutcome {
  uint64_t epoch = 0;
  bool found = false;
  TreeNodeId node = kInvalidNode;
  uint32_t level = 0;
  uint64_t core_size = 0;
  double score = 0.0;
};

/// Evaluates one protocol query against `snapshot`, the single scoring
/// path the server, serve-bench's self mode and the soak tests share:
///
///   - empty vertex set, k == 0: QuerySnapshot-equivalent global best
///     (bit-identical to SearchInto on the same snapshot);
///   - empty vertex set, k > 0: best-scoring node among those of level
///     >= k (first such node wins ties, matching SearchInto's order);
///   - non-empty vertex set: the k-core containing all listed vertices
///     (NodeOfKCoreContainingAll ancestor walks), scored under the
///     requested metric in O(1) from the eager primary values.
///
/// Reads only const snapshot state; any number of threads may call it
/// concurrently, each with its own workspace.
QueryOutcome ExecuteQuery(const QuerySnapshot& snapshot,
                          const QueryRequest& request, SearchWorkspace* ws);

/// Evaluates one element-hierarchy query (request.hierarchy is truss or
/// nucleus) against an ElementSearchIndex, mirroring ExecuteQuery's three
/// regimes with `request.vertices` carrying element ids:
///
///   - empty ids, k == 0: the globally densest community (Densest);
///   - empty ids, k > 0: the densest community of level >= k
///     (DensestAtLeast, same first-node-wins tie order);
///   - non-empty ids: the community containing all listed elements
///     (NodeOfKCoreContainingAll ancestor walks over element ids), scored
///     by its precomputed density.
///
/// Out-of-range element ids answer found = false. `epoch` stamps the
/// outcome (the index is static; the server passes the current snapshot
/// generation so the result cache keys uniformly). Reads only const index
/// state; safe for any number of concurrent callers.
QueryOutcome ExecuteElementQuery(const ElementSearchIndex& index,
                                 const QueryRequest& request, uint64_t epoch);

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back from
  /// port() after Start). The server is loopback-only by design — it is a
  /// serving-stack testbed, not a hardened public front door.
  uint16_t port = 0;
  /// Fixed worker pool size; 0 = hardware threads. Each worker owns a
  /// SnapshotReader, a reusable SearchWorkspace and pre-resolved
  /// instruments, and serves one connection at a time to completion.
  int workers = 0;
  /// Admission control: accepted connections waiting for a worker beyond
  /// this bound are shed with a kOverloaded frame and closed.
  int max_pending = 64;
  /// Serve results through the epoch-keyed ResultCache.
  bool cache = true;
  ResultCache::Options cache_options;
  /// Optional element-hierarchy index (truss or nucleus) served alongside
  /// the core snapshots; must outlive the server. Requests whose hierarchy
  /// byte matches its kind are answered by ExecuteElementQuery; element
  /// requests for any other kind (or when this is null) answer
  /// found = false without closing the connection, so one client can probe
  /// what the server has loaded. The index is static across publishes —
  /// its answers are cached under the current core-snapshot epoch.
  const ElementSearchIndex* element_index = nullptr;
  /// Slow-query logging: with a non-empty `slow_log_path`, a request whose
  /// total (queue wait + work) exceeds `slow_query_ms` milliseconds
  /// appends one JSONL record (0 logs every request; negative disables
  /// the threshold entirely, leaving only sampling).
  double slow_query_ms = -1.0;
  std::string slow_log_path;
  /// Deterministic always-sample riding on the slow log: every Nth request
  /// (by the global request counter) logs with reason "sampled" even when
  /// fast, so the log shows the healthy baseline next to the outliers.
  /// 0 disables sampling.
  int slow_log_sample_every = 1024;
  /// Cadence of the rolling-window ticker behind the kStats message, in
  /// milliseconds. The window ring holds 61 ticks, so at the default
  /// 1000 ms the "60-tick" window spans one minute. Tests shrink this to
  /// exercise windows without sleeping for real minutes.
  int stats_tick_millis = 1000;
};

/// Lifetime totals read from the server's registry counters (see
/// QueryServer for which registry that is).
struct ServerStats {
  uint64_t requests = 0;       ///< query requests answered
  uint64_t cache_hits = 0;     ///< answered from the result cache
  uint64_t metrics_requests = 0;
  uint64_t stats_requests = 0; ///< kStats snapshots served
  uint64_t bad_requests = 0;   ///< malformed frames (connection closed)
  uint64_t shed = 0;           ///< connections refused by admission control
  uint64_t connections = 0;    ///< connections handed to workers
};

/// Blocking-socket query server over a SnapshotManager: one accept loop,
/// a bounded pending-connection queue, and a fixed worker pool. A worker
/// pops a connection and answers its length-prefixed requests in order
/// until the peer closes (clients may pipeline many frames; each is
/// answered as soon as it is read, so a batch of requests costs one
/// round trip). Publishing a new generation through the manager never
/// blocks the server: workers pick up the new epoch on their next
/// request via their SnapshotReader, in-flight queries finish on the
/// generation they acquired, and the result cache invalidates itself
/// wholesale per shard on first sight of the new epoch.
///
/// The registry's instruments are the server's only record. The
/// constructor resolves them once (never per request) from the installed
/// MetricsRegistry, or, when none is installed, from a registry the server
/// owns: counters hcd_server_requests_total, hcd_server_cache_hits_total,
/// hcd_server_overload_total, hcd_server_bad_requests_total,
/// hcd_server_connections_total, hcd_server_metrics_requests_total,
/// hcd_server_stats_requests_total, hcd_server_slow_log_dropped_total and
/// hcd_trace_dropped_spans_total, the hcd_query_latency_seconds histogram
/// family (one unlabeled series plus one {metric=...} child per metric),
/// the per-phase hcd_server_phase_seconds{phase=queue|decode|cache|search|
/// encode} histograms, and the hcd_server_queue_depth / hcd_server_inflight
/// gauges. stats(), the kStats document and the kMetrics exposition all
/// read these same objects. Two servers built under one installed registry
/// therefore share (and both report) its counts. The kMetrics endpoint
/// serves the installed registry's Prometheus rendering, or the server's
/// own registry's when none is installed.
///
/// Request-scoped observability (docs/OBSERVABILITY.md "Request-scoped
/// serving"): every query is timed with consecutive monotonic stamps so
/// its decode/cache/search/encode phases sum exactly to its wall time
/// (plus the connection's pending-queue wait, attributed to the first
/// request). The same stamps feed the per-phase histograms (and through
/// them the kStats rolling windows) and the slow-query log; with a Tracer
/// installed each request additionally records a `serve.request` span plus
/// one span per phase, all carrying the request's wire trace id, so the
/// client's `client.query` lane and the server's lanes pair up in one
/// Perfetto view.
class QueryServer {
 public:
  /// The manager, and the MetricsRegistry installed at this point if any
  /// (the server keeps its instruments), must outlive the server. Does
  /// not listen yet.
  QueryServer(const SnapshotManager* manager, ServerOptions options);

  /// Stops and joins if still running.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Binds, listens, and spawns the accept loop and worker pool. Errors
  /// (port in use, ...) are returned, not aborted on.
  Status Start();

  /// Stops accepting, drains workers and joins all threads. Idempotent.
  /// In-flight requests finish; connections waiting in the pending queue
  /// are shed.
  void Stop();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }
  int workers() const { return static_cast<int>(workers_.size()); }

  /// Valid from construction on; counts whatever the instruments' registry
  /// has counted (see the class comment).
  ServerStats stats() const;
  /// Null when ServerOptions::cache is false.
  const ResultCache* cache() const { return cache_.get(); }
  /// Null unless ServerOptions::slow_log_path is set.
  const SlowQueryLog* slow_log() const { return slow_log_.get(); }

  /// The kStats JSON document: lifetime totals plus rolling 1/10/60-tick
  /// windows of QPS, error/shed/cache-hit rates and per-phase latency
  /// quantiles derived from windowed histogram deltas. Callable from any
  /// thread while the server runs (the wire kStats handler is exactly
  /// this).
  std::string RenderStatsJson() const;

  /// Request phases in wire/report order; indexes the phase histograms.
  enum Phase { kQueue = 0, kDecode, kCache, kSearch, kEncode, kNumPhases };
  static const char* PhaseName(int phase);

 private:
  /// Instrument pointers resolved once by the constructor, so the
  /// per-request path performs zero registry lookups (latency_by_metric
  /// indexed by Metric value, phases by Phase). None is ever null.
  struct Instruments {
    Counter* requests = nullptr;
    Counter* cache_hits = nullptr;
    Counter* overload = nullptr;
    Counter* bad_requests = nullptr;
    Counter* connections = nullptr;
    Counter* metrics_requests = nullptr;
    Counter* stats_requests = nullptr;
    Counter* slow_log_dropped = nullptr;
    Histogram* latency = nullptr;
    std::vector<Histogram*> latency_by_metric;
    Histogram* phases[kNumPhases] = {};
    Gauge* queue_depth = nullptr;
    Gauge* inflight = nullptr;
  };

  /// One accepted connection waiting for a worker, stamped at admission
  /// so the worker that pops it can attribute the queue wait.
  struct PendingConn {
    int fd = -1;
    uint64_t enqueue_ns = 0;
  };

  /// Worker-owned serve state, created once per worker lifetime and
  /// reused across connections and requests (the RequestTimings scratch is
  /// the "reusable per-worker" struct the slow log and spans fill from).
  struct WorkerContext {
    explicit WorkerContext(const SnapshotManager& manager)
        : reader(manager) {}
    SnapshotReader reader;
    SearchWorkspace ws;
    ElementWorkspace ews;
    RequestTimings timings;
    uint64_t conn_enqueue_ns = 0;  ///< current connection's admission stamp
    uint64_t conn_queue_ns = 0;    ///< its pending-queue wait
    uint64_t queue_depth = 0;      ///< pending depth seen when it was popped
    bool first_request = false;    ///< queue wait not yet attributed
  };

  void AcceptLoop();
  void WorkerLoop();
  void StatsTickerLoop();
  /// One cumulative sample of the window counters and histograms.
  WindowSample CaptureSample() const;
  /// Serves one connection to completion; returns on EOF, error, or stop.
  void ServeConnection(int fd, WorkerContext* ctx);
  /// Answers one already-decoded query request on `fd`. `t0`/`t1` continue
  /// the caller's stamp chain (frame read done / decode done) on the clock
  /// `tracer` implies, so phase durations sum exactly to the total.
  bool AnswerQuery(int fd, const QueryRequest& request, WorkerContext* ctx,
                   uint64_t t0, uint64_t t1, Tracer* tracer);
  /// Post-response bookkeeping: phase histograms, spans, slow log. The
  /// request/hit counters are incremented by the caller BEFORE the
  /// response is written (so an exact count fetched over the wire never
  /// under-reads); `seq` is that increment's 1-based sequence number,
  /// which keys the deterministic slow-log sampling. `stamps` holds the
  /// request's five consecutive clock stamps t0..t4 (frame read /
  /// decoded / cache resolved / scored / response written).
  void RecordRequestObservability(const QueryRequest& request,
                                  const QueryResponse& response,
                                  WorkerContext* ctx, uint64_t seq,
                                  const uint64_t stamps[5], Tracer* tracer);

  const SnapshotManager* manager_;
  ServerOptions options_;
  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<SlowQueryLog> slow_log_;
  /// Set only when no registry was installed at construction.
  std::unique_ptr<MetricsRegistry> own_registry_;
  /// The registry the instruments were resolved from.
  MetricsRegistry* registry_ = nullptr;
  Instruments instruments_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<PendingConn> pending_;  ///< accepted conns awaiting a worker
  size_t idle_workers_ = 0;   ///< workers parked in WorkerLoop's wait

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::thread stats_ticker_;
  mutable std::mutex ticker_mu_;
  std::condition_variable ticker_cv_;

  RollingWindow windows_;
  uint64_t start_steady_ns_ = 0;   ///< uptime origin
  uint64_t start_unix_ms_ = 0;     ///< wall-clock stamp of Start()
};

}  // namespace hcd::server

#endif  // HCD_SERVER_SERVER_H_
