// Tests of the socket query server stack (src/server): wire protocol
// round-trips, the epoch-keyed result cache's invalidation rule, the
// shared ExecuteQuery scoring path, and the server end to end over real
// loopback sockets — including the concurrent soak the TSan CI job runs,
// where serve workers answer through the cache while a writer publishes
// new generations.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "engine/engine.h"
#include "engine/live.h"
#include "graph/generators.h"
#include "hcd/query.h"
#include "hcd/serialize.h"
#include "search/search_index.h"
#include "search/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "server/slow_log.h"
#include "tests/test_util.h"

namespace hcd::server {
namespace {

using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

std::vector<EdgeUpdate> ToggleBatch(const DynamicCoreIndex& index, Rng& rng,
                                    size_t size) {
  const VertexId n = index.NumVertices();
  std::vector<EdgeUpdate> batch;
  while (batch.size() < size) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v) continue;
    batch.push_back(
        {u, v, index.HasEdge(u, v) ? EdgeOp::kRemove : EdgeOp::kInsert});
  }
  return batch;
}

// --- protocol ---------------------------------------------------------------

TEST(Protocol, QueryRequestRoundTrips) {
  QueryRequest request;
  request.metric = Metric::kConductance;
  request.k = 3;
  request.max_return_vertices = 7;
  request.vertices = {5, 1, 9};
  const std::string payload = EncodeQueryRequest(request);

  MessageType type;
  ASSERT_TRUE(DecodeRequestType(payload, &type));
  EXPECT_EQ(type, MessageType::kQuery);

  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(payload, &decoded));
  EXPECT_EQ(decoded.metric, request.metric);
  EXPECT_EQ(decoded.k, request.k);
  EXPECT_EQ(decoded.max_return_vertices, request.max_return_vertices);
  EXPECT_EQ(decoded.vertices, request.vertices);
}

TEST(Protocol, QueryResponseRoundTripsScoreBitExactly) {
  QueryResponse response;
  response.status = ResponseStatus::kOk;
  response.epoch = 42;
  response.cache_hit = true;
  response.found = true;
  response.level = 6;
  response.core_size = 123456789012345ull;
  response.score = 0.1 + 0.2;  // not representable tidily: bits must survive
  response.vertices = {3, 1, 4, 1};
  const std::string payload = EncodeQueryResponse(response);

  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(payload, &decoded));
  EXPECT_EQ(decoded.status, ResponseStatus::kOk);
  EXPECT_EQ(decoded.epoch, response.epoch);
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_TRUE(decoded.found);
  EXPECT_EQ(decoded.level, response.level);
  EXPECT_EQ(decoded.core_size, response.core_size);
  EXPECT_EQ(decoded.score, response.score);  // exact, not near
  EXPECT_EQ(decoded.vertices, response.vertices);
}

TEST(Protocol, StatusOnlyResponsesCarryNoBody) {
  for (const ResponseStatus status :
       {ResponseStatus::kOverloaded, ResponseStatus::kBadRequest}) {
    const std::string payload = EncodeStatusOnlyResponse(status);
    EXPECT_EQ(payload.size(), 1u);
    QueryResponse decoded;
    ASSERT_TRUE(DecodeQueryResponse(payload, &decoded));
    EXPECT_EQ(decoded.status, status);
  }
}

TEST(Protocol, MetricsResponseRoundTrips) {
  const std::string text = "# HELP x y\nx 1\n";
  const std::string payload = EncodeMetricsResponse(text);
  ResponseStatus status = ResponseStatus::kBadRequest;
  std::string decoded;
  ASSERT_TRUE(DecodeMetricsResponse(payload, &status, &decoded));
  EXPECT_EQ(status, ResponseStatus::kOk);
  EXPECT_EQ(decoded, text);
}

TEST(Protocol, DecodersRejectMalformedPayloads) {
  QueryRequest valid;
  valid.vertices = {1, 2};
  const std::string good = EncodeQueryRequest(valid);

  QueryRequest out;
  MessageType type;
  EXPECT_FALSE(DecodeRequestType("", &type));
  EXPECT_FALSE(DecodeRequestType("\x07", &type));  // unknown message type
  EXPECT_FALSE(DecodeQueryRequest("", &out));
  // Truncated payload: count says 2 vertices, bytes hold 1.
  EXPECT_FALSE(DecodeQueryRequest(good.substr(0, good.size() - 4), &out));
  // Trailing garbage after the advertised vertices.
  EXPECT_FALSE(DecodeQueryRequest(good + "????", &out));
  // Out-of-range metric index.
  std::string bad_metric = good;
  bad_metric[1] = '\x7f';
  EXPECT_FALSE(DecodeQueryRequest(bad_metric, &out));

  QueryResponse response_out;
  EXPECT_FALSE(DecodeQueryResponse("", &response_out));
  EXPECT_FALSE(DecodeQueryResponse("\x09", &response_out));  // bad status
}

TEST(Protocol, CacheKeyCanonicalizesVertexSets) {
  QueryRequest a, b;
  a.metric = b.metric = Metric::kModularity;
  a.k = b.k = 2;
  a.vertices = {7, 3, 3, 5};
  b.vertices = {5, 7, 3};
  // Same logical query -> same key, regardless of order and duplicates.
  EXPECT_EQ(CacheKeyFor(a), CacheKeyFor(b));
  // max_return_vertices deliberately does NOT key the cache: it only caps
  // the echoed member list, not the answer.
  b.max_return_vertices = 99;
  EXPECT_EQ(CacheKeyFor(a), CacheKeyFor(b));
  b.k = 3;
  EXPECT_NE(CacheKeyFor(a), CacheKeyFor(b));
  b.k = 2;
  b.metric = Metric::kCutRatio;
  EXPECT_NE(CacheKeyFor(a), CacheKeyFor(b));
  // Element answers are densities whatever the metric: one key per
  // question, and still apart from the core key and from the other kind.
  QueryRequest truss_a = a, truss_b = b, nucleus = a;
  truss_a.hierarchy = truss_b.hierarchy = HierarchyKind::kTruss;
  nucleus.hierarchy = HierarchyKind::kNucleus;
  EXPECT_EQ(CacheKeyFor(truss_a), CacheKeyFor(truss_b));
  EXPECT_NE(CacheKeyFor(truss_a), CacheKeyFor(a));
  EXPECT_NE(CacheKeyFor(truss_a), CacheKeyFor(nucleus));
}

TEST(Protocol, TraceContextRoundTripsAsAVersionTwoTail) {
  QueryRequest request;
  request.metric = Metric::kCutRatio;
  request.k = 2;
  request.vertices = {4, 8};
  const std::string untraced = EncodeQueryRequest(request);

  request.trace_id = 0xdeadbeefcafef00dull;
  request.sampled = true;
  const std::string traced = EncodeQueryRequest(request);
  ASSERT_EQ(traced.size(), untraced.size() + 9);  // u64 id + u8 sampled

  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(traced, &decoded));
  EXPECT_EQ(decoded.trace_id, request.trace_id);
  EXPECT_TRUE(decoded.sampled);
  EXPECT_EQ(decoded.vertices, request.vertices);

  // A version-1 frame (no tail) still decodes, with no trace context —
  // the compatibility contract for old clients against new servers.
  ASSERT_TRUE(DecodeQueryRequest(untraced, &decoded));
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_FALSE(decoded.sampled);
  EXPECT_EQ(decoded.vertices, request.vertices);
}

TEST(Protocol, MalformedTraceTailsAreRejected) {
  QueryRequest request;
  request.vertices = {1};
  request.trace_id = 7;
  request.sampled = false;
  const std::string traced = EncodeQueryRequest(request);

  QueryRequest out;
  // A truncated tail is neither a valid v1 nor a valid v2 frame.
  for (size_t cut = 1; cut < 9; ++cut) {
    EXPECT_FALSE(DecodeQueryRequest(
        std::string_view(traced).substr(0, traced.size() - cut), &out))
        << "tail short by " << cut;
  }
  // The sampled flag is strictly 0 or 1.
  std::string bad_flag = traced;
  bad_flag.back() = '\x02';
  EXPECT_FALSE(DecodeQueryRequest(bad_flag, &out));
  // A version-2 tail names a request: its trace id is nonzero (id 0 is a
  // version-1 frame, which has no tail).
  std::string zero_id = traced;
  std::fill(zero_id.end() - 9, zero_id.end() - 1, '\0');
  EXPECT_FALSE(DecodeQueryRequest(zero_id, &out));
}

// Found with the wire fuzz: flag bytes other than 0 and 1 decoded as true,
// so the payload did not re-encode to its own bytes.
TEST(Protocol, ResponseFlagBytesAreStrictlyZeroOrOne) {
  QueryResponse response;
  response.found = true;
  const std::string payload = EncodeQueryResponse(response);
  QueryResponse out;
  ASSERT_TRUE(DecodeQueryResponse(payload, &out));
  for (const size_t at : {size_t{9}, size_t{10}}) {  // cache_hit, found
    std::string bad = payload;
    bad[at] = '\x21';
    EXPECT_FALSE(DecodeQueryResponse(bad, &out)) << "byte " << at;
  }
}

TEST(Protocol, CacheKeyIgnoresTraceContext) {
  QueryRequest plain, traced;
  plain.metric = traced.metric = Metric::kModularity;
  plain.k = traced.k = 1;
  plain.vertices = traced.vertices = {2, 6};
  traced.trace_id = 0x1234;
  traced.sampled = true;
  // The trace id names the request, not the question: traced and untraced
  // askers of the same query must share a cache entry.
  EXPECT_EQ(CacheKeyFor(plain), CacheKeyFor(traced));
}

TEST(Protocol, StatsRequestRoundTripsItsType) {
  const std::string payload = EncodeStatsRequest();
  MessageType type;
  ASSERT_TRUE(DecodeRequestType(payload, &type));
  EXPECT_EQ(type, MessageType::kStats);
}

// --- slow log ---------------------------------------------------------------

TEST(SlowLog, FormatsOneParseableRecordWithExactPhaseSum) {
  SlowLogRecord record;
  record.ts_unix_ms = 1700000000123ull;
  record.reason = "sampled";
  record.regime = "vertex-set";
  record.hierarchy = HierarchyKind::kTruss;
  record.metric = Metric::kConductance;
  record.k = 4;
  record.cache_hit = true;
  record.found = true;
  record.overloaded = true;
  record.epoch = 9;
  record.queue_depth = 3;
  record.timings.trace_id = 0xabcdef;
  record.timings.sampled = true;
  record.timings.queue_ns = 1000;
  record.timings.decode_ns = 200;
  record.timings.cache_ns = 300;
  record.timings.search_ns = 4000;
  record.timings.encode_ns = 500;

  const std::string line = FormatSlowLogRecord(record);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(line, &doc)) << line;
  EXPECT_EQ(doc.Find("ts_unix_ms")->number, 1700000000123.0);
  EXPECT_EQ(doc.Find("reason")->str, "sampled");
  EXPECT_EQ(doc.Find("trace_id")->str, "0xabcdef");
  EXPECT_EQ(doc.Find("regime")->str, "vertex-set");
  EXPECT_EQ(doc.Find("hierarchy")->str, "truss");
  EXPECT_EQ(doc.Find("metric")->str, "conductance");
  EXPECT_EQ(doc.Find("k")->number, 4.0);
  EXPECT_EQ(doc.Find("epoch")->number, 9.0);
  EXPECT_EQ(doc.Find("queue_depth")->number, 3.0);
  const JsonValue* phases = doc.Find("phase_ns");
  ASSERT_NE(phases, nullptr);
  const double sum = phases->Find("queue")->number +
                     phases->Find("decode")->number +
                     phases->Find("cache")->number +
                     phases->Find("search")->number +
                     phases->Find("encode")->number;
  EXPECT_EQ(doc.Find("total_ns")->number, sum);
  EXPECT_EQ(doc.Find("total_ns")->number, 6000.0);
}

// --- result cache -----------------------------------------------------------

CachedResult MakeResult(uint64_t epoch, double score) {
  CachedResult result;
  result.epoch = epoch;
  result.found = true;
  result.node = 1;
  result.level = 2;
  result.core_size = 3;
  result.score = score;
  return result;
}

TEST(ResultCacheTest, HitsOnlyAtTheInsertedEpoch) {
  ResultCache cache;
  cache.Insert(5, "key", MakeResult(5, 1.5));
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(5, "key", &out));
  EXPECT_EQ(out.epoch, 5u);
  EXPECT_EQ(out.score, 1.5);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCacheTest, NewerEpochFlushesWholesale) {
  ResultCache::Options options;
  options.shards = 1;  // all keys share one shard: the flush is observable
  ResultCache cache(options);
  cache.Insert(1, "a", MakeResult(1, 1.0));
  cache.Insert(1, "b", MakeResult(1, 2.0));
  EXPECT_EQ(cache.Size(), 2u);

  // First lookup at epoch 2 drops everything resident from epoch 1.
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(2, "a", &out));
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.stats().epoch_flushes, 1u);
  EXPECT_FALSE(cache.Lookup(2, "b", &out));
}

TEST(ResultCacheTest, DrainingEpochNeverSeesNewerEntries) {
  ResultCache::Options options;
  options.shards = 1;
  ResultCache cache(options);
  cache.Insert(2, "key", MakeResult(2, 9.0));
  // A reader still finishing queries on epoch 1 must not be served the
  // epoch-2 entry, and its own late insert must be dropped.
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(1, "key", &out));
  cache.Insert(1, "key", MakeResult(1, 7.0));
  ASSERT_TRUE(cache.Lookup(2, "key", &out));
  EXPECT_EQ(out.epoch, 2u);
  EXPECT_EQ(out.score, 9.0);
  EXPECT_EQ(cache.stats().stale_drops, 2u);
}

TEST(ResultCacheTest, BoundedShardsStopRetainingNewKeys) {
  ResultCache::Options options;
  options.shards = 1;
  options.max_entries_per_shard = 2;
  ResultCache cache(options);
  cache.Insert(1, "a", MakeResult(1, 1.0));
  cache.Insert(1, "b", MakeResult(1, 2.0));
  cache.Insert(1, "c", MakeResult(1, 3.0));  // full: not retained
  EXPECT_EQ(cache.Size(), 2u);
  CachedResult out;
  EXPECT_FALSE(cache.Lookup(1, "c", &out));
  // Updating a resident key still works at capacity.
  cache.Insert(1, "a", MakeResult(1, 4.0));
  ASSERT_TRUE(cache.Lookup(1, "a", &out));
  EXPECT_EQ(out.score, 4.0);
}

// --- ExecuteQuery -----------------------------------------------------------

class ExecuteQueryTest : public ::testing::Test {
 protected:
  ExecuteQueryTest() : live_(ErdosRenyiGnm(300, 1200, 17)) {}
  LiveEngine live_;
};

TEST_F(ExecuteQueryTest, GlobalBestMatchesSnapshotSearchBitExactly) {
  const QuerySnapshot snapshot = live_.Snapshot();
  const SearchIndex& sidx = snapshot.search_index();
  SearchWorkspace ws;
  for (const Metric metric : kAllMetrics) {
    QueryRequest request;
    request.metric = metric;
    const QueryOutcome outcome = ExecuteQuery(snapshot, request, &ws);
    const SearchResult expect =
        ScoreNodes(snapshot.flat(), metric, sidx.Primary(), sidx.globals());
    ASSERT_TRUE(outcome.found);
    EXPECT_EQ(outcome.node, expect.best_node);
    EXPECT_EQ(outcome.score, expect.best_score);  // bit-identical
    EXPECT_EQ(outcome.level, snapshot.flat().Level(expect.best_node));
    EXPECT_EQ(outcome.core_size, snapshot.flat().CoreSize(expect.best_node));
  }
}

TEST_F(ExecuteQueryTest, LevelConstraintRestrictsTheArgmax) {
  const QuerySnapshot snapshot = live_.Snapshot();
  SearchWorkspace ws;
  QueryRequest request;
  request.metric = Metric::kInternalDensity;
  request.k = 2;
  const QueryOutcome outcome = ExecuteQuery(snapshot, request, &ws);
  ASSERT_TRUE(outcome.found);
  EXPECT_GE(outcome.level, 2u);
  // Exhaustive check: best score among nodes of level >= k, over the
  // scores of the scan path.
  const SearchIndex& sidx = snapshot.search_index();
  const SearchResult scan = ScoreNodes(snapshot.flat(), request.metric,
                                       sidx.Primary(), sidx.globals());
  double best = 0.0;
  bool any = false;
  for (TreeNodeId node = 0; node < snapshot.flat().NumNodes(); ++node) {
    if (snapshot.flat().Level(node) < 2) continue;
    if (!any || scan.scores[node] > best) {
      best = scan.scores[node];
      any = true;
    }
  }
  ASSERT_TRUE(any);
  EXPECT_EQ(outcome.score, best);

  // An impossible constraint reports not-found, never a wrong node.
  request.k = 1u << 20;
  const QueryOutcome none = ExecuteQuery(snapshot, request, &ws);
  EXPECT_FALSE(none.found);
}

/// The level-filtered argmax over ScoreNodes's scores: the scan the
/// per-level tables replace, kept as their oracle (first node wins ties).
TreeNodeId NaiveBestAtLeast(const FlatHcdIndex& flat,
                            const std::vector<double>& scores, uint32_t k) {
  TreeNodeId best = kInvalidNode;
  for (TreeNodeId node = 0; node < flat.NumNodes(); ++node) {
    if (flat.Level(node) < k) continue;
    if (best == kInvalidNode || scores[node] > scores[best]) best = node;
  }
  return best;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Every metric and every k in [0, k_max + 1] on `snapshot`: ExecuteQuery
/// must name the naive scan's node with a bit-identical score.
void ExpectLevelQueriesMatchNaiveScan(const QuerySnapshot& snapshot,
                                      const std::string& name) {
  const FlatHcdIndex& flat = snapshot.flat();
  const SearchIndex& sidx = snapshot.search_index();
  SearchWorkspace ws;
  for (const Metric metric : kAllMetrics) {
    const SearchResult scan =
        ScoreNodes(flat, metric, sidx.Primary(), sidx.globals());
    for (uint32_t k = 0; k <= snapshot.coreness().k_max + 1; ++k) {
      QueryRequest request;
      request.metric = metric;
      request.k = k;
      const QueryOutcome got = ExecuteQuery(snapshot, request, &ws);
      const TreeNodeId want = NaiveBestAtLeast(flat, scan.scores, k);
      ASSERT_EQ(got.found, want != kInvalidNode)
          << name << " " << MetricName(metric) << " k=" << k;
      EXPECT_EQ(got.epoch, snapshot.epoch());
      if (!got.found) continue;
      EXPECT_EQ(got.node, want)
          << name << " " << MetricName(metric) << " k=" << k;
      EXPECT_EQ(Bits(got.score), Bits(scan.scores[want]))
          << name << " " << MetricName(metric) << " k=" << k;
      EXPECT_EQ(got.level, flat.Level(want));
      EXPECT_EQ(got.core_size, flat.CoreSize(want));
    }
  }
}

TEST(ExecuteQueryOracle, LevelQueriesMatchNaiveScanOnSuite) {
  for (const hcd::testing::GraphCase& c : hcd::testing::StandardGraphSuite()) {
    HcdEngine engine(&c.graph);
    ExpectLevelQueriesMatchNaiveScan(engine.Snapshot(), c.name);
  }
}

// Disjoint identical cliques give equal scores on one level under every
// metric; the lower preorder node must win, as in the scan.
TEST(ExecuteQueryOracle, TiesGoToTheLowerPreorderNode) {
  constexpr VertexId kCliques = 3;
  constexpr VertexId kSize = 5;
  GraphBuilder b;
  for (VertexId c = 0; c < kCliques; ++c) {
    for (VertexId u = 0; u < kSize; ++u) {
      for (VertexId v = u + 1; v < kSize; ++v) {
        b.AddEdge(c * kSize + u, c * kSize + v);
      }
    }
  }
  HcdEngine engine(std::move(b).Build(kCliques * kSize));
  const QuerySnapshot snapshot = engine.Snapshot();
  const FlatHcdIndex& flat = snapshot.flat();
  ASSERT_EQ(flat.NumNodes(), kCliques);
  ExpectLevelQueriesMatchNaiveScan(snapshot, "cliques");

  const SearchIndex& sidx = snapshot.search_index();
  SearchWorkspace ws;
  for (const Metric metric : kAllMetrics) {
    const SearchResult scan =
        ScoreNodes(flat, metric, sidx.Primary(), sidx.globals());
    for (TreeNodeId node = 1; node < kCliques; ++node) {
      ASSERT_EQ(Bits(scan.scores[node]), Bits(scan.scores[0]));  // a real tie
    }
    QueryRequest request;
    request.metric = metric;
    request.k = kSize - 1;
    EXPECT_EQ(ExecuteQuery(snapshot, request, &ws).node, 0u)
        << MetricName(metric);
  }
}

TEST_F(ExecuteQueryTest, VertexQueriesMatchTheAncestorWalk) {
  const QuerySnapshot snapshot = live_.Snapshot();
  SearchWorkspace ws;
  const FlatHcdIndex& flat = snapshot.flat();
  for (VertexId v = 0; v < 20; ++v) {
    const uint32_t k = hcd::CorenessOf(flat, v);
    if (k == 0) continue;
    QueryRequest request;
    request.metric = Metric::kAverageDegree;
    request.k = k;
    request.vertices = {v};
    const QueryOutcome outcome = ExecuteQuery(snapshot, request, &ws);
    ASSERT_TRUE(outcome.found);
    EXPECT_EQ(outcome.node, hcd::NodeOfKCoreContaining(flat, v, k));
    EXPECT_GE(outcome.level, k);
    // Too deep for this vertex: not found.
    request.k = k + 1;
    EXPECT_FALSE(ExecuteQuery(snapshot, request, &ws).found);
  }
}

// A restart from a snapshot with the search tables saved next to the forest
// maps everything the server reads: it runs no peel and no PBKS pass, and
// answers every regime exactly like a server built from the graph.
TEST(ExecuteQueryOracle,
     ServerFromATabledSnapshotAnswersLikeOneBuiltFromTheGraph) {
  const Graph graph = RMatGraph500(10, 6000, 13);
  LiveEngine built{Graph(graph)};
  const QuerySnapshot want = built.Snapshot();
  ASSERT_TRUE(want.flat().HasSearchTables());
  const std::string path = ::testing::TempDir() + "/server_test_tables.snap";
  ASSERT_TRUE(SaveFlatIndex(want.flat(), path).ok());
  FlatHcdIndex mapped;
  ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
  std::remove(path.c_str());
  ASSERT_TRUE(mapped.mapped());
  ASSERT_TRUE(mapped.HasSearchTables());

  testing::StageProbe probe;
  LiveEngineOptions options;
  options.initial_flat = std::make_shared<const FlatHcdIndex>(std::move(mapped));
  LiveEngine restarted(Graph(graph), options);
  probe.Stop();
  for (const char* stage : {"decomposition", "search.preprocess",
                            "search.primary_a", "search.primary_b"}) {
    EXPECT_EQ(probe.Runs(stage), 0u) << stage;
  }
  const QuerySnapshot got = restarted.Snapshot();
  EXPECT_EQ(&got.flat(), options.initial_flat.get());
  EXPECT_EQ(got.coreness().coreness, want.coreness().coreness);
  EXPECT_EQ(got.coreness().k_max, want.coreness().k_max);

  SearchWorkspace ws;
  auto expect_same = [&](const QueryRequest& request, const std::string& tag) {
    const QueryOutcome a = ExecuteQuery(want, request, &ws);
    const QueryOutcome b = ExecuteQuery(got, request, &ws);
    ASSERT_EQ(a.found, b.found) << tag;
    EXPECT_EQ(a.node, b.node) << tag;
    EXPECT_EQ(Bits(a.score), Bits(b.score)) << tag;
    EXPECT_EQ(a.level, b.level) << tag;
    EXPECT_EQ(a.core_size, b.core_size) << tag;
  };
  for (const Metric metric : kAllMetrics) {
    QueryRequest request;
    request.metric = metric;
    for (uint32_t k = 0; k <= want.coreness().k_max + 1; ++k) {
      request.k = k;
      expect_same(request, std::string(MetricName(metric)) + " k=" +
                               std::to_string(k));
    }
    for (VertexId v = 0; v < graph.NumVertices(); v += 37) {
      request.vertices = {v};
      request.k = want.coreness()[v];
      expect_same(request, std::string(MetricName(metric)) + " v=" +
                               std::to_string(v));
    }
  }

  // Over the wire as well: the restarted server's responses are the
  // built server's, bit for bit.
  ServerOptions server_options;
  server_options.workers = 1;
  QueryServer built_server(&built.manager(), server_options);
  QueryServer restarted_server(&restarted.manager(), server_options);
  ASSERT_TRUE(built_server.Start().ok());
  ASSERT_TRUE(restarted_server.Start().ok());
  QueryClient a, b;
  ASSERT_TRUE(a.Connect("127.0.0.1", built_server.port()).ok());
  ASSERT_TRUE(b.Connect("127.0.0.1", restarted_server.port()).ok());
  for (const Metric metric : kAllMetrics) {
    QueryRequest request;
    request.metric = metric;
    request.k = want.coreness().k_max / 2;
    request.max_return_vertices = 16;
    QueryResponse ra, rb;
    ASSERT_TRUE(a.Query(request, &ra).ok());
    ASSERT_TRUE(b.Query(request, &rb).ok());
    EXPECT_EQ(rb.found, ra.found) << MetricName(metric);
    EXPECT_EQ(Bits(rb.score), Bits(ra.score)) << MetricName(metric);
    EXPECT_EQ(rb.level, ra.level) << MetricName(metric);
    EXPECT_EQ(rb.core_size, ra.core_size) << MetricName(metric);
    EXPECT_EQ(rb.vertices, ra.vertices) << MetricName(metric);
  }
  built_server.Stop();
  restarted_server.Stop();
}

// --- server end to end ------------------------------------------------------

TEST(QueryServerTest, AnswersQueriesAndCachesRepeats) {
  LiveEngine live(ErdosRenyiGnm(200, 800, 23));
  ServerOptions options;
  options.workers = 2;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryRequest request;
  request.metric = Metric::kConductance;
  request.max_return_vertices = 5;
  QueryResponse first, second;
  ASSERT_TRUE(client.Query(request, &first).ok());
  ASSERT_TRUE(client.Query(request, &second).ok());
  EXPECT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(first.found);
  EXPECT_EQ(first.epoch, live.Epoch());
  EXPECT_EQ(second.score, first.score);
  EXPECT_EQ(second.level, first.level);
  EXPECT_EQ(second.core_size, first.core_size);
  EXPECT_LE(first.vertices.size(), 5u);
  EXPECT_EQ(second.vertices, first.vertices);

  // The answer matches the library computed in-process, bit for bit.
  SearchWorkspace ws;
  const QueryOutcome expect = ExecuteQuery(live.Snapshot(), request, &ws);
  EXPECT_EQ(first.score, expect.score);
  EXPECT_EQ(first.level, expect.level);
  EXPECT_EQ(first.core_size, expect.core_size);

  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.connections, 1u);
}

// Stopping right after starting catches idle workers between their wait
// predicate and the wait itself. A wake-up lost there leaves a worker
// asleep and Stop hung in join, so every cycle must return.
TEST(QueryServerTest, BackToBackStartStopNeverHangs) {
  LiveEngine live(ErdosRenyiGnm(50, 100, 3));
  ServerOptions options;
  options.workers = 8;
  QueryServer server(&live.manager(), options);
  for (int cycle = 0; cycle < 200; ++cycle) {
    ASSERT_TRUE(server.Start().ok()) << "cycle " << cycle;
    server.Stop();
  }
}

// Stop wakes the acceptor out of its poll by shutting the listening socket
// down, so stopping an idle server takes no poll interval (100 ms).
TEST(QueryServerTest, StopOfAnIdleServerReturnsImmediately) {
  LiveEngine live(ErdosRenyiGnm(50, 100, 5));
  ServerOptions options;
  options.workers = 2;
  QueryServer server(&live.manager(), options);
  std::vector<double> stop_ms;
  for (int cycle = 0; cycle < 20; ++cycle) {
    ASSERT_TRUE(server.Start().ok()) << "cycle " << cycle;
    // Let the acceptor block in its poll before stopping.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto begin = std::chrono::steady_clock::now();
    server.Stop();
    stop_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - begin)
                          .count());
  }
  std::sort(stop_ms.begin(), stop_ms.end());
  EXPECT_LT(stop_ms[stop_ms.size() / 2], 20.0);
}

/// A truss or nucleus node's score: its community's density, whatever the
/// metric.
constexpr Metric kDensity = Metric::kAverageDegree;

/// The densest community of level >= k by a scan over the index's
/// densities, first node winning ties: the naive reference the element
/// answers must match.
TreeNodeId NaiveDensestNode(const SearchIndex& index, uint32_t k) {
  const FlatHcdIndex& flat = index.flat();
  TreeNodeId best = kInvalidNode;
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    if (flat.Level(t) < k) continue;
    if (best == kInvalidNode ||
        index.Score(kDensity, t) > index.Score(kDensity, best)) {
      best = t;
    }
  }
  return best;
}

struct ElementServingCase {
  HierarchyKind kind;
  /// Serve from the built index's saved snapshot, mapped with its search
  /// tables, as a restart does; otherwise from the index built from the
  /// graph.
  bool from_snapshot;
};

class ElementServingTest
    : public ::testing::TestWithParam<ElementServingCase> {};

TEST_P(ElementServingTest, ServesElementHierarchyAlongsideCore) {
  const HierarchyKind kind = GetParam().kind;
  Graph graph = ErdosRenyiGnm(120, 1400, 29);

  // The element search index built from the graph: every answer below must
  // be its answer, whichever index the server reads.
  EngineOptions element_options;
  element_options.hierarchy = kind;
  HcdEngine element_engine(Graph(graph), element_options);
  const SearchIndex& built = element_engine.Searcher();
  const FlatHcdIndex& flat = built.flat();
  ASSERT_GT(flat.NumNodes(), 0u);
  uint32_t max_level = 0;
  for (TreeNodeId t = 0; t < flat.NumNodes(); ++t) {
    max_level = std::max(max_level, flat.Level(t));
  }
  std::optional<SearchIndex> restarted;
  if (GetParam().from_snapshot) {
    const std::string path = ::testing::TempDir() + "/server_element_" +
                             HierarchyKindName(kind) + ".snap";
    ASSERT_TRUE(SaveFlatIndex(flat, path).ok());
    FlatHcdIndex mapped;
    ASSERT_TRUE(MapFlatIndex(path, &mapped).ok());
    std::remove(path.c_str());
    ASSERT_TRUE(mapped.HasSearchTables());
    ASSERT_TRUE(mapped.data().primaries.mapped());
    restarted.emplace(std::make_shared<const FlatHcdIndex>(std::move(mapped)));
  }
  const SearchIndex& element_index = restarted ? *restarted : built;

  LiveEngine live(std::move(graph));
  ServerOptions options;
  options.workers = 2;
  options.element_index = &element_index;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Regime 1: empty ids, k == 0 — the globally densest community.
  QueryRequest request;
  request.hierarchy = kind;
  request.max_return_vertices = 8;
  QueryResponse response;
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_TRUE(response.found);
  const TreeNodeId densest = NaiveDensestNode(built, 0);
  ASSERT_NE(densest, kInvalidNode);
  EXPECT_EQ(Bits(response.score), Bits(built.Score(kDensity, densest)));
  EXPECT_EQ(response.level, flat.Level(densest));
  EXPECT_EQ(response.core_size, flat.CoreSize(densest));
  EXPECT_EQ(response.epoch, live.Epoch());
  const QueryOutcome outcome =
      ExecuteQuery(nullptr, &element_index, live.Epoch(), request);
  EXPECT_EQ(outcome.node, densest);
  EXPECT_EQ(outcome.epoch, live.Epoch());
  // The echoed vertices are the community's member graph vertices,
  // ascending and truncated to max_return_vertices.
  SearchWorkspace ws;
  std::vector<VertexId> expect_vertices;
  CommunityOf(flat, densest, &ws, &expect_vertices);
  if (expect_vertices.size() > 8) expect_vertices.resize(8);
  EXPECT_EQ(response.vertices, expect_vertices);

  // Repeats hit the cache under the same epoch.
  QueryResponse repeat;
  ASSERT_TRUE(client.Query(request, &repeat).ok());
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.score, response.score);

  // Regime 2: level-constrained densest, every level and one past the top.
  for (uint32_t k = 0; k <= max_level + 1; ++k) {
    request.k = k;
    ASSERT_TRUE(client.Query(request, &response).ok());
    const TreeNodeId want = NaiveDensestNode(built, k);
    ASSERT_EQ(response.found, want != kInvalidNode) << "k=" << k;
    EXPECT_EQ(ExecuteQuery(nullptr, &element_index, 0, request).node, want);
    if (!response.found) continue;
    EXPECT_EQ(Bits(response.score), Bits(built.Score(kDensity, want)));
    EXPECT_EQ(response.level, flat.Level(want));
  }

  // Regime 3: ids carry *element* ids; the answer is the community
  // containing them all.
  request.k = 0;
  request.vertices = {0};
  ASSERT_TRUE(client.Query(request, &response).ok());
  const TreeNodeId node = hcd::NodeOfKCoreContaining(flat, 0, 0);
  ASSERT_NE(node, kInvalidNode);
  ASSERT_TRUE(response.found);
  EXPECT_EQ(response.level, flat.Level(node));
  EXPECT_EQ(response.core_size, flat.CoreSize(node));
  EXPECT_EQ(response.score, built.Score(kDensity, node));

  // A hostile out-of-range element id answers found = false, not a crash.
  request.vertices = {flat.NumElements() + 1000};
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_FALSE(response.found);

  // The other element kind is unserved: found = false with the epoch set,
  // and the connection stays open for the next request.
  request.hierarchy = kind == HierarchyKind::kTruss ? HierarchyKind::kNucleus
                                                    : HierarchyKind::kTruss;
  request.vertices.clear();
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_FALSE(response.found);
  EXPECT_EQ(response.epoch, live.Epoch());
  const QueryOutcome unserved =
      ExecuteQuery(nullptr, &element_index, live.Epoch(), request);
  EXPECT_FALSE(unserved.found);
  EXPECT_EQ(unserved.epoch, live.Epoch());
  request.hierarchy = HierarchyKind::kCore;
  ASSERT_TRUE(client.Query(request, &response).ok());
  EXPECT_TRUE(response.found);  // core regime still answers on this socket

  server.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    TrussAndNucleus, ElementServingTest,
    ::testing::Values(ElementServingCase{HierarchyKind::kTruss, false},
                      ElementServingCase{HierarchyKind::kNucleus, false},
                      ElementServingCase{HierarchyKind::kTruss, true},
                      ElementServingCase{HierarchyKind::kNucleus, true}),
    [](const ::testing::TestParamInfo<ElementServingCase>& info) {
      return std::string(HierarchyKindName(info.param.kind)) +
             (info.param.from_snapshot ? "_snapshot" : "");
    });

// A truss answer is the densest community whatever the metric, so two
// requests that differ only by metric are one cache entry.
TEST(QueryServerTest, TrussRequestsDifferingOnlyByMetricShareACacheEntry) {
  Graph graph = ErdosRenyiGnm(120, 1400, 29);
  HcdEngine element_engine(Graph(graph), {.hierarchy = HierarchyKind::kTruss});
  const SearchIndex& element_index = element_engine.Searcher();
  LiveEngine live(std::move(graph));
  ServerOptions options;
  options.workers = 1;
  options.element_index = &element_index;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryRequest request;
  request.hierarchy = HierarchyKind::kTruss;
  request.k = 2;
  request.metric = Metric::kConductance;
  QueryResponse first, second;
  ASSERT_TRUE(client.Query(request, &first).ok());
  request.metric = Metric::kTriangleDensity;
  ASSERT_TRUE(client.Query(request, &second).ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  ASSERT_TRUE(first.found);
  EXPECT_EQ(Bits(second.score), Bits(first.score));
  EXPECT_EQ(second.level, first.level);

  server.Stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(QueryServerTest, PipelinedRequestsAnswerInOrder) {
  LiveEngine live(ErdosRenyiGnm(150, 600, 29));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kBatch = 16;
  std::vector<QueryRequest> requests(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    requests[i].metric = kAllMetrics[i % std::size(kAllMetrics)];
    ASSERT_TRUE(client.SendQuery(requests[i]).ok());
  }
  SearchWorkspace ws;
  const QuerySnapshot snapshot = live.Snapshot();
  for (int i = 0; i < kBatch; ++i) {
    QueryResponse response;
    ASSERT_TRUE(client.ReadQueryResponse(&response).ok());
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    const QueryOutcome expect = ExecuteQuery(snapshot, requests[i], &ws);
    EXPECT_EQ(response.score, expect.score) << "response " << i;
  }
}

// Sends one raw frame (the QueryClient only writes well-formed ones) and
// returns the server's one-byte response status; -1 on read failure.
int RawFrameStatus(uint16_t port, std::string_view payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  std::string frame;
  AppendFrame(&frame, payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent, 0);
    if (w <= 0) break;
    sent += static_cast<size_t>(w);
  }
  // Response: 4-byte length prefix, then at least the status byte.
  char head[5];
  size_t got = 0;
  while (got < sizeof(head)) {
    const ssize_t r = ::recv(fd, head + got, sizeof(head) - got, 0);
    if (r <= 0) {
      ::close(fd);
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  // After a bad request the server closes; drain to EOF to observe it.
  char sink[64];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
  ::close(fd);
  return static_cast<uint8_t>(head[4]);
}

TEST(QueryServerTest, MalformedFramesGetBadRequestAndClose) {
  LiveEngine live(ErdosRenyiGnm(100, 300, 31));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  QueryRequest probe;
  const std::string valid = EncodeQueryRequest(probe);
  std::string unknown_type = valid;
  unknown_type[0] = '\x63';  // not a MessageType
  std::string bad_metric = valid;
  bad_metric[1] = '\x7e';  // metric index out of range
  EXPECT_EQ(RawFrameStatus(server.port(), unknown_type),
            static_cast<int>(ResponseStatus::kBadRequest));
  EXPECT_EQ(RawFrameStatus(server.port(), bad_metric),
            static_cast<int>(ResponseStatus::kBadRequest));
  // Truncated query payload.
  EXPECT_EQ(RawFrameStatus(server.port(),
                           std::string_view(valid).substr(0, valid.size() - 1)),
            static_cast<int>(ResponseStatus::kBadRequest));

  // A well-formed client still works on a fresh connection afterwards.
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryResponse response;
  ASSERT_TRUE(client.Query(probe, &response).ok());
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  server.Stop();
  EXPECT_EQ(server.stats().bad_requests, 3u);
}

TEST(QueryServerTest, OverloadedConnectionsAreShedWithAnExplicitFrame) {
  LiveEngine live(ErdosRenyiGnm(100, 300, 37));
  ServerOptions options;
  options.workers = 1;
  options.max_pending = 0;  // admission = idle workers only
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  // First connection: admitted (the one worker is idle) and proven owned
  // by completing a query.
  QueryClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
  QueryRequest request;
  QueryResponse response;
  Status s = first.Query(request, &response);
  // The very first connect can race worker startup: retry until admitted.
  while (s.ok() && response.status == ResponseStatus::kOverloaded) {
    ASSERT_TRUE(first.Connect("127.0.0.1", server.port()).ok());
    s = first.Query(request, &response);
  }
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(response.status, ResponseStatus::kOk);

  // Second connection: the worker owns the first, nothing is idle, the
  // pending bound is 0 -> shed with the explicit overload frame.
  QueryClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok());
  QueryResponse shed;
  ASSERT_TRUE(second.ReadQueryResponse(&shed).ok());
  EXPECT_EQ(shed.status, ResponseStatus::kOverloaded);

  server.Stop();
  EXPECT_GE(server.stats().shed, 1u);
}

TEST(QueryServerTest, ServesMetricsAndResolvesInstrumentsOnce) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(150, 500, 41));
    QueryServer server(&live.manager(), ServerOptions{});
    ASSERT_TRUE(server.Start().ok());

    // Every instrument was resolved at construction: the serve path must
    // perform zero registry lookups per request.
    const uint64_t lookups_after_start = registry.lookup_count();
    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    QueryRequest request;
    QueryResponse response;
    constexpr int kRequests = 50;
    for (int i = 0; i < kRequests; ++i) {
      request.metric = kAllMetrics[i % std::size(kAllMetrics)];
      request.k = static_cast<uint32_t>(i % 3);
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
    }
    EXPECT_EQ(registry.lookup_count(), lookups_after_start)
        << "the per-request path performed registry lookups";

    // The metrics endpoint serves the exposition with the server counters.
    std::string text;
    ASSERT_TRUE(client.FetchMetrics(&text).ok());
    EXPECT_NE(text.find("hcd_server_requests_total 50"), std::string::npos)
        << text;
    EXPECT_NE(text.find("hcd_server_cache_hits_total"), std::string::npos);
    EXPECT_NE(text.find("hcd_query_latency_seconds_bucket"),
              std::string::npos);
    server.Stop();
    EXPECT_EQ(server.stats().metrics_requests, 1u);
  }
  registry.Uninstall();
}

// With no registry installed the server resolves its instruments from a
// registry it owns, and kMetrics serves that one.
TEST(QueryServerTest, ServesItsOwnMetricsWithoutAnInstalledRegistry) {
  ASSERT_EQ(MetricsRegistry::Current(), nullptr);
  LiveEngine live(ErdosRenyiGnm(150, 500, 42));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  QueryRequest request;
  QueryResponse response;
  constexpr int kRequests = 7;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(client.Query(request, &response).ok());
  }
  std::string text;
  ASSERT_TRUE(client.FetchMetrics(&text).ok());
  EXPECT_NE(text.find("hcd_server_requests_total 7\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("hcd_server_cache_hits_total 6\n"), std::string::npos);
  EXPECT_NE(text.find("hcd_server_connections_total 1\n"), std::string::npos);
  server.Stop();
  EXPECT_EQ(server.stats().requests, 7u);
  EXPECT_EQ(server.stats().metrics_requests, 1u);
}

// hcd_server_inflight moves by Add(+1)/Add(-1) around each request, so
// once concurrent pipelining clients are done it reads exactly 0 (a Set of
// a separately loaded count could leave a stale 1 behind).
TEST(QueryServerTest, InflightGaugeReturnsToZeroAfterPipelinedClients) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(150, 600, 61));
    ServerOptions options;
    options.workers = 4;
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());
    constexpr int kClients = 4;
    constexpr int kBatch = 32;
    constexpr int kRounds = 8;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, c] {
        QueryClient client;
        ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
        for (int round = 0; round < kRounds; ++round) {
          for (int i = 0; i < kBatch; ++i) {
            QueryRequest request;
            request.metric = kAllMetrics[(c + i) % std::size(kAllMetrics)];
            request.k = static_cast<uint32_t>(i % 3);
            ASSERT_TRUE(client.SendQuery(request).ok());
          }
          for (int i = 0; i < kBatch; ++i) {
            QueryResponse response;
            ASSERT_TRUE(client.ReadQueryResponse(&response).ok());
            ASSERT_EQ(response.status, ResponseStatus::kOk);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.Stop();
    EXPECT_EQ(server.stats().requests,
              static_cast<uint64_t>(kClients * kBatch * kRounds));
    EXPECT_EQ(registry.GetGauge("hcd_server_inflight")->Value(), 0.0);
    JsonValue doc;
    ASSERT_TRUE(ParseJson(server.RenderStatsJson(), &doc));
    EXPECT_EQ(doc.Find("server")->Find("inflight")->number, 0.0);
  }
  registry.Uninstall();
}

TEST(QueryServerTest, CacheDropsWholesaleWhenTheEpochMoves) {
  LiveEngine live(ErdosRenyiGnm(200, 700, 43));
  QueryServer server(&live.manager(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  QueryRequest request;
  request.metric = Metric::kAverageDegree;
  QueryResponse warm, after;
  ASSERT_TRUE(client.Query(request, &warm).ok());
  ASSERT_TRUE(client.Query(request, &warm).ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.epoch, 0u);

  Rng rng(44);
  ASSERT_TRUE(live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 25), nullptr)
                  .ok());
  ASSERT_TRUE(client.Query(request, &after).ok());
  // The first query on the new generation recomputes: no stale answer.
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.epoch, 1u);
  SearchWorkspace ws;
  const QueryOutcome expect = ExecuteQuery(live.Snapshot(), request, &ws);
  EXPECT_EQ(after.score, expect.score);
  server.Stop();
}

// The TSan soak: serve workers answer a mixed workload through the cache
// over loopback sockets while the writer keeps publishing generations.
// Every response must match an uncached ExecuteQuery against a snapshot
// of the SAME epoch the response claims — i.e. no stale-epoch result is
// ever served across a handover.
TEST(QueryServerTest, SoakCachedServingStaysConsistentAcrossHandover) {
  LiveEngine live(ErdosRenyiGnm(200, 700, 47));
  ServerOptions options;
  options.workers = 2;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  // One client per worker: a worker owns its connection to completion, so
  // more clients than workers would leave the extras parked in pending.
  constexpr int kClients = 2;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      QueryClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      // Each client checks answers against its own reader, which may lag
      // the writer exactly like the serve workers do.
      SnapshotReader reader(live.manager());
      SearchWorkspace ws;
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;
        request.metric =
            kAllMetrics[(c + i) % std::size(kAllMetrics)];
        request.k = static_cast<uint32_t>(i % 3);
        ++i;
        QueryResponse response;
        ASSERT_TRUE(client.Query(request, &response).ok());
        ASSERT_EQ(response.status, ResponseStatus::kOk);
        // Pin a snapshot of the epoch the server claims to have answered
        // on; the reader may need one refresh to catch up, and may also
        // be one generation behind (in which case skip the cross-check —
        // the epoch equality below is the invariant under test).
        QuerySnapshot snap = reader.Snapshot();
        if (snap.epoch() < response.epoch) snap = reader.Snapshot();
        if (snap.epoch() == response.epoch) {
          const QueryOutcome expect = ExecuteQuery(snap, request, &ws);
          ASSERT_EQ(response.found, expect.found);
          if (expect.found) {
            // Bit-identical to the uncached computation on that epoch.
            ASSERT_EQ(response.score, expect.score)
                << "stale or wrong cached result at epoch "
                << response.epoch;
            ASSERT_EQ(response.level, expect.level);
            ASSERT_EQ(response.core_size, expect.core_size);
          }
        }
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  Rng rng(48);
  uint64_t published = 0;
  while (published < 5) {  // >= 5 handovers under active cached serving
    // Let each generation actually serve (and warm the cache) before the
    // next handover; otherwise all five publishes can land before the
    // client threads issue their first query.
    const uint64_t target = served.load() + 60;
    for (int spin = 0; spin < 5000 && served.load() < target; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    BatchApplyReport report;
    ASSERT_TRUE(
        live.ApplyBatch(ToggleBatch(live.dynamic(), rng, 20), &report).ok());
    if (report.published) ++published;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  server.Stop();

  EXPECT_GT(served.load(), 0u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, served.load());
  // The workload repeats (metric, k) pairs, so the warm generations serve
  // plenty of hits even though each handover drops the cache.
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.bad_requests, 0u);
}

// --- request-scoped observability -------------------------------------------

TEST(QueryServerTest, StatsJsonReadsTheRegistryHistograms) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(200, 800, 51));
    ServerOptions options;
    options.workers = 1;
    options.stats_tick_millis = 25;  // fast ticks so windows fill quickly
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());

    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    constexpr int kRequests = 40;
    QueryRequest request;
    QueryResponse response;
    for (int i = 0; i < kRequests; ++i) {
      request.metric = kAllMetrics[i % std::size(kAllMetrics)];
      request.k = static_cast<uint32_t>(i % 2);
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
    }
    // Let the ticker capture a sample after the last request so the
    // clamped widest window covers all of them.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::string json;
    ASSERT_TRUE(client.FetchStats(&json).ok());
    JsonValue doc;
    ASSERT_TRUE(ParseJson(json, &doc)) << json;

    const JsonValue* totals = doc.Find("server")->Find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_EQ(totals->Find("requests")->number, kRequests);
    EXPECT_GT(totals->Find("cache_hits")->number, 0.0);
    EXPECT_EQ(totals->Find("bad_requests")->number, 0.0);
    EXPECT_EQ(totals->Find("connections")->number, 1.0);

    // The lifetime quantiles are rendered from the registry's own
    // histogram, so the JSON p99 equals its Quantile (modulo %.6g
    // formatting).
    const JsonValue* total = doc.Find("total");
    ASSERT_NE(total, nullptr);
    const JsonValue* latency = total->Find("latency_us");
    EXPECT_EQ(latency->Find("count")->number, kRequests);
    const double registry_p99 =
        registry.GetHistogram("hcd_query_latency_seconds")->Quantile(0.99) *
        1e6;
    EXPECT_NEAR(latency->Find("p99_us")->number, registry_p99,
                registry_p99 * 1e-4 + 1e-9);

    // Every phase histogram saw every request, and the per-phase p99s are
    // rendered from the registry's phase histograms too.
    const JsonValue* phases = total->Find("phases_us");
    for (const char* phase :
         {"queue", "decode", "cache", "search", "encode"}) {
      ASSERT_NE(phases->Find(phase), nullptr) << phase;
      EXPECT_EQ(phases->Find(phase)->Find("count")->number, kRequests)
          << phase;
    }
    const double search_p99 =
        registry
            .GetHistogram("hcd_server_phase_seconds", "",
                          {{"phase", "search"}})
            ->Quantile(0.99) *
        1e6;
    EXPECT_NEAR(phases->Find("search")->Find("p99_us")->number, search_p99,
                search_p99 * 1e-4 + 1e-9);

    // The widest window clamps to the full uptime, so it has seen all the
    // requests and reproduces the lifetime quantiles (same observations).
    const JsonValue* windows = doc.Find("windows");
    ASSERT_NE(windows, nullptr);
    ASSERT_FALSE(windows->array.empty());
    const JsonValue* widest = nullptr;
    for (const JsonValue& window : windows->array) {
      if (window.Find("ticks")->number == 60.0) widest = &window;
    }
    ASSERT_NE(widest, nullptr);
    const JsonValue* window_latency = widest->Find("latency_us");
    EXPECT_EQ(window_latency->Find("count")->number, kRequests);
    EXPECT_NEAR(window_latency->Find("p99_us")->number, registry_p99,
                registry_p99 * 1e-4 + 1e-9);
    EXPECT_GT(widest->Find("qps")->number, 0.0);
    EXPECT_EQ(widest->Find("error_rate")->number, 0.0);

    server.Stop();
    EXPECT_GE(server.stats().stats_requests, 1u);
  }
  registry.Uninstall();
}

TEST(QueryServerTest, SlowLogRecordsEveryRequestWithExactPhaseSums) {
  const std::string path = ::testing::TempDir() + "/hcd_server_slow.jsonl";
  std::remove(path.c_str());
  LiveEngine live(ErdosRenyiGnm(200, 800, 53));
  ServerOptions options;
  options.workers = 1;
  options.slow_query_ms = 0.0;  // every request is "slow": log them all
  options.slow_log_path = path;
  options.slow_log_sample_every = 0;
  QueryServer server(&live.manager(), options);
  ASSERT_TRUE(server.Start().ok());

  QueryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  constexpr int kRequests = 24;
  QueryRequest request;
  QueryResponse response;
  for (int i = 0; i < kRequests; ++i) {
    request.metric = kAllMetrics[i % std::size(kAllMetrics)];
    request.k = static_cast<uint32_t>(i % 3);
    request.vertices.clear();
    if (i % 4 == 3) request.vertices = {static_cast<VertexId>(i)};
    ASSERT_TRUE(client.Query(request, &response).ok());
    ASSERT_EQ(response.status, ResponseStatus::kOk);
  }
  server.Stop();  // drains and closes the slow log

  ASSERT_NE(server.slow_log(), nullptr);
  EXPECT_EQ(server.slow_log()->appended(), kRequests);
  EXPECT_EQ(server.slow_log()->written(), kRequests);
  EXPECT_EQ(server.slow_log()->dropped(), 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    JsonValue doc;
    ASSERT_TRUE(ParseJson(line, &doc)) << line;
    EXPECT_EQ(doc.Find("reason")->str, "slow");
    EXPECT_EQ(doc.Find("hierarchy")->str, "core");
    // The consecutive-stamp design: phases sum EXACTLY to the total, not
    // within a tolerance.
    const JsonValue* phases = doc.Find("phase_ns");
    ASSERT_NE(phases, nullptr);
    const double sum = phases->Find("queue")->number +
                       phases->Find("decode")->number +
                       phases->Find("cache")->number +
                       phases->Find("search")->number +
                       phases->Find("encode")->number;
    EXPECT_EQ(doc.Find("total_ns")->number, sum) << line;
    // Queue wait is attributed to the connection's first request only.
    if (records > 0) {
      EXPECT_EQ(phases->Find("queue")->number, 0.0);
    }
    ++records;
  }
  EXPECT_EQ(records, kRequests);
  std::remove(path.c_str());
}

TEST(QueryServerTest, TraceSpansPairClientAndServerByTraceId) {
  Tracer tracer;
  tracer.Install();
  std::vector<std::string> client_ids, server_ids;
  {
    LiveEngine live(ErdosRenyiGnm(150, 600, 57));
    ServerOptions options;
    options.workers = 1;
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());

    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    QueryRequest request;
    QueryResponse response;
    constexpr int kRequests = 3;
    for (int i = 0; i < kRequests; ++i) {
      request.metric = kAllMetrics[i];
      // No explicit trace id: the traced client mints one per request.
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_EQ(response.status, ResponseStatus::kOk);
    }
    server.Stop();  // joins the workers: the tracer is quiescent now

    int phase_spans = 0;
    for (const TraceSpanRecord& record : tracer.CollectSpans()) {
      const std::string& name = record.span.name;
      if (name == "serve.decode" || name == "serve.cache" ||
          name == "serve.search" || name == "serve.encode") {
        ++phase_spans;
        ASSERT_FALSE(record.span.args.empty());
        EXPECT_EQ(record.span.args[0].key, "trace_id");
        continue;
      }
      if (name != "client.query" && name != "serve.request") continue;
      std::string id;
      bool sampled_seen = false;
      for (const TraceArg& arg : record.span.args) {
        if (arg.key == "trace_id") {
          ASSERT_TRUE(arg.is_text);
          id = arg.text;
        }
        if (arg.key == "sampled") sampled_seen = true;
      }
      ASSERT_FALSE(id.empty()) << name << " span without a trace id";
      EXPECT_NE(id, "0x0") << name;
      EXPECT_TRUE(sampled_seen) << name;
      (name == "client.query" ? client_ids : server_ids).push_back(id);
    }
    EXPECT_EQ(phase_spans, 4 * kRequests);
    ASSERT_EQ(client_ids.size(), static_cast<size_t>(kRequests));
  }
  tracer.Uninstall();

  // The server's request spans carry exactly the ids the client minted:
  // one Perfetto view pairs the two lanes of each query.
  std::sort(client_ids.begin(), client_ids.end());
  std::sort(server_ids.begin(), server_ids.end());
  EXPECT_EQ(client_ids, server_ids);
}

// After a run mixing answered queries, a malformed frame, and connections
// shed by Stop, every ServerStats field equals the installed registry's
// counter: stats() reads the registry's instruments, there is no second
// record to drift from them.
TEST(QueryServerTest, RegistryCountersMirrorServerStatsExactly) {
  MetricsRegistry registry;
  registry.Install();
  {
    LiveEngine live(ErdosRenyiGnm(150, 600, 59));
    ServerOptions options;
    options.workers = 1;
    options.max_pending = 64;
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());

    // Answered queries (one miss, one hit), then a clean close so the one
    // worker frees up for the malformed frame.
    {
      QueryClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      QueryRequest request;
      QueryResponse response;
      ASSERT_TRUE(client.Query(request, &response).ok());
      ASSERT_TRUE(client.Query(request, &response).ok());
      EXPECT_TRUE(response.cache_hit);
    }
    EXPECT_EQ(RawFrameStatus(server.port(), "\x63" "bogus"),
              static_cast<int>(ResponseStatus::kBadRequest));

    // Park the worker on a connection that stays open, then queue two more
    // connections behind it; Stop must shed them through the instrumented
    // path.
    QueryClient busy;
    ASSERT_TRUE(busy.Connect("127.0.0.1", server.port()).ok());
    QueryRequest request;
    request.metric = Metric::kConductance;  // distinct key: a cache miss
    QueryResponse response;
    ASSERT_TRUE(busy.Query(request, &response).ok());
    QueryClient parked_a, parked_b;
    ASSERT_TRUE(parked_a.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(parked_b.Connect("127.0.0.1", server.port()).ok());
    // connect() returning only proves the kernel backlog took them; wait
    // until the acceptor has actually queued both.
    for (int spin = 0; spin < 5000; ++spin) {
      JsonValue doc;
      ASSERT_TRUE(ParseJson(server.RenderStatsJson(), &doc));
      if (doc.Find("server")->Find("queue_depth")->number == 2.0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.Stop();
    // The parked connections received the explicit overload frame.
    QueryResponse shed_frame;
    ASSERT_TRUE(parked_a.ReadQueryResponse(&shed_frame).ok());
    EXPECT_EQ(shed_frame.status, ResponseStatus::kOverloaded);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.bad_requests, 1u);
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(registry.GetCounter("hcd_server_requests_total")->Value(),
              stats.requests);
    EXPECT_EQ(registry.GetCounter("hcd_server_cache_hits_total")->Value(),
              stats.cache_hits);
    EXPECT_EQ(registry.GetCounter("hcd_server_bad_requests_total")->Value(),
              stats.bad_requests);
    EXPECT_EQ(registry.GetCounter("hcd_server_overload_total")->Value(),
              stats.shed);
    EXPECT_EQ(stats.connections, 3u);
    EXPECT_EQ(registry.GetCounter("hcd_server_connections_total")->Value(),
              stats.connections);
    EXPECT_EQ(
        registry.GetHistogram("hcd_query_latency_seconds")->TotalCount(),
        stats.requests);
  }
  registry.Uninstall();
}

// --- wire fuzz --------------------------------------------------------------
// Seeded mutations of the frames the repo's own writers produce. Every
// payload must be rejected by the decoder it is offered to, or decode to a
// value that re-encodes to exactly its bytes. Every decoded request is
// then answered by ExecuteQuery over a core snapshot and a tabled truss
// index, and the answer is checked against the index.

/// One mutation of a payload: bit flips, a truncation, inserted or erased
/// bytes, one byte set to a boundary value, or a 32-bit window set to one.
std::string MutatePayload(const std::string& payload, Rng& rng) {
  std::string out = payload;
  const auto at = [&](size_t size) {
    return static_cast<size_t>(rng.Uniform(size + 1));
  };
  switch (rng.Uniform(6)) {
    case 0:  // one to three bit flips
      if (out.empty()) break;
      for (uint64_t k = 1 + rng.Uniform(3); k > 0; --k) {
        out[rng.Uniform(out.size())] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      break;
    case 1:  // truncation
      out.resize(at(out.size()));
      break;
    case 2:  // one to nine random bytes inserted
      for (uint64_t k = 1 + rng.Uniform(9); k > 0; --k) {
        out.insert(out.begin() + at(out.size()),
                   static_cast<char>(rng.Uniform(256)));
      }
      break;
    case 3: {  // one to nine bytes erased
      const size_t from = at(out.size());
      out.erase(from, 1 + rng.Uniform(9));
      break;
    }
    case 4: {  // one byte set to an enum or flag boundary
      if (out.empty()) break;
      constexpr uint8_t kEdges[] = {0, 1, 2, 3, 8, 9, 0x7f, 0x80, 0xff};
      out[rng.Uniform(out.size())] =
          static_cast<char>(kEdges[rng.Uniform(std::size(kEdges))]);
      break;
    }
    case 5: {  // one 32-bit window set to a count or id boundary
      if (out.size() < 4) break;
      constexpr uint32_t kEdges[] = {0,          1,          2,
                                     119,        120,        1400,
                                     1u << 18,   0x7fffffff, 0xffffffff};
      const uint32_t value = kEdges[rng.Uniform(std::size(kEdges))];
      const size_t pos = rng.Uniform(out.size() - 3);
      for (int i = 0; i < 4; ++i) {
        out[pos + i] = static_cast<char>((value >> (8 * i)) & 0xff);
      }
      break;
    }
  }
  return out;
}

/// Answers `request` the way a worker does, and checks the answer: a found
/// node names a node of the serving index at level >= k, with that index's
/// level, size and score, and an element answer does not depend on the
/// metric. Materializes the echoed vertices as the worker would.
void ExpectSaneAnswer(const QuerySnapshot& snapshot, const SearchIndex& truss,
                      const QueryRequest& request, SearchWorkspace* ws) {
  const QueryOutcome out = ExecuteQuery(&snapshot, &truss, 7, request);
  EXPECT_EQ(out.epoch, 7u);
  (void)CacheKeyFor(request);
  const SearchIndex* index =
      request.hierarchy == HierarchyKind::kCore    ? &snapshot.search_index()
      : request.hierarchy == HierarchyKind::kTruss ? &truss
                                                   : nullptr;
  if (index == nullptr) {
    EXPECT_FALSE(out.found);
    return;
  }
  if (request.hierarchy == HierarchyKind::kTruss) {
    QueryRequest by_density = request;
    by_density.metric = kAllMetrics[0];
    const QueryOutcome want = ExecuteQuery(&snapshot, &truss, 7, by_density);
    ASSERT_EQ(out.found, want.found);
    ASSERT_EQ(out.node, want.node);
    ASSERT_EQ(Bits(out.score), Bits(want.score));
  }
  if (!out.found) return;
  const FlatHcdIndex& flat = index->flat();
  ASSERT_LT(out.node, flat.NumNodes());
  EXPECT_GE(out.level, request.k);
  EXPECT_EQ(out.level, flat.Level(out.node));
  EXPECT_EQ(out.core_size, flat.CoreSize(out.node));
  EXPECT_EQ(Bits(out.score), Bits(index->Score(request.metric, out.node)));
  std::vector<VertexId> vertices;
  if (request.hierarchy == HierarchyKind::kTruss) {
    CommunityOf(flat, out.node, ws, &vertices);
    for (const VertexId v : vertices) ASSERT_LT(v, flat.NumGraphVertices());
  } else {
    EXPECT_EQ(snapshot.CoreVertices(out.node).size(), out.core_size);
  }
}

TEST(WireFuzz, MutatedFramesAreRejectedOrDecodeToValidValues) {
  constexpr int kMutationsPerFrame = 500;
  const Graph graph = ErdosRenyiGnm(120, 1400, 29);
  HcdEngine core_engine(&graph);
  const QuerySnapshot snapshot = core_engine.Snapshot();
  HcdEngine truss_engine(&graph, {.hierarchy = HierarchyKind::kTruss});
  const SearchIndex& truss = truss_engine.Searcher();

  // The metrics and stats documents a running server sends.
  std::string prometheus_text;
  std::string stats_json;
  {
    LiveEngine live{Graph(graph)};
    ServerOptions options;
    options.workers = 1;
    QueryServer server(&live.manager(), options);
    ASSERT_TRUE(server.Start().ok());
    QueryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    ASSERT_TRUE(client.FetchMetrics(&prometheus_text).ok());
    ASSERT_TRUE(client.FetchStats(&stats_json).ok());
    server.Stop();
  }

  std::vector<std::string> requests;
  {
    QueryRequest r;  // version 1, core, a vertex set
    r.metric = Metric::kConductance;
    r.k = 2;
    r.max_return_vertices = 8;
    r.vertices = {0, 5, 17};
    requests.push_back(EncodeQueryRequest(r));
    r.hierarchy = HierarchyKind::kTruss;  // element ids, last metric byte
    r.metric = kAllMetrics[std::size(kAllMetrics) - 1];
    r.vertices = {3};
    requests.push_back(EncodeQueryRequest(r));
    r.vertices.clear();  // version 2: the trace tail
    r.k = 0;
    r.trace_id = 0x0123456789abcdefULL;
    r.sampled = true;
    requests.push_back(EncodeQueryRequest(r));
    r.hierarchy = HierarchyKind::kNucleus;  // unserved kind
    requests.push_back(EncodeQueryRequest(r));
    requests.push_back(EncodeMetricsRequest());
    requests.push_back(EncodeStatsRequest());
  }
  std::vector<std::string> responses;
  {
    QueryResponse r;
    r.epoch = 42;
    r.cache_hit = true;
    r.found = true;
    r.level = 6;
    r.core_size = 123;
    r.score = 0.1 + 0.2;
    r.vertices = {3, 1, 4};
    responses.push_back(EncodeQueryResponse(r));
    responses.push_back(EncodeStatusOnlyResponse(ResponseStatus::kOverloaded));
    responses.push_back(EncodeMetricsResponse(prometheus_text));
    responses.push_back(EncodeMetricsResponse(stats_json));
  }

  Rng rng(20261021);
  SearchWorkspace ws;
  int rejected = 0;
  int decoded = 0;
  for (const std::string& seed : requests) {
    for (int i = 0; i < kMutationsPerFrame; ++i) {
      const std::string payload = MutatePayload(seed, rng);
      MessageType type;
      if (!DecodeRequestType(payload, &type)) {
        ++rejected;
        continue;
      }
      EXPECT_EQ(static_cast<uint8_t>(type), static_cast<uint8_t>(payload[0]));
      QueryRequest request;
      if (!DecodeQueryRequest(payload, &request)) {
        ++rejected;
        continue;
      }
      ++decoded;
      ASSERT_EQ(EncodeQueryRequest(request), payload) << "mutation " << i;
      ExpectSaneAnswer(snapshot, truss, request, &ws);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "mutation " << i;
    }
  }
  for (const std::string& seed : responses) {
    for (int i = 0; i < kMutationsPerFrame; ++i) {
      const std::string payload = MutatePayload(seed, rng);
      QueryResponse response;
      if (DecodeQueryResponse(payload, &response)) {
        ++decoded;
        ASSERT_EQ(EncodeQueryResponse(response), payload) << "mutation " << i;
      } else {
        ++rejected;
      }
      ResponseStatus status;
      std::string text;
      if (DecodeMetricsResponse(payload, &status, &text)) {
        ASSERT_EQ(EncodeStatusOnlyResponse(status) + text, payload)
            << "mutation " << i;
      }
    }
  }
  // The mutator does break frames, and what it leaves intact decodes.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(decoded, 200);
}

}  // namespace
}  // namespace hcd::server
