// Tests for the span tracer: recording semantics, thread attribution,
// Chrome JSON export, the ScopedStage bridge to the two process-wide
// backends, and the contract that the disabled path performs no allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "common/trace.h"
#include "parallel/omp_utils.h"
#include "tests/test_util.h"

// Allocation counter for the no-allocation contract test. Interposing the
// global operator new in the test binary counts every heap allocation made
// anywhere in the process, so bracketing a code region with readings proves
// it allocation-free.
namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hcd {
namespace {

using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

TEST(Tracer, RecordsSpansWithExplicitTracer) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    outer.AddArg("items", 7);
    { ScopedSpan inner(&tracer, "inner"); }
  }
  const std::vector<TraceSpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are recorded at completion, so the nested span lands first.
  EXPECT_EQ(spans[0].span.name, "inner");
  EXPECT_EQ(spans[1].span.name, "outer");
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  // The inner span lies within the outer one on the tracer's timeline.
  const TraceSpan& inner = spans[0].span;
  const TraceSpan& outer = spans[1].span;
  EXPECT_GE(inner.ts_ns, outer.ts_ns);
  EXPECT_LE(inner.ts_ns + inner.dur_ns, outer.ts_ns + outer.dur_ns);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].key, "items");
  EXPECT_EQ(outer.args[0].value, 7u);
  EXPECT_FALSE(outer.args[0].is_text);
}

TEST(Tracer, InstallPublishesAndUninstallClears) {
  EXPECT_EQ(Tracer::Current(), nullptr);
  {
    Tracer tracer;
    tracer.Install();
    EXPECT_EQ(Tracer::Current(), &tracer);
    { ScopedSpan span("installed"); }
    tracer.Uninstall();
    EXPECT_EQ(Tracer::Current(), nullptr);
    EXPECT_EQ(tracer.NumSpans(), 1u);
  }
  // After uninstall the instrumentation is inert again.
  { ScopedSpan span("not-recorded"); }
  EXPECT_EQ(Tracer::Current(), nullptr);
}

TEST(Tracer, DisabledPathDoesNotAllocate) {
  ASSERT_EQ(Tracer::Current(), nullptr);
  ASSERT_EQ(MetricsRegistry::Current(), nullptr);
  const uint64_t before = g_alloc_count.load();
  for (int i = 0; i < 1000; ++i) {
    ScopedSpan span("disabled");
    span.AddArg("i", static_cast<uint64_t>(i));
    span.AddArg("name", "text");
    ScopedStage stage("disabled-stage");
    stage.AddCounter("i", static_cast<uint64_t>(i));
    // A name too long for the small-string buffer costs nothing either.
    ScopedStage long_stage("disabled-stage-with-a-long-name");
  }
  const uint64_t after = g_alloc_count.load();
  EXPECT_EQ(after, before) << "disabled instrumentation must not allocate";
}

TEST(Tracer, ThreadsGetDistinctTraceIds) {
  Tracer tracer;
  constexpr int kThreads = 4;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&tracer, t] {
      for (int i = 0; i <= t; ++i) {
        ScopedSpan span(&tracer, "work");
        span.AddArg("thread", static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  EXPECT_EQ(tracer.NumThreadsSeen(), static_cast<size_t>(kThreads));
  const std::vector<TraceSpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 1u + 2 + 3 + 4);
  std::vector<uint32_t> tids;
  for (const TraceSpanRecord& r : spans) tids.push_back(r.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
}

TEST(Tracer, RecordsInsideOpenMpRegions) {
  Tracer tracer;
  tracer.Install();
  {
    ThreadCountGuard guard(3);
    ParallelFor(0, 64, [&](int i) {
      ScopedSpan span("omp.item");
      span.AddArg("i", static_cast<uint64_t>(i));
    });
  }
  tracer.Uninstall();
  EXPECT_EQ(tracer.NumSpans(), 64u);
  EXPECT_GE(tracer.NumThreadsSeen(), 1u);
}

TEST(Tracer, FullBufferDropsAndCounts) {
  Tracer tracer(/*max_spans_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span(&tracer, "capped");
  }
  EXPECT_EQ(tracer.NumSpans(), 4u);
  EXPECT_EQ(tracer.TotalDropped(), 6u);
}

/// Dropped-span accounting reaches the metrics registry exactly once per
/// drop: Drain (and PublishDroppedSpans directly) push only the delta
/// since the previous publish, so repeated exports never double-count.
TEST(Tracer, DrainPublishesDropCountsOnceToTheRegistry) {
  MetricsRegistry registry;
  registry.Install();
  {
    Tracer tracer(/*max_spans_per_thread=*/4);
    for (int i = 0; i < 10; ++i) {
      ScopedSpan span(&tracer, "capped");
    }
    EXPECT_EQ(tracer.TotalDropped(), 6u);

    Counter* dropped = registry.GetCounter("hcd_trace_dropped_spans_total");
    EXPECT_EQ(dropped->Value(), 0u);  // nothing published yet
    tracer.Drain();
    EXPECT_EQ(dropped->Value(), 6u);
    // A second drain with no new drops publishes nothing more.
    tracer.Drain();
    EXPECT_EQ(dropped->Value(), 6u);

    // New drops after the drain publish only their own delta. The buffer
    // kept its 4-slot capacity and Drain emptied it, so of 5 spans one is
    // dropped.
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(&tracer, "capped-again");
    }
    tracer.PublishDroppedSpans();
    EXPECT_EQ(dropped->Value(), 7u);
    EXPECT_EQ(tracer.TotalDropped(), 7u);
  }
  registry.Uninstall();
}

/// Without a registry the publish is a no-op that does NOT advance the
/// watermark: drops that happened while no registry was installed still
/// reach a registry installed later.
TEST(Tracer, DropsSurviveUntilARegistryExists) {
  Tracer tracer(/*max_spans_per_thread=*/2);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&tracer, "early");
  }
  tracer.PublishDroppedSpans();  // no registry: nothing to publish into
  MetricsRegistry registry;
  registry.Install();
  tracer.PublishDroppedSpans();
  EXPECT_EQ(registry.GetCounter("hcd_trace_dropped_spans_total")->Value(),
            3u);
  registry.Uninstall();
}

TEST(Tracer, DrainResetsButKeepsRecording) {
  Tracer tracer;
  { ScopedSpan span(&tracer, "one"); }
  { ScopedSpan span(&tracer, "two"); }
  std::vector<TraceSpanRecord> drained = tracer.Drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(tracer.NumSpans(), 0u);
  { ScopedSpan span(&tracer, "three"); }
  drained = tracer.Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].span.name, "three");
}

/// Chrome JSON export parses as strict JSON, and every event carries the
/// exact ts/dur/tid of the span it was rendered from (µs with ns decimals).
TEST(Tracer, ChromeJsonRoundTripsSpans) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "na\"me with \\ and \nnewline");
    span.AddArg("count", 42);
    span.AddArg("label", "tri\"cky\\text");
  }
  { ScopedSpan span(&tracer, "plain"); }
  const std::vector<TraceSpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 2u);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(tracer.ToChromeJson(), &doc));
  const JsonValue* unit = doc.Find("displayTimeUnit");
  ASSERT_NE(unit, nullptr);
  EXPECT_EQ(unit->str, "ns");
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array.size(), spans.size());

  for (size_t i = 0; i < spans.size(); ++i) {
    const JsonValue& event = events->array[i];
    EXPECT_EQ(event.Find("name")->str, spans[i].span.name);
    EXPECT_EQ(event.Find("ph")->str, "X");
    EXPECT_EQ(event.Find("cat")->str, "hcd");
    EXPECT_EQ(static_cast<uint32_t>(event.Find("tid")->number),
              spans[i].tid);
    // ts/dur are microseconds with three decimals; equality in ns after
    // scaling is exact for the magnitudes a test produces.
    EXPECT_DOUBLE_EQ(event.Find("ts")->number * 1000.0,
                     static_cast<double>(spans[i].span.ts_ns));
    EXPECT_DOUBLE_EQ(event.Find("dur")->number * 1000.0,
                     static_cast<double>(spans[i].span.dur_ns));
  }
  const JsonValue* args = events->array[0].Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("count")->number, 42.0);
  EXPECT_EQ(args->Find("label")->str, "tri\"cky\\text");
}

TEST(Tracer, WriteChromeJsonFileParses) {
  Tracer tracer;
  { ScopedSpan span(&tracer, "file-span"); }
  const std::string path =
      ::testing::TempDir() + "/hcd_trace_roundtrip.json";
  ASSERT_TRUE(tracer.WriteChromeJson(path).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(buffer.str(), &doc));
  ASSERT_EQ(doc.Find("traceEvents")->array.size(), 1u);
  EXPECT_EQ(doc.Find("traceEvents")->array[0].Find("name")->str, "file-span");
  std::remove(path.c_str());
}

TEST(Tracer, WriteChromeJsonReportsIoError) {
  Tracer tracer;
  EXPECT_FALSE(tracer.WriteChromeJson("/nonexistent-dir/trace.json").ok());
}

/// The ScopedStage bridge feeds both backends from one scope: the tracer
/// gets a span whose args are the stage counters, and the registry the
/// stage's wall time, run and counters.
TEST(ScopedStageBridge, ReportsToTracerAndRegistry) {
  Tracer tracer;
  tracer.Install();
  testing::StageProbe probe;
  {
    ScopedStage stage("bridged");
    stage.AddCounter("widgets", 5);
  }
  probe.Stop();
  tracer.Uninstall();

  const std::vector<TraceSpanRecord> spans = tracer.CollectSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].span.name, "bridged");
  ASSERT_EQ(spans[0].span.args.size(), 1u);
  EXPECT_EQ(spans[0].span.args[0].key, "widgets");
  EXPECT_EQ(spans[0].span.args[0].value, 5u);

  EXPECT_EQ(probe.Runs("bridged"), 1u);
  EXPECT_EQ(probe.Observations("bridged"),
            1u);
  EXPECT_EQ(probe.Counter("bridged", "widgets"), 5u);
}

/// A registry alone records the stage: runs, wall-time observations and
/// counters add up across runs, and a stage that never ran reads zero.
TEST(ScopedStageBridge, RegistryAloneSumsRunsSecondsAndCounters) {
  testing::StageProbe probe;
  for (uint64_t i = 1; i <= 3; ++i) {
    ScopedStage stage("repeated");
    stage.AddCounter("items", i);
  }
  probe.Stop();
  EXPECT_EQ(probe.Runs("repeated"), 3u);
  EXPECT_EQ(probe.Counter("repeated", "items"), 1u + 2 + 3);
  EXPECT_EQ(probe.Observations("repeated"),
            3u);
  EXPECT_EQ(probe.Runs("never"), 0u);
  EXPECT_EQ(probe.Seconds("never"), 0.0);
  // Reading a stage that never ran creates no series.
  EXPECT_EQ(probe.registry().RenderJson().find("never"), std::string::npos);
}

/// Stage and counter names become label values, so the registry's JSON
/// view (hcd_cli --json's "telemetry") must escape them.
TEST(ScopedStageBridge, HostileStageAndCounterNamesRenderAsJson) {
  const std::string stage_name = "load \"fast\"\npath\\2";
  const std::string counter_name = "edges\t\"in\"";
  testing::StageProbe probe;
  {
    ScopedStage stage(stage_name);
    stage.AddCounter(counter_name, 12345);
  }
  probe.Stop();
  JsonValue doc;
  ASSERT_TRUE(ParseJson(probe.registry().RenderJson(), &doc));
  bool found_counter = false;
  for (const JsonValue& m : doc.Find("metrics")->array) {
    EXPECT_EQ(m.Find("labels")->Find("stage")->str, stage_name);
    if (m.Find("name")->str != "hcd_stage_counter_total") continue;
    EXPECT_EQ(m.Find("labels")->Find("counter")->str, counter_name);
    EXPECT_EQ(m.Find("value")->number, 12345.0);
    found_counter = true;
  }
  EXPECT_TRUE(found_counter);
}

/// Without a registry, a tracer alone still activates the stage (spans
/// appear).
TEST(ScopedStageBridge, TracerAloneActivatesStage) {
  Tracer tracer;
  tracer.Install();
  { ScopedStage stage("tracer-only"); }
  tracer.Uninstall();
  ASSERT_EQ(tracer.NumSpans(), 1u);
  EXPECT_EQ(tracer.CollectSpans()[0].span.name, "tracer-only");
}

/// Stages finished on many threads at once, nested and not, are all
/// counted in the registry, with every counter increment.
TEST(ScopedStageBridge, StagesFromConcurrentThreadsAreAllRecorded) {
  testing::StageProbe probe;
  constexpr int kThreads = 8;
  constexpr int kStagesPerThread = 50;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (int i = 0; i < kStagesPerThread; ++i) {
        ScopedStage outer("outer");
        ScopedStage inner("inner");
        inner.AddCounter("one", 1);
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  probe.Stop();

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kStagesPerThread;
  EXPECT_EQ(probe.Runs("outer"), expected);
  EXPECT_EQ(probe.Runs("inner"), expected);
  EXPECT_EQ(probe.Counter("inner", "one"), expected);
  EXPECT_EQ(probe.Observations("outer"),
            expected);
}

}  // namespace
}  // namespace hcd
