// Tests for the metrics registry: instrument identity, histogram
// bucketing, quantile estimation, concurrent observation, and both render
// formats.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

TEST(Counter, IncrementsMonotonically) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(c.Increment(), 1u);
  EXPECT_EQ(c.Increment(41), 42u);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0.0);
  g.Set(3.25);
  EXPECT_EQ(g.Value(), 3.25);
  g.Set(-1e300);
  EXPECT_EQ(g.Value(), -1e300);
}

// Add is the in-flight gauge's only update: concurrent +1/-1 pairs must
// net to exactly zero (the TSan job runs this).
TEST(Gauge, ConcurrentAddPairsNetToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPairs = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPairs; ++i) {
        g.Add(1.0);
        g.Add(-1.0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(g.Value(), 0.0);
  g.Add(2.5);
  EXPECT_EQ(g.Value(), 2.5);
}

TEST(Histogram, BucketBoundsArePowersOfTwoMicroseconds) {
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(10), 1024e-6);
}

TEST(Histogram, ObservationsLandInTheFirstCoveringBucket) {
  Histogram h;
  h.Observe(0.5e-6);   // <= 1 us -> bucket 0
  h.Observe(1e-6);     // boundary is inclusive -> bucket 0
  h.Observe(1.5e-6);   // bucket 1
  h.Observe(3e-3);     // 3 ms -> first bound >= is 4096 us = bucket 12
  h.Observe(1e9);      // beyond every finite bound -> overflow
  h.Observe(-1.0);     // clamps to zero -> bucket 0
  EXPECT_EQ(h.BucketCount(0), 3u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(12), 1u);
  EXPECT_EQ(h.BucketCount(Histogram::kNumFiniteBuckets), 1u);
  EXPECT_EQ(h.TotalCount(), 6u);
}

TEST(Histogram, SumAccumulatesAtNanosecondResolution) {
  Histogram h;
  h.Observe(1.5e-6);
  h.Observe(2.5e-6);
  EXPECT_NEAR(h.Sum(), 4e-6, 1e-9);
}

TEST(Histogram, ConcurrentObservesLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Observe(1e-6 * (i % 50));
    });
  }
  for (std::thread& worker : pool) worker.join();
  EXPECT_EQ(h.TotalCount(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// The log bucket a value of `seconds` lands in (first bound >= value),
// kNumFiniteBuckets for overflow — the granularity at which the estimator
// is allowed to disagree with an exact quantile.
size_t BucketIndexOf(double seconds) {
  for (size_t i = 0; i < Histogram::kNumFiniteBuckets; ++i) {
    if (seconds <= Histogram::BucketBound(i)) return i;
  }
  return Histogram::kNumFiniteBuckets;
}

TEST(HistogramQuantile, EmptyHistogramAnswersZero) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
}

TEST(HistogramQuantile, SingleBucketInterpolatesWithinItsBounds) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Observe(3e-6);  // all in (2us, 4us]
  for (const double q : {0.01, 0.5, 0.99, 1.0}) {
    const double estimate = h.Quantile(q);
    EXPECT_GT(estimate, 2e-6) << "q=" << q;
    EXPECT_LE(estimate, 4e-6) << "q=" << q;
  }
  // Interpolation is monotone in q within the bucket.
  EXPECT_LT(h.Quantile(0.1), h.Quantile(0.9));
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 4e-6);  // full rank reaches the bound
}

TEST(HistogramQuantile, DegenerateQClampsToTheExtremes) {
  Histogram h;
  h.Observe(0.5e-6);
  h.Observe(100e-6);
  // q <= 0 (and NaN) answer the minimum rank; q > 1 clamps to the max.
  EXPECT_LE(h.Quantile(0.0), 1e-6);
  EXPECT_LE(h.Quantile(-3.0), 1e-6);
  EXPECT_GT(h.Quantile(7.0), 64e-6);
}

TEST(HistogramQuantile, OverflowRankAnswersTheLargestFiniteBound) {
  Histogram h;
  h.Observe(1e-6);
  h.Observe(1e9);  // overflow bucket
  EXPECT_DOUBLE_EQ(h.Quantile(1.0),
                   Histogram::BucketBound(Histogram::kNumFiniteBuckets - 1));
}

// The estimator against ground truth: Quantile must land in the same log
// bucket as the exact nearest-rank value computed by the benchmark
// LatencyRecorder from the identical samples. (Bit-equality is impossible
// — the histogram only keeps bucket counts — but "within one bucket" is
// the precision kStats promises.)
TEST(HistogramQuantile, AgreesWithLatencyRecorderWithinOneBucket) {
  Histogram h;
  bench::LatencyRecorder exact;
  Rng rng(20260809);
  for (int i = 0; i < 2000; ++i) {
    // Log-uniform-ish spread over 1us..~100ms, the serving latency range.
    const double us =
        static_cast<double>(1 + rng.Uniform(100)) *
        static_cast<double>(uint64_t{1} << rng.Uniform(11));
    const double seconds = us * 1e-6;
    h.Observe(seconds);
    exact.Record(seconds);
  }
  for (const double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    const double estimate = h.Quantile(q);
    const double truth = exact.Quantile(q);
    EXPECT_EQ(BucketIndexOf(estimate), BucketIndexOf(truth))
        << "q=" << q << " estimate=" << estimate << " truth=" << truth;
    // And the estimate never leaves the truth's bucket bounds.
    const size_t bucket = BucketIndexOf(truth);
    const double lower =
        bucket == 0 ? 0.0 : Histogram::BucketBound(bucket - 1);
    EXPECT_GT(estimate, lower) << "q=" << q;
    EXPECT_LE(estimate, Histogram::BucketBound(bucket)) << "q=" << q;
  }
}

TEST(MetricsRegistry, SameNameAndLabelsReturnTheSameInstrument) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests_total", "help");
  Counter* b = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  Counter* labeled =
      registry.GetCounter("requests_total", "", {{"code", "500"}});
  EXPECT_NE(a, labeled);
  EXPECT_EQ(labeled,
            registry.GetCounter("requests_total", "", {{"code", "500"}}));
}

TEST(MetricsRegistryDeathTest, TypeConflictAborts) {
  MetricsRegistry registry;
  registry.GetCounter("shape_shifter");
  EXPECT_DEATH(registry.GetHistogram("shape_shifter"),
               "different type");
}

TEST(MetricsRegistry, InstallPublishesAndUninstallClears) {
  EXPECT_EQ(MetricsRegistry::Current(), nullptr);
  MetricsRegistry registry;
  registry.Install();
  EXPECT_EQ(MetricsRegistry::Current(), &registry);
  registry.Uninstall();
  EXPECT_EQ(MetricsRegistry::Current(), nullptr);
}

TEST(MetricsRegistry, PrometheusRendersAllKindsWithHelpAndType) {
  MetricsRegistry registry;
  registry.GetCounter("jobs_total", "Jobs started.")->Increment(3);
  registry.GetGauge("queue_depth", "Current queue depth.")->Set(1.5);
  registry.GetHistogram("latency_seconds", "Latency.")->Observe(1.5e-6);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP jobs_total Jobs started.\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE jobs_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("jobs_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds histogram\n"),
            std::string::npos);
  // 1.5 us falls past the 1 us bound: cumulative counts are 0 then 1, the
  // +Inf bucket equals _count.
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"1e-06\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count 1\n"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry
      .GetCounter("tricky_total", "",
                  {{"path", "a\\b\"c\nd"}})
      ->Increment();
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("tricky_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistry, HistogramBucketsAreCumulativeAcrossLabels) {
  MetricsRegistry registry;
  Histogram* fast =
      registry.GetHistogram("serve_seconds", "", {{"metric", "fast"}});
  Histogram* slow =
      registry.GetHistogram("serve_seconds", "", {{"metric", "slow"}});
  for (int i = 0; i < 5; ++i) fast->Observe(0.5e-6);
  for (int i = 0; i < 2; ++i) slow->Observe(3e-6);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(
      text.find("serve_seconds_bucket{metric=\"fast\",le=\"+Inf\"} 5\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("serve_seconds_bucket{metric=\"slow\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("serve_seconds_count{metric=\"fast\"} 5\n"),
            std::string::npos);
}

TEST(MetricsRegistry, JsonRendersAsStrictJson) {
  MetricsRegistry registry;
  registry.GetCounter("jobs_total", "", {{"kind", "quo\"ted"}})->Increment(2);
  registry.GetGauge("depth")->Set(0.25);
  Histogram* h = registry.GetHistogram("lat_seconds");
  h->Observe(0.5e-6);
  h->Observe(1e9);  // overflow bucket renders with a null bound

  JsonValue doc;
  ASSERT_TRUE(ParseJson(registry.RenderJson(), &doc));
  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array.size(), 3u);

  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const JsonValue& m : metrics->array) {
    const std::string& name = m.Find("name")->str;
    if (name == "jobs_total") {
      saw_counter = true;
      EXPECT_EQ(m.Find("type")->str, "counter");
      EXPECT_EQ(m.Find("value")->number, 2.0);
      EXPECT_EQ(m.Find("labels")->Find("kind")->str, "quo\"ted");
    } else if (name == "depth") {
      saw_gauge = true;
      EXPECT_EQ(m.Find("value")->number, 0.25);
    } else if (name == "lat_seconds") {
      saw_hist = true;
      EXPECT_EQ(m.Find("count")->number, 2.0);
      const JsonValue* buckets = m.Find("buckets");
      ASSERT_NE(buckets, nullptr);
      ASSERT_EQ(buckets->array.size(), 2u);  // only non-empty buckets
      EXPECT_EQ(buckets->array[0].array[0].number, 1e-6);
      EXPECT_EQ(buckets->array[0].array[1].number, 1.0);
      EXPECT_EQ(buckets->array[1].array[0].type, JsonValue::Type::kNull);
      EXPECT_EQ(buckets->array[1].array[1].number, 1.0);
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_hist);
}

TEST(MetricsRegistry, LookupCountTracksEveryResolution) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.lookup_count(), 0u);
  Counter* counter = registry.GetCounter("reqs_total", "requests");
  EXPECT_EQ(registry.lookup_count(), 1u);
  // Re-resolving the same instrument is still a lookup — the point of the
  // counter is to catch hot paths that resolve per call instead of once.
  EXPECT_EQ(registry.GetCounter("reqs_total", "requests"), counter);
  EXPECT_EQ(registry.lookup_count(), 2u);
  registry.GetGauge("depth", "queue depth");
  registry.GetHistogram("lat_seconds", "latency", {{"metric", "x"}});
  EXPECT_EQ(registry.lookup_count(), 4u);
  // Using an instrument is free: no lookups from the serve path.
  counter->Increment();
  registry.RenderPrometheus();
  EXPECT_EQ(registry.lookup_count(), 4u);
}

TEST(MetricsRegistry, EmptyRegistryRendersEmptyDocuments) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.RenderPrometheus(), "");
  JsonValue doc;
  ASSERT_TRUE(ParseJson(registry.RenderJson(), &doc));
  EXPECT_TRUE(doc.Find("metrics")->array.empty());
}

}  // namespace
}  // namespace hcd
