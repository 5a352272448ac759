// Tests for the shared benchmark helpers: the LatencyRecorder that
// hcd_cli serve-bench reports quantiles through (the nearest-rank
// definition at the tiny sample counts where off-by-one indexing would
// bite, 0, 1 and 2 samples, and Merge across per-worker recorders), and
// the scaling figures' ThreadSweep.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <vector>

namespace hcd::bench {
namespace {

TEST(LatencyRecorder, EmptyReportsZero) {
  LatencyRecorder recorder;
  EXPECT_EQ(recorder.Count(), 0u);
  EXPECT_DOUBLE_EQ(recorder.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(recorder.P50(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.P99(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.Quantile(1.0), 0.0);
}

TEST(LatencyRecorder, OneSampleAnswersEveryQuantile) {
  LatencyRecorder recorder;
  recorder.Record(0.25);
  EXPECT_EQ(recorder.Count(), 1u);
  EXPECT_DOUBLE_EQ(recorder.Quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(recorder.P50(), 0.25);
  EXPECT_DOUBLE_EQ(recorder.P95(), 0.25);
  EXPECT_DOUBLE_EQ(recorder.P99(), 0.25);
  EXPECT_DOUBLE_EQ(recorder.Quantile(1.0), 0.25);
}

TEST(LatencyRecorder, TwoSamplesNearestRank) {
  LatencyRecorder recorder;
  recorder.Record(2.0);  // insertion order must not matter
  recorder.Record(1.0);
  EXPECT_EQ(recorder.Count(), 2u);
  // Nearest rank: ceil(0.5 * 2) = 1st smallest -> the lower sample;
  // every quantile above 0.5 lands on the 2nd.
  EXPECT_DOUBLE_EQ(recorder.P50(), 1.0);
  EXPECT_DOUBLE_EQ(recorder.P95(), 2.0);
  EXPECT_DOUBLE_EQ(recorder.P99(), 2.0);
  EXPECT_DOUBLE_EQ(recorder.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(recorder.Quantile(1.0), 2.0);
}

TEST(LatencyRecorder, HundredSamplesHitExactRanks) {
  LatencyRecorder recorder;
  for (int i = 100; i >= 1; --i) recorder.Record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(recorder.P50(), 50.0);
  EXPECT_DOUBLE_EQ(recorder.P95(), 95.0);
  EXPECT_DOUBLE_EQ(recorder.P99(), 99.0);
  EXPECT_DOUBLE_EQ(recorder.Quantile(1.0), 100.0);
}

TEST(LatencyRecorder, MergeCombinesWorkerRecorders) {
  LatencyRecorder a;
  LatencyRecorder b;
  a.Record(1.0);
  a.Record(3.0);
  b.Record(2.0);
  b.Record(4.0);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 4u);
  EXPECT_DOUBLE_EQ(a.P50(), 2.0);
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 4.0);
  // Merging an empty recorder changes nothing.
  a.Merge(LatencyRecorder());
  EXPECT_EQ(a.Count(), 4u);
}

TEST(LatencyRecorder, QuantilesStayCorrectAfterRecordingPastAReport) {
  // The sort-once memoization must re-dirty on Record/Merge: a quantile
  // read, more samples, then another read has to see the new data, not
  // the stale sorted order.
  LatencyRecorder recorder;
  recorder.Record(5.0);
  recorder.Record(1.0);
  EXPECT_DOUBLE_EQ(recorder.P50(), 1.0);  // sorts and memoizes here
  recorder.Record(0.5);
  recorder.Record(0.25);
  EXPECT_DOUBLE_EQ(recorder.P50(), 0.5);
  EXPECT_DOUBLE_EQ(recorder.Quantile(1.0), 5.0);

  LatencyRecorder other;
  other.Record(0.1);
  other.Finalize();
  recorder.Merge(other);  // merge after both sides finalized
  EXPECT_DOUBLE_EQ(recorder.Quantile(0.0), 0.1);
  EXPECT_EQ(recorder.Count(), 5u);
}

TEST(LatencyRecorder, FinalizeIsIdempotent) {
  LatencyRecorder recorder;
  recorder.Record(2.0);
  recorder.Record(1.0);
  recorder.Finalize();
  recorder.Finalize();
  EXPECT_DOUBLE_EQ(recorder.P50(), 1.0);
  EXPECT_DOUBLE_EQ(recorder.P99(), 2.0);
}

TEST(ThreadSweep, DoublesFromOneAndEndsAtTheHardwareThreads) {
  const std::vector<int> sweep = ThreadSweep();
  ASSERT_FALSE(sweep.empty());
  EXPECT_EQ(sweep.front(), 1);
  EXPECT_EQ(sweep.back(), HardwareThreads());
  for (size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LT(sweep[i - 1], sweep[i]) << "position " << i;
    if (i + 1 < sweep.size()) {
      EXPECT_EQ(sweep[i], 2 * sweep[i - 1]) << "position " << i;
    }
  }
}

}  // namespace
}  // namespace hcd::bench
