#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/check.h"
#include "common/random.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "tests/test_util.h"

namespace hcd {
namespace {

using hcd::testing::JsonValue;
using hcd::testing::ParseJson;

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(Status, CodeNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
}

Status ReturnsEarly(bool fail) {
  HCD_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::Ok());
  return Status::NotFound("reached the end");
}

TEST(Status, ReturnIfErrorMacro) {
  EXPECT_EQ(ReturnsEarly(true).code(), StatusCode::kInternal);
  EXPECT_EQ(ReturnsEarly(false).code(), StatusCode::kNotFound);
}

TEST(Check, PassingConditionsAreSilent) {
  HCD_CHECK(1 + 1 == 2);
  HCD_CHECK_EQ(4, 4);
  HCD_CHECK_LT(1, 2);
  HCD_CHECK_GE(2, 2);
}

TEST(CheckDeathTest, FailureAborts) {
  EXPECT_DEATH(HCD_CHECK(false) << "context", "HCD_CHECK failed");
  EXPECT_DEATH(HCD_CHECK_EQ(1, 2), "1 vs 2");
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool all_equal = true;
  bool any_diff_from_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t xa = a.Next64();
    all_equal &= xa == b.Next64();
    any_diff_from_c |= xa != c.Next64();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_from_c);
}

TEST(Rng, UniformStaysInBoundsAndCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = rng.Uniform(10);
    ASSERT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double x = rng.UniformDouble();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(JsonEscape, QuotesBackslashesAndNamedControls) {
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line1\nline2\r\ttab"), "line1\\nline2\\r\\ttab");
}

TEST(JsonEscape, UnnamedControlCharactersUseUnicodeEscapes) {
  EXPECT_EQ(JsonEscape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(JsonEscape(std::string("a\x1f" "b")), "a\\u001fb");
  // NUL embedded in a std::string is escaped, not truncated.
  EXPECT_EQ(JsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(JsonEscape, EscapedOutputParsesBackToTheOriginal) {
  const std::string nasty = "q\"b\\n\nr\rt\t\x02 end";
  JsonValue doc;
  ASSERT_TRUE(ParseJson("\"" + JsonEscape(nasty) + "\"", &doc));
  EXPECT_EQ(doc.str, nasty);
}

TEST(StageTelemetry, ZeroRecordSinkRendersAnEmptyReport) {
  StageTelemetry telemetry;
  EXPECT_EQ(telemetry.TotalSeconds(), 0.0);
  EXPECT_EQ(telemetry.PeakStage(), "");
  EXPECT_EQ(telemetry.CountStage("anything"), 0u);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(telemetry.ToJson(), &doc));
  EXPECT_TRUE(doc.Find("stages")->array.empty());
  EXPECT_EQ(doc.Find("total_seconds")->number, 0.0);
  EXPECT_EQ(doc.Find("peak_stage")->str, "");
}

TEST(StageTelemetry, PeakStageTieKeepsTheFirstRecord) {
  StageTelemetry telemetry;
  telemetry.RecordStage({"first", 2.0, {}});
  telemetry.RecordStage({"second", 2.0, {}});
  telemetry.RecordStage({"small", 1.0, {}});
  EXPECT_EQ(telemetry.PeakStage(), "first");
  EXPECT_DOUBLE_EQ(telemetry.TotalSeconds(), 5.0);
}

TEST(StageTelemetry, TotalSecondsCountsOnlyOutermostStages) {
  StageTelemetry telemetry;
  telemetry.RecordStage({"load.read", 1.0, {}, /*depth=*/1});
  telemetry.RecordStage({"load", 3.0, {}, /*depth=*/0});
  telemetry.RecordStage({"decomposition", 2.0, {}, /*depth=*/0});
  EXPECT_DOUBLE_EQ(telemetry.TotalSeconds(), 5.0);
  EXPECT_EQ(telemetry.PeakStage(), "load");
  // Depth shapes the total only; the report does not render it.
  EXPECT_EQ(telemetry.ToJson().find("depth"), std::string::npos);
}

TEST(StageTelemetry, ToJsonSurvivesHostileStageAndCounterNames) {
  StageTelemetry telemetry;
  StageRecord record;
  record.stage = "load \"fast\"\npath\\2";
  record.seconds = 0.125;
  record.counters.push_back({"edges\t\"in\"", 12345});
  telemetry.RecordStage(record);
  telemetry.RecordStage({"clean", 0.5, {}});

  JsonValue doc;
  ASSERT_TRUE(ParseJson(telemetry.ToJson(), &doc));
  const JsonValue* stages = doc.Find("stages");
  ASSERT_EQ(stages->array.size(), 2u);
  EXPECT_EQ(stages->array[0].Find("name")->str, record.stage);
  EXPECT_EQ(stages->array[0].Find("seconds")->number, 0.125);
  const JsonValue* counters = stages->array[0].Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("edges\t\"in\"")->number, 12345.0);
  // Records without counters omit the object entirely.
  EXPECT_EQ(stages->array[1].Find("counters"), nullptr);
  EXPECT_EQ(doc.Find("peak_stage")->str, "clean");
}

TEST(StageTelemetry, CountStageAndStageSecondsMatchLabels) {
  StageTelemetry telemetry;
  telemetry.RecordStage({"serve", 1.0, {}});
  telemetry.RecordStage({"serve", 2.5, {}});
  telemetry.RecordStage({"load", 4.0, {}});
  EXPECT_EQ(telemetry.CountStage("serve"), 2u);
  EXPECT_DOUBLE_EQ(telemetry.StageSeconds("serve"), 3.5);
  EXPECT_EQ(telemetry.CountStage("missing"), 0u);
  EXPECT_EQ(telemetry.StageSeconds("missing"), 0.0);
}

TEST(FiniteOrZero, PassesFiniteValuesAndZerosTheRest) {
  EXPECT_DOUBLE_EQ(FiniteOrZero(1.5), 1.5);
  EXPECT_DOUBLE_EQ(FiniteOrZero(0.0), 0.0);
  EXPECT_DOUBLE_EQ(FiniteOrZero(-2.25), -2.25);
  // The exact shapes a degenerate bench produces: N/0, 0/0, and overflow.
  EXPECT_DOUBLE_EQ(FiniteOrZero(1.0 / 0.0), 0.0);
  EXPECT_DOUBLE_EQ(FiniteOrZero(-1.0 / 0.0), 0.0);
  EXPECT_DOUBLE_EQ(FiniteOrZero(0.0 / 0.0), 0.0);
  EXPECT_DOUBLE_EQ(FiniteOrZero(std::numeric_limits<double>::quiet_NaN()),
                   0.0);
  EXPECT_DOUBLE_EQ(FiniteOrZero(std::numeric_limits<double>::max() * 2.0),
                   0.0);
  EXPECT_DOUBLE_EQ(FiniteOrZero(std::numeric_limits<double>::min()),
                   std::numeric_limits<double>::min());  // subnormal-adjacent
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  double s = t.Seconds();
  EXPECT_GE(s, 0.0);
  EXPECT_LT(s, 10.0);
  EXPECT_NEAR(t.Millis(), t.Seconds() * 1000, 5.0);
  t.Reset();
  EXPECT_LT(t.Seconds(), 1.0);
}

}  // namespace
}  // namespace hcd
