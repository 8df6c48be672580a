// Self-tests of the benchmark harness: the percentile rule, open-loop
// timing from the due time, the generator's lateness report, outcome
// accounting and the result line's shape.

#include "harness.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using hierdb::Status;
using hierdb::api::QueryResult;

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);   // 9.5 beyond p50
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);  // 10 beyond p50
  EXPECT_EQ(HighestSupportedPercentile(99), 50.0);  // 9.9 beyond p90
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(199), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
}

TEST(PercentileRule, SummaryStatesCountAndSupport) {
  const LatencySummary small = Summarize(Ramp(150));
  EXPECT_EQ(small.n, 150u);
  EXPECT_FALSE(small.p95_supported);
  EXPECT_EQ(small.top_pct, 90.0);
  EXPECT_NEAR(small.p50, 75.5, 1e-9);

  const LatencySummary big = Summarize(Ramp(201));
  EXPECT_EQ(big.n, 201u);
  EXPECT_TRUE(big.p95_supported);
  EXPECT_EQ(big.top_pct, 95.0);
  EXPECT_NEAR(big.p50, 101.0, 1e-9);
  EXPECT_NEAR(big.p95, 191.0, 1e-9);
  EXPECT_NEAR(big.top, big.p95, 1e-9);
}

TEST(PercentileRule, QuantileInterpolatesUnsortedInput) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_NEAR(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(Quantile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(Quantile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0, 1e-12);
}

TEST(Slices, MedianOverSlicesIgnoresAShortSlowEpisode) {
  // Five 1 s slices of 10 samples each at 2 ms; slice 3 is a slow episode
  // (20 ms). The pooled p95 lands in the episode; the sliced one does not.
  std::vector<Sample> s;
  for (int slice = 0; slice < 5; ++slice) {
    for (int i = 0; i < 10; ++i) {
      const double issued = 1000.0 * slice + 100.0 * i;
      const double lat = slice == 3 ? 20.0 : 2.0;
      s.push_back({issued, issued + lat, lat});
    }
  }
  EXPECT_DOUBLE_EQ(SlicedQuantile(s, 0.0, 5000.0, 5, 0.95), 2.0);
  EXPECT_DOUBLE_EQ(SlicedQuantile(s, 0.0, 5000.0, 1, 0.95), 20.0);
  // Ten results per 1 s slice, except the last, whose results land after
  // the window and are not counted.
  EXPECT_DOUBLE_EQ(SlicedRate(s, 0.0, 5000.0, 5), 10.0);
  s.push_back({4990.0, 5100.0, 110.0});
  EXPECT_DOUBLE_EQ(SlicedRate(s, 0.0, 5000.0, 5), 10.0);
}

TEST(Slices, EachSliceKeepsEnoughSamplesForItsPercentile) {
  EXPECT_EQ(SlicesFor(0, 200), 1u);
  EXPECT_EQ(SlicesFor(270, 200), 1u);   // pooled p95
  EXPECT_EQ(SlicesFor(599, 200), 2u);
  EXPECT_EQ(SlicesFor(270, 50), 5u);
  EXPECT_EQ(SlicesFor(2500, 200), 10u);  // capped
}

TEST(OpenLoop, LatencyRunsFromDueTime) {
  const OpenLoopSchedule s{1000.0, 250.0};
  EXPECT_DOUBLE_EQ(s.DueMs(0), 1000.0);
  EXPECT_DOUBLE_EQ(s.DueMs(250), 2000.0);
  // A query due at 1004 ms that the generator only sent at 1010 ms (a
  // stall) and whose result arrived at 1012 ms waited 8 ms, not 2.
  const double due = s.DueMs(1);
  EXPECT_DOUBLE_EQ(LatencyFromDueMs(due, 1012.0), 8.0);
}

TEST(OpenLoop, LatenessReport) {
  const LatenessReport r = SummarizeLateness({0.05, 0.1, 2.5, 0.2, 7.0});
  EXPECT_EQ(r.sent, 5u);
  EXPECT_NEAR(r.p50_ms, 0.2, 1e-12);
  EXPECT_NEAR(r.max_ms, 7.0, 1e-12);
  EXPECT_EQ(r.late_over_1ms, 2u);
  EXPECT_EQ(SummarizeLateness({}).sent, 0u);
}

hierdb::Result<QueryResult> Done(uint64_t rows, uint64_t checksum) {
  QueryResult qr;
  qr.report.has_result = true;
  qr.report.result_rows = rows;
  qr.report.result_checksum = checksum;
  return qr;
}

TEST(Outcomes, EveryFailureKindCountsInFailFrac) {
  const Digest ref{10, 77};
  Tally t;
  t.Add(Classify(Done(10, 77), ref));
  t.Add(Classify(Done(10, 78), ref));
  t.Add(Classify(Done(9, 77), ref));
  t.Add(Classify(Status::ResourceExhausted("queue full"), ref));
  t.Add(Classify(Status::DeadlineExceeded("late"), ref));
  t.Add(Classify(Status::Unavailable("node 1 silent"), ref));
  EXPECT_EQ(Classify(Done(10, 78), ref), Outcome::kWrongDigest);
  EXPECT_EQ(Classify(Status::ResourceExhausted("x"), ref), Outcome::kRefused);
  EXPECT_EQ(Classify(Status::DeadlineExceeded("x"), ref),
            Outcome::kDeadlineMissed);
  EXPECT_EQ(Classify(Status::Internal("x"), ref), Outcome::kFailed);
  EXPECT_EQ(t.attempted, 6u);
  EXPECT_EQ(t.ok, 1u);
  EXPECT_EQ(t.wrong_digest, 2u);
  EXPECT_EQ(t.refused, 1u);
  EXPECT_EQ(t.deadline_missed, 1u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_EQ(t.not_ok(), 5u);
  EXPECT_NEAR(t.fail_frac(), 5.0 / 6.0, 1e-12);
}

TEST(Outcomes, ResultWithoutDigestIsWrong) {
  QueryResult qr;  // has_result false: nothing to compare
  EXPECT_EQ(Classify(qr, Digest{0, 0}), Outcome::kWrongDigest);
}

TEST(ResultLine, ContractShapeWithFullPrecision) {
  const std::string line =
      ResultLine(true, 12, 1, {{"qps", "1/s", 0.1},
                               {"setup_s", "s", 0.5}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"qps\": {\"value\": 0.10000000000000001, "
            "\"unit\": \"1/s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
            "\"s\"}}}");
}

TEST(MetricTables, NamesAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  bool has_setup = false;
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& m : *table) {
      EXPECT_TRUE(seen.insert(m.name).second) << m.name;
      EXPECT_LE(std::string(m.name).size(), 64u);
      EXPECT_TRUE(std::string(m.better) == "higher" ||
                  std::string(m.better) == "lower");
      EXPECT_EQ(FindMetric(m.name), &m);
      if (std::string(m.name) == "setup_s") {
        has_setup = std::string(m.unit) == "s" &&
                    std::string(m.better) == "lower";
      }
    }
  }
  EXPECT_TRUE(has_setup);
  EXPECT_EQ(FindMetric("no_such_metric"), nullptr);
}

}  // namespace
}  // namespace perfbench
