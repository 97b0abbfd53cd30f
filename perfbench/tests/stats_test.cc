// Tests of the benchmark's own arithmetic: the percentile and sample-count
// rule, self-time subtraction, the open-loop schedule and lateness, and
// failed_frac accounting.

#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

TEST(PercentileTest, NearestRankOnKnownSamples) {
  const std::vector<double> v = OneTo(1000);
  EXPECT_EQ(Percentile(v, 0.5), 500.0);
  EXPECT_EQ(Percentile(v, 0.99), 990.0);  // not 991: 0.99 * 1000 is 990
  EXPECT_EQ(Percentile(v, 0.999), 999.0);
  EXPECT_EQ(Percentile(v, 1.0), 1000.0);
  EXPECT_EQ(Percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(PercentileTest, IgnoresInputOrder) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3.0);
  EXPECT_EQ(Percentile(v, 0.8), 4.0);
}

TEST(PercentileTest, SampleRuleNeedsTenBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(SupportsPercentile(1000, 0.99));
  EXPECT_FALSE(SupportsPercentile(999, 0.99));
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.999), 10000u);
  EXPECT_FALSE(SupportsPercentile(0, 0.5));
}

TEST(PercentileTest, HighestSupportedPercentile) {
  EXPECT_EQ(HighestSupportedPercentile(5), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
}

TEST(PercentileTest, FailedRequestsLandInTheTail) {
  std::vector<double> v = OneTo(1000);
  for (size_t i = 0; i < 11; ++i) {
    v[i] = std::numeric_limits<double>::infinity();
  }
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
  EXPECT_FALSE(std::isinf(Percentile(v, 0.5)));
}

TEST(WindowTest, QuietHalfIgnoresStalledWindows) {
  std::vector<std::vector<double>> windows(5, OneTo(1000));
  for (size_t w : {1, 3}) {
    for (double& v : windows[w]) v *= 50;  // host stalls in 2 of 5 windows
  }
  // The three quiet windows are pooled: 3000 samples of 1..1000.
  EXPECT_EQ(QuietHalfPercentile(windows, 0.99), 990.0);
  EXPECT_EQ(QuietHalfPercentile(windows, 0.5), 500.0);
  const std::vector<std::vector<double>> ramp = {{1, 2}, {30, 40}, {5, 6}};
  EXPECT_EQ(QuietHalfPercentile(ramp, 0.5), 2.0);  // pools {1,2,5,6}
  EXPECT_EQ(QuietHalfPercentile({}, 0.5), 0.0);
}

TEST(WindowTest, QuietHalfKeepsEveryFailure) {
  const double inf = std::numeric_limits<double>::infinity();
  // 40 failures in one window of five. The window ranks on its answered
  // requests (and is left out of the pool), but all 40 failures join the
  // 3000 pooled samples: more than 1% of the pool, so p99 is a failure.
  std::vector<std::vector<double>> windows(5, OneTo(1000));
  for (size_t i = 0; i < 40; ++i) windows[2][i] = inf;
  EXPECT_TRUE(std::isinf(QuietHalfPercentile(windows, 0.99)));
  // Failures in a slow window that is not pooled are added back too.
  windows = std::vector<std::vector<double>>(3, OneTo(1000));
  for (double& v : windows[1]) v *= 50;
  windows[1][0] = inf;
  // Pool: 2000 answered samples (two copies of 1..1000) plus 1 failure;
  // rank ceil(0.5 * 2001) = 1001 is the first 501.
  EXPECT_EQ(QuietHalfPercentile(windows, 0.5), 501.0);
  for (size_t i = 1; i < 30; ++i) windows[1][i] = inf;
  EXPECT_TRUE(std::isinf(QuietHalfPercentile(windows, 0.99)));
}

TEST(WindowTest, QuietHalfRateAveragesTheFasterHalf) {
  EXPECT_DOUBLE_EQ(QuietHalfRate({100, 20, 98, 21, 102}), 100.0);
  EXPECT_DOUBLE_EQ(QuietHalfRate({7}), 7.0);
  EXPECT_DOUBLE_EQ(QuietHalfRate({}), 0.0);
}

TEST(WindowTest, PercentilePerWindow) {
  const std::vector<double> p99 =
      WindowPercentiles({OneTo(1000), OneTo(100)}, 0.99);
  EXPECT_EQ(p99, (std::vector<double>{990.0, 99.0}));
}

TEST(WindowTest, OddWindowCount) {
  EXPECT_EQ(OddWindowCount(0), 1u);
  EXPECT_EQ(OddWindowCount(1), 1u);
  EXPECT_EQ(OddWindowCount(4), 3u);
  EXPECT_EQ(OddWindowCount(7), 7u);
}

TEST(WindowTest, RatesPerWindow) {
  // 1 s windows from t=0: 3 queries in the first, 5 in the second, and
  // events before the start or past the last window are ignored.
  const std::vector<std::pair<int64_t, uint64_t>> events = {
      {-1, 100}, {0, 1}, {999999999, 2}, {1000000000, 5}, {2000000000, 7}};
  const std::vector<double> rates = WindowRates(events, 0, 1000000000, 2);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 3.0);
  EXPECT_DOUBLE_EQ(rates[1], 5.0);
  EXPECT_DOUBLE_EQ(WindowRates(events, 0, 500000000, 1)[0], 2.0);
}

TEST(SelfTimeTest, SubtractsTheChildCallsAndKeepsTheSign) {
  EXPECT_DOUBLE_EQ(SubtractChildren(100.0, {30.0, 20.0}), 50.0);
  EXPECT_DOUBLE_EQ(SubtractChildren(10.0, {12.0}), -2.0);
  EXPECT_DOUBLE_EQ(SubtractChildren(10.0, {}), 10.0);
}

TEST(OpenLoopTest, ScheduleIsFixedUpFront) {
  const OpenLoopSchedule s = OpenLoopSchedule::Make(1000, 2000.0, 5.0);
  EXPECT_EQ(s.count, 10000u);
  EXPECT_EQ(s.interval_ns, 500000);
  EXPECT_EQ(s.DueNs(0), 1000);
  EXPECT_EQ(s.DueNs(3), 1000 + 3 * 500000);
  EXPECT_EQ(OpenLoopSchedule::Make(0, 150.0, 5.0).count, 750u);
  EXPECT_EQ(OpenLoopSchedule::Make(0, 3.0, 0.5).count, 1u);
}

TEST(OpenLoopTest, LatencyCountsFromDueTime) {
  // Sent on time: latency is the round trip.
  DueTiming t = TimeFromDue(1000000, 1000000, 3000000);
  EXPECT_DOUBLE_EQ(t.late_ms, 0.0);
  EXPECT_DOUBLE_EQ(t.latency_ms, 2.0);
  // Sent 5 ms late behind a stall: the wait is charged to the request.
  t = TimeFromDue(1000000, 6000000, 7000000);
  EXPECT_DOUBLE_EQ(t.late_ms, 5.0);
  EXPECT_DOUBLE_EQ(t.latency_ms, 6.0);
  // Sent early (spin exit jitter) is not negative lateness.
  t = TimeFromDue(1000000, 999000, 2000000);
  EXPECT_DOUBLE_EQ(t.late_ms, 0.0);
}

TEST(JsonSafeTest, KeepsFiniteValuesAndReplacesInf) {
  EXPECT_EQ(JsonSafe(0.1234567891), 0.1234567891);
  EXPECT_EQ(JsonSafe(27428104), 27428104.0);
  EXPECT_EQ(JsonSafe(std::numeric_limits<double>::infinity()), 1e308);
  EXPECT_EQ(JsonSafe(std::numeric_limits<double>::quiet_NaN()), 1e308);
}

TEST(FailureCountsTest, EveryCauseCountsAgainstAttempted) {
  FailureCounts f;
  EXPECT_EQ(f.failed_frac(), 0.0);
  f.attempted = 200;
  f.error_responses = 1;
  f.transport_failures = 2;
  f.timeouts = 3;
  f.answer_mismatches = 4;
  f.digest_mismatches = 10;
  EXPECT_EQ(f.failed(), 20u);
  EXPECT_DOUBLE_EQ(f.failed_frac(), 0.1);
  FailureCounts g;
  g.attempted = 200;
  g += f;
  EXPECT_EQ(g.attempted, 400u);
  EXPECT_EQ(g.failed(), 20u);
  EXPECT_DOUBLE_EQ(g.failed_frac(), 0.05);
}

}  // namespace
}  // namespace perfbench
