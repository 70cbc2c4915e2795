// Self-test of the benchmark's own statistics and of its metrics scrape,
// run by run.sh before any workload.
#include "stats.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "scrape.h"

namespace priview::e2e {
namespace {

// The definition, checked by brute force: the smallest sample value v such
// that at least pct% of the sample is <= v.
double NearestRankOracle(const std::vector<double>& sample, double pct) {
  const auto permille = static_cast<uint64_t>(std::llround(pct * 10.0));
  double best = 0.0;
  bool found = false;
  for (double v : sample) {
    const uint64_t at_or_below = static_cast<uint64_t>(
        std::count_if(sample.begin(), sample.end(),
                      [v](double x) { return x <= v; }));
    if (at_or_below * 1000 >= permille * sample.size() &&
        (!found || v < best)) {
      best = v;
      found = true;
    }
  }
  return best;
}

TEST(NearestRankTest, MatchesOracleWhereSupported) {
  Rng rng(17);
  for (size_t n : {20, 21, 99, 100, 101, 999, 1000, 1234, 5000}) {
    std::vector<double> sample(n);
    // Coarse values force ties, which is where rank arithmetic slips.
    for (double& v : sample) v = static_cast<double>(rng.UniformInt(200));
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    for (double pct : {50.0, 90.0, 99.0, 99.9}) {
      const std::optional<Quantile> q = NearestRank(sorted, pct);
      if (!q) continue;
      EXPECT_EQ(q->value, NearestRankOracle(sample, pct))
          << "n=" << n << " pct=" << pct;
      EXPECT_EQ(q->samples, n);
      EXPECT_GE(q->beyond, kMinSamplesBeyond);
    }
  }
}

TEST(NearestRankTest, RefusesTailsWithFewerThanTenSamplesBeyond) {
  std::vector<double> sorted(100);
  for (size_t i = 0; i < sorted.size(); ++i) sorted[i] = double(i);
  // A "p99" of 100 samples has one sample beyond it: not a p99.
  EXPECT_FALSE(NearestRank(sorted, 99.0).has_value());
  ASSERT_TRUE(NearestRank(sorted, 90.0).has_value());
  EXPECT_EQ(NearestRank(sorted, 90.0)->beyond, 10u);

  std::vector<double> just_short(999, 1.0);
  EXPECT_FALSE(NearestRank(just_short, 99.0).has_value());
  std::vector<double> enough(1000, 1.0);
  ASSERT_TRUE(NearestRank(enough, 99.0).has_value());
  EXPECT_EQ(NearestRank(enough, 99.0)->beyond, 10u);

  EXPECT_FALSE(NearestRank({}, 50.0).has_value());
  EXPECT_FALSE(NearestRank(enough, 0.0).has_value());
  EXPECT_FALSE(NearestRank(enough, 101.0).has_value());
}

TEST(NearestRankTest, TailIsTheHighestSupportedPercentile) {
  EXPECT_EQ(TailQuantile(std::vector<double>(2000, 1.0))->pct, 99.0);
  EXPECT_EQ(TailQuantile(std::vector<double>(500, 1.0))->pct, 90.0);
  EXPECT_EQ(TailQuantile(std::vector<double>(25, 1.0))->pct, 50.0);
  EXPECT_FALSE(TailQuantile(std::vector<double>(19, 1.0)).has_value());
}

TEST(ChunkedTailTest, OneStalledStretchDoesNotMoveTheTail) {
  // 10,000 samples: 1.0 everywhere, except the top 1% of every stretch at
  // 2.0, and one stretch where a stall pushed 200 requests to 50.
  std::vector<double> sample(10000, 1.0);
  for (size_t i = 0; i < sample.size(); i += 100) sample[i] = 2.0;
  for (size_t i = 3000; i < 3200; ++i) sample[i] = 50.0;
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(TailQuantile(sorted)->value, 50.0);  // whole-sample p99

  const std::optional<Quantile> tail = ChunkedTail(sample, 10);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->pct, 99.0);
  EXPECT_EQ(tail->samples, 10000u);
  EXPECT_EQ(tail->beyond, 10u);  // 1,000 per chunk, rank 990
  EXPECT_EQ(tail->value, 1.0);   // the median chunk's p99
}

TEST(ChunkedTailTest, FallsBackToTheWholeSampleWhenChunksWouldBeTooSmall) {
  std::vector<double> sample(150);
  for (size_t i = 0; i < sample.size(); ++i) sample[i] = double(i % 37);
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  // 150 samples support a p90, and a p90 needs 100 per chunk: one chunk.
  EXPECT_EQ(ChunkedTail(sample, 10)->value, TailQuantile(sorted)->value);
  EXPECT_EQ(ChunkedTail(sample, 10)->beyond, TailQuantile(sorted)->beyond);
  EXPECT_FALSE(ChunkedTail(std::vector<double>(19, 1.0), 10).has_value());
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(MedianWindowRateTest, IgnoresOneSlowWindowAndPartialTail) {
  std::vector<double> events;
  // Four 1 s windows at 10 events/s, except window 2 with 2 events, plus
  // events past the last whole window and before the start.
  for (int w = 0; w < 4; ++w) {
    const int n = w == 2 ? 2 : 10;
    for (int i = 0; i < n; ++i) events.push_back(1.0 + w + i / double(n));
  }
  events.push_back(5.2);
  events.push_back(0.5);
  EXPECT_DOUBLE_EQ(MedianWindowRate(events, 1.0, 5.5, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(MedianWindowRate(events, 1.0, 5.5, 0.5), 10.0);
  EXPECT_EQ(MedianWindowRate(events, 1.0, 1.5, 1.0), 0.0);
  EXPECT_EQ(MedianWindowRate({}, 0.0, 2.0, 1.0), 0.0);
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const std::vector<double> a = PoissonSchedule(400.0, 5.0, 42);
  const std::vector<double> b = PoissonSchedule(400.0, 5.0, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(400.0, 5.0, 43));
}

TEST(PoissonScheduleTest, AscendingInsideTheWindowAtTheRequestedRate) {
  const double rate = 2000.0;
  const double seconds = 4.0;
  const std::vector<double> due = PoissonSchedule(rate, seconds, 7);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GT(due.front(), 0.0);
  EXPECT_LT(due.back(), seconds);
  // Count ~ Poisson(8000): five standard deviations is ~450.
  const double expected = rate * seconds;
  EXPECT_NEAR(static_cast<double>(due.size()), expected,
              5.0 * std::sqrt(expected));
  EXPECT_TRUE(PoissonSchedule(0.0, 1.0, 1).empty());
  EXPECT_TRUE(PoissonSchedule(10.0, 0.0, 1).empty());
}

TEST(GeneratorLagTest, CountsOnlyTheGeneratorsOwnLateness) {
  // Idle connection: lag is send time minus due time.
  EXPECT_DOUBLE_EQ(GeneratorLag(/*due=*/1.0, /*previous_done=*/0.5,
                                /*sent=*/1.25),
                   0.25);
  // The previous answer arrived after this request fell due: the wait for
  // the server is latency, only the time after that answer is lag.
  EXPECT_DOUBLE_EQ(GeneratorLag(1.0, 3.0, 3.5), 0.5);
  // Sent exactly when possible, or (clock skew) before: no lag.
  EXPECT_DOUBLE_EQ(GeneratorLag(1.0, 3.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(GeneratorLag(2.0, 0.0, 1.9), 0.0);
}

TEST(ScrapeTest, ReadsTheRegistrysOwnExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("requests_total", {{"event", "admitted"}})->Increment(7);
  registry.GetCounter("requests_total", {{"event", "rejected"}})->Increment(2);
  obs::Histogram* wait = registry.GetHistogram("wait_us", {{"kind", "a"}});
  for (uint64_t us : {1, 3, 3, 100}) wait->Observe(us);

  const Scrape before = Scrape::Parse(registry.RenderPrometheus());
  EXPECT_EQ(before.Value("requests_total", {{"event", "admitted"}}), 7.0);
  EXPECT_EQ(before.Value("requests_total", {{"event", "rejected"}}), 2.0);
  EXPECT_EQ(before.Value("requests_total", {{"event", "absent"}}), 0.0);
  EXPECT_EQ(before.HistogramSum("wait_us", {{"kind", "a"}}), 107.0);
  EXPECT_EQ(before.HistogramMean("wait_us", {{"kind", "a"}}), 107.0 / 4);
  // Buckets are powers of two: 3 lies in [2, 4), whose bound is 3; 100 in
  // [64, 128), bound 127.
  EXPECT_EQ(before.HistogramUpperBound("wait_us", {{"kind", "a"}}, 0.5), 3.0);
  EXPECT_EQ(before.HistogramUpperBound("wait_us", {{"kind", "a"}}, 0.99),
            127.0);

  registry.GetCounter("requests_total", {{"event", "admitted"}})->Increment(5);
  wait->Observe(10);
  const Scrape delta =
      Scrape::Parse(registry.RenderPrometheus()).Minus(before);
  EXPECT_EQ(delta.Value("requests_total", {{"event", "admitted"}}), 5.0);
  EXPECT_EQ(delta.Value("requests_total", {{"event", "rejected"}}), 0.0);
  EXPECT_EQ(delta.HistogramMean("wait_us", {{"kind", "a"}}), 10.0);
}

}  // namespace
}  // namespace priview::e2e
