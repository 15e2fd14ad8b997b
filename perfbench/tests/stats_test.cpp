// Self-tests of the benchmark's arithmetic: the tail-percentile rule, the
// seeded Poisson schedules, replicate spans and the serve layer-sum check.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, KeepsTenSamplesBeyondTheQuotedRank) {
  EXPECT_DOUBLE_EQ(tail_percentile(1000), 99.0);  // exactly 10 beyond p99
  EXPECT_DOUBLE_EQ(tail_percentile(5000), 99.0);  // capped
  EXPECT_NEAR(tail_percentile(303), 100.0 * 293 / 303, 1e-12);
  EXPECT_DOUBLE_EQ(tail_percentile(10), 0.0);  // nothing qualifies
  for (const std::size_t n : {11u, 50u, 303u, 999u, 1000u, 4321u}) {
    const std::vector<double> v = one_to(n);
    const double tail = nearest_rank(v, tail_percentile(n));
    const auto beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > tail; }));
    EXPECT_GE(beyond, 10u) << "n=" << n;
  }
}

TEST(ReplicateDurations, SplitsStampsIntoBackToBackReplicates) {
  // Two stamps per replicate; three replicates; the lane's task finished at
  // 100 ms (an earlier, unrelated task finished at 1 ms).
  const std::vector<std::int64_t> starts = {2'000'000,  2'000'100,
                                            30'000'000, 30'000'100,
                                            45'000'000, 45'000'100};
  const std::vector<double> ms =
      replicate_durations_ms(starts, {1'000'000, 100'000'000}, 2);
  ASSERT_EQ(ms.size(), 3u);
  EXPECT_DOUBLE_EQ(ms[0], 28.0);
  EXPECT_DOUBLE_EQ(ms[1], 15.0);
  EXPECT_DOUBLE_EQ(ms[2], 55.0);
}

TEST(ReplicateDurations, RefusesPartialReplicatesAndMissingEnds) {
  EXPECT_TRUE(replicate_durations_ms({1, 2, 3}, {10}, 2).empty());
  EXPECT_TRUE(replicate_durations_ms({5, 6}, {4}, 2).empty());
  EXPECT_TRUE(replicate_durations_ms({}, {4}, 2).empty());
}

TEST(TailPercentile, SummaryReportsTheRuleItUsed) {
  const Tail t = summarize_tail(one_to(303));
  EXPECT_EQ(t.count, 303u);
  EXPECT_DOUBLE_EQ(t.p50, 152.0);
  EXPECT_DOUBLE_EQ(t.tail, 293.0);  // 10 samples (294..303) beyond
  EXPECT_LT(t.tail_pct, 99.0);
}

TEST(PoissonSchedule, ReproducesExactlyFromItsSeed) {
  const std::vector<double> a = poisson_schedule(7, 500.0, 4.0);
  const std::vector<double> b = poisson_schedule(7, 500.0, 4.0);
  const std::vector<double> c = poisson_schedule(8, 500.0, 4.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 4.0);
  // Count within a few standard deviations of rate × seconds = 2000.
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 5 * std::sqrt(2000.0));
}

TEST(LayerSum, TcpLayersCoverSendToRead) {
  JobStamps s;
  s.send = 1'000'000;
  s.submit = 1'200'000;          // ingress 0.2 ms
  s.submit_return = 1'210'000;   // submit 0.01 ms
  s.response = 3'310'000;        // queue 0.1 + run 2.0 before it
  s.deliver_return = 3'330'000;  // response 0.02 ms
  s.read = 3'500'000;            // egress 0.17 ms
  const LayerTimes t = layer_times(s, 0.1, 2.0);
  EXPECT_NEAR(t.observed, 2.5, 1e-12);
  EXPECT_NEAR(t.sum(), 2.5, 1e-12);
  EXPECT_NEAR(t.gap_pct(), 0.0, 1e-9);
  EXPECT_NEAR(t.ingress, 0.2, 1e-12);
  EXPECT_NEAR(t.egress, 0.17, 1e-12);
}

TEST(LayerSum, UnexplainedTimeShowsAsGap) {
  JobStamps s;
  s.submit = 0 + 1;
  s.submit_return = 10'001;
  s.response = 2'000'001;  // 1.99 ms after submit returned
  const LayerTimes t = layer_times(s, 0.5, 1.0);  // layers explain 1.5 ms
  EXPECT_NEAR(t.observed, 2.0, 1e-12);
  EXPECT_NEAR(t.sum(), 1.51, 1e-12);
  EXPECT_NEAR(t.gap_pct(), 24.5, 1e-9);
  EXPECT_EQ(t.ingress, 0.0);  // direct submits have no net layers
}

}  // namespace
}  // namespace perfbench
