#include "population/trace.hpp"

#include <gtest/gtest.h>

#include "population/count_engine.hpp"
#include "population/skip_engine.hpp"
#include "protocols/four_state.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

Observable output_one_count(const FourStateProtocol& protocol) {
  return {"output1", [&protocol](const Counts& counts) {
            double total = 0;
            for (State q = 0; q < counts.size(); ++q) {
              if (protocol.output(q) == 1) {
                total += static_cast<double>(counts[q]);
              }
            }
            return total;
          }};
}

TEST(TraceTest, SamplesInitialAndFinalConfigurations) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 40, 30));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(601);
  const RunResult result = recorder.record(engine, rng, 25, 10'000'000);
  ASSERT_TRUE(result.converged());
  ASSERT_GE(recorder.points().size(), 2u);
  EXPECT_EQ(recorder.points().front().parallel_time, 0.0);
  EXPECT_EQ(recorder.points().front().values[0], 30.0);
  EXPECT_EQ(recorder.points().back().values[0], 40.0);  // unanimous A
  EXPECT_DOUBLE_EQ(recorder.points().back().parallel_time,
                   result.parallel_time);
}

TEST(TraceTest, TimesAreNonDecreasingAndStrided) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 60, 40));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(602);
  recorder.record(engine, rng, 30, 10'000'000);
  const auto& points = recorder.points();
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].interactions, points[i - 1].interactions);
    if (i + 1 < points.size() && i > 0) {
      // Interior samples are at least a stride apart.
      EXPECT_GE(points[i].interactions - points[i - 1].interactions, 30u);
    }
  }
}

TEST(TraceTest, MultipleObservablesTrackedTogether) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 30, 20));
  Observable population{"n", [](const Counts& counts) {
                          return static_cast<double>(population_size(counts));
                        }};
  TraceRecorder recorder({output_one_count(protocol), population});
  Xoshiro256ss rng(603);
  recorder.record(engine, rng, 10, 10'000'000);
  for (const TracePoint& point : recorder.points()) {
    ASSERT_EQ(point.values.size(), 2u);
    EXPECT_EQ(point.values[1], 30.0);  // population conserved
  }
}

TEST(TraceTest, RespectsStepBudget) {
  FourStateProtocol protocol;
  CountEngine<FourStateProtocol> engine(
      protocol, majority_instance(protocol, 1000, 501));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(604);
  const RunResult result = recorder.record(engine, rng, 100, 500);
  EXPECT_EQ(result.status, RunStatus::kStepLimit);
  EXPECT_EQ(result.interactions, 500u);
}

TEST(TraceTest, ReportsAbsorbingWhenTheSkipEngineGetsStuck) {
  // A + B -> a + b, after which the weak pair never reacts: the outputs stay
  // mixed in an absorbing configuration.
  FourStateProtocol protocol;
  SkipEngine<FourStateProtocol> engine(protocol,
                                       majority_instance(protocol, 2, 1));
  TraceRecorder recorder({output_one_count(protocol)});
  Xoshiro256ss rng(605);
  const RunResult result = recorder.record(engine, rng, 1, 10'000'000);
  EXPECT_EQ(result.status, RunStatus::kAbsorbing);
  EXPECT_TRUE(engine.absorbing());
  EXPECT_EQ(recorder.points().back().interactions, result.interactions);
}

}  // namespace
}  // namespace popbean
