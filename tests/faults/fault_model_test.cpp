// Fault models in isolation (event emission against a synthetic FaultView)
// and imprinted through the PerturbedEngine (crash → absorption, stuck-at →
// frozen dynamics, corruption → conservation of agents but not invariants).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/perturbed_engine.hpp"
#include "population/count_engine.hpp"
#include "population/run.hpp"
#include "protocols/four_state.hpp"
#include "temp_path.hpp"

namespace popbean::faults {
namespace {

// Owns the count vectors a FaultView references, so model unit tests can
// describe arbitrary crash/stuck bookkeeping without an engine.
struct ViewFixture {
  Counts total;
  Counts frozen;
  Counts stuck;

  ViewFixture(Counts t, Counts f, Counts s)
      : total(std::move(t)), frozen(std::move(f)), stuck(std::move(s)) {}

  FaultView view() const {
    std::uint64_t n = 0, fc = 0, sc = 0;
    for (std::size_t q = 0; q < total.size(); ++q) {
      n += total[q];
      fc += frozen[q];
      sc += stuck[q];
    }
    return {total, frozen, stuck, n, fc, sc};
  }
};

TEST(FaultViewTest, MobileExcludesFrozenAndStuck) {
  const ViewFixture fixture({10, 6}, {2, 0}, {1, 3});
  const FaultView view = fixture.view();
  EXPECT_EQ(view.num_agents, 16u);
  EXPECT_EQ(view.frozen_count, 2u);
  EXPECT_EQ(view.stuck_count, 4u);
  EXPECT_EQ(view.mobile(0), 7u);
  EXPECT_EQ(view.mobile(1), 3u);
  EXPECT_EQ(view.mobile_count(), 10u);
}

TEST(SampleStateTest, OnlyReturnsPositiveWeightStates) {
  Xoshiro256ss rng(1);
  const Counts weights{0, 5, 0, 3, 0};
  for (int i = 0; i < 500; ++i) {
    const State q = sample_state(
        weights.size(), 8, [&](State s) { return weights[s]; }, rng);
    EXPECT_TRUE(q == 1 || q == 3);
  }
}

TEST(NoFaultsTest, IsInactiveAndSilent) {
  const NoFaults model;
  EXPECT_FALSE(model.active());
  const ViewFixture fixture({4, 4}, {0, 0}, {0, 0});
  Xoshiro256ss rng(1);
  std::vector<FaultEvent> events;
  model.on_init(fixture.view(), rng, events);
  model.before_step(fixture.view(), rng, events);
  EXPECT_TRUE(events.empty());
}

TEST(CrashRecoveryTest, ZeroRatesAreInactive) {
  EXPECT_FALSE(CrashRecovery(0.0, 0.0).active());
  EXPECT_TRUE(CrashRecovery(0.1, 0.0).active());
  EXPECT_TRUE(CrashRecovery(0.0, 0.1).active());
}

TEST(CrashRecoveryTest, RateOneCrashesAMobileAgentEveryStep) {
  CrashRecovery model(1.0, 0.0);
  const ViewFixture fixture({3, 2}, {0, 0}, {0, 0});
  Xoshiro256ss rng(2);
  for (int i = 0; i < 50; ++i) {
    std::vector<FaultEvent> events;
    model.before_step(fixture.view(), rng, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, FaultKind::kCrash);
    EXPECT_LT(events[0].from, 2u);
  }
}

TEST(CrashRecoveryTest, RecoveryTargetsOnlyFrozenStates) {
  CrashRecovery model(0.0, 1.0);
  // All frozen agents sit in state 1; recoveries must name state 1.
  const ViewFixture fixture({3, 4}, {0, 2}, {0, 0});
  Xoshiro256ss rng(3);
  for (int i = 0; i < 50; ++i) {
    std::vector<FaultEvent> events;
    model.before_step(fixture.view(), rng, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, FaultKind::kRecover);
    EXPECT_EQ(events[0].from, 1u);
  }
}

TEST(CrashRecoveryTest, NoRecoveryWithoutFrozenAgents) {
  CrashRecovery model(0.0, 1.0);
  const ViewFixture fixture({3, 4}, {0, 0}, {0, 0});
  Xoshiro256ss rng(4);
  std::vector<FaultEvent> events;
  model.before_step(fixture.view(), rng, events);
  EXPECT_TRUE(events.empty());
}

TEST(TransientCorruptionTest, RateOneEmitsValidCorruption) {
  TransientCorruption model(1.0);
  EXPECT_TRUE(model.active());
  const ViewFixture fixture({5, 0, 3}, {0, 0, 0}, {0, 0, 0});
  Xoshiro256ss rng(5);
  for (int i = 0; i < 100; ++i) {
    std::vector<FaultEvent> events;
    model.before_step(fixture.view(), rng, events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, FaultKind::kCorrupt);
    EXPECT_TRUE(events[0].from == 0 || events[0].from == 2);  // mobile states
    EXPECT_LT(events[0].to, 3u);
  }
}

TEST(StuckAtTest, MarksTheRequestedFractionAtInit) {
  StuckAt model(0.4);
  const ViewFixture fixture({5, 5}, {0, 0}, {0, 0});
  Xoshiro256ss rng(6);
  std::vector<FaultEvent> events;
  model.on_init(fixture.view(), rng, events);
  EXPECT_EQ(events.size(), 4u);  // round(0.4 · 10)
  for (const FaultEvent& event : events) {
    EXPECT_EQ(event.kind, FaultKind::kStick);
    EXPECT_EQ(event.from, event.to);
  }
}

TEST(StuckAtTest, NeverFiresPerStep) {
  StuckAt model(0.5);
  const ViewFixture fixture({5, 5}, {0, 0}, {0, 0});
  Xoshiro256ss rng(7);
  std::vector<FaultEvent> events;
  model.before_step(fixture.view(), rng, events);
  EXPECT_TRUE(events.empty());
}

TEST(SignFlipTest, AvcFlipNegatesStrongStatesOnly) {
  const avc::AvcProtocol protocol(3, 1);
  const SignFlip model = avc_sign_flip(protocol, 0.5);
  const avc::StateCodec& codec = protocol.codec();
  for (State q = 0; q < protocol.num_states(); ++q) {
    const int value = codec.value_of(q);
    if (value >= 3 || value <= -3) {
      EXPECT_TRUE(model.eligible()[q]) << "state " << protocol.state_name(q);
      EXPECT_EQ(codec.value_of(model.flip_map()[q]), -value);
    } else {
      EXPECT_FALSE(model.eligible()[q]) << "state " << protocol.state_name(q);
      EXPECT_EQ(model.flip_map()[q], q);
    }
  }
}

TEST(SignFlipTest, FourStateFlipSwapsStrongOpinions) {
  const SignFlip model = four_state_sign_flip(1.0);
  EXPECT_EQ(model.flip_map()[FourStateProtocol::kStrongA],
            FourStateProtocol::kStrongB);
  EXPECT_EQ(model.flip_map()[FourStateProtocol::kStrongB],
            FourStateProtocol::kStrongA);
  EXPECT_FALSE(model.eligible()[FourStateProtocol::kWeakA]);
  EXPECT_FALSE(model.eligible()[FourStateProtocol::kWeakB]);
}

TEST(SignFlipTest, SkipsWhenNoEligibleAgentIsMobile) {
  const SignFlip model = four_state_sign_flip(1.0);
  // Only weak states populated: nothing to flip.
  const ViewFixture fixture({0, 0, 4, 4}, {0, 0, 0, 0}, {0, 0, 0, 0});
  Xoshiro256ss rng(8);
  std::vector<FaultEvent> events;
  model.before_step(fixture.view(), rng, events);
  EXPECT_TRUE(events.empty());
}

TEST(ComposedFaultsTest, ActiveIfAnyComponentIs) {
  EXPECT_FALSE(
      ComposedFaults(NoFaults{}, CrashRecovery(0.0, 0.0)).active());
  EXPECT_TRUE(
      ComposedFaults(NoFaults{}, TransientCorruption(0.5)).active());
}

TEST(ComposedFaultsTest, FiresInDeclarationOrder) {
  ComposedFaults model(CrashRecovery(1.0, 0.0), TransientCorruption(1.0));
  const ViewFixture fixture({4, 4}, {0, 0}, {0, 0});
  Xoshiro256ss rng(9);
  std::vector<FaultEvent> events;
  model.before_step(fixture.view(), rng, events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kCrash);
  EXPECT_EQ(events[1].kind, FaultKind::kCorrupt);
}

TEST(FaultKindTest, NamesAreStable) {
  EXPECT_EQ(to_string(FaultKind::kCrash), "crash");
  EXPECT_EQ(to_string(FaultKind::kRecover), "recover");
  EXPECT_EQ(to_string(FaultKind::kCorrupt), "corrupt");
  EXPECT_EQ(to_string(FaultKind::kSignFlip), "sign_flip");
  EXPECT_EQ(to_string(FaultKind::kStick), "stick");
}

// --- through the engine -----------------------------------------------------

TEST(PerturbedFaultsTest, CertainCrashesAbsorbTheRun) {
  const FourStateProtocol protocol;
  const Counts counts{6, 4, 0, 0};
  Xoshiro256ss root(11);
  auto engine = make_perturbed(CountEngine<FourStateProtocol>(protocol, counts),
                               CrashRecovery(1.0, 0.0), UniformSchedule{},
                               root);
  const RunResult result = run_to_convergence(engine, root, 100000);
  EXPECT_EQ(result.status, RunStatus::kAbsorbing);
  // The run halts once fewer than two agents interact.
  EXPECT_GE(engine.frozen_agents(), engine.num_agents() - 1);
  EXPECT_GE(engine.fault_counters().crashes, engine.frozen_agents());
  // Crashed agents keep their states: the population is conserved.
  std::uint64_t n = 0;
  for (const auto c : engine.counts()) n += c;
  EXPECT_EQ(n, 10u);
}

TEST(PerturbedFaultsTest, RecoveryRestoresLiveness) {
  const FourStateProtocol protocol;
  const Counts counts{8, 2, 0, 0};
  Xoshiro256ss root(12);
  auto engine = make_perturbed(CountEngine<FourStateProtocol>(protocol, counts),
                               CrashRecovery(0.2, 0.9), UniformSchedule{},
                               root);
  const RunResult result = run_to_convergence(engine, root, 1u << 20);
  // With recovery far outpacing crashes the protocol still decides, and the
  // four-state difference invariant is untouched (crashes never edit state).
  EXPECT_EQ(result.status, RunStatus::kConverged);
  EXPECT_EQ(result.decided, 1);
  EXPECT_GT(engine.fault_counters().recoveries, 0u);
}

TEST(PerturbedFaultsTest, FullyStuckPopulationNeverMoves) {
  const FourStateProtocol protocol;
  const Counts counts{6, 4, 0, 0};
  Xoshiro256ss root(13);
  auto engine = make_perturbed(CountEngine<FourStateProtocol>(protocol, counts),
                               StuckAt(1.0), UniformSchedule{}, root);
  EXPECT_EQ(engine.stuck_agents(), 10u);
  EXPECT_EQ(engine.fault_counters().stuck, 10u);
  for (int i = 0; i < 200; ++i) engine.step(root);
  // Stubborn agents interact (steps advance) but withhold every update.
  EXPECT_EQ(engine.steps(), 200u);
  EXPECT_EQ(engine.counts(), counts);
}

TEST(PerturbedFaultsTest, CorruptionConservesAgentsAndLogsEvents) {
  const avc::AvcProtocol protocol(3, 1);
  Counts counts(protocol.num_states(), 0);
  counts[protocol.initial_state(Opinion::A)] = 12;
  counts[protocol.initial_state(Opinion::B)] = 8;
  Xoshiro256ss root(14);
  auto engine = make_perturbed(CountEngine<avc::AvcProtocol>(protocol, counts),
                               TransientCorruption(1.0), UniformSchedule{},
                               root);
  for (int i = 0; i < 100; ++i) engine.step(root);
  EXPECT_EQ(engine.fault_counters().corruptions, 100u);
  EXPECT_EQ(engine.fault_counters().injected_interactions, 100u);
  ASSERT_EQ(engine.fault_log().events().size(), 100u);
  EXPECT_EQ(engine.fault_log().dropped(), 0u);
  std::uint64_t n = 0;
  for (const auto c : engine.counts()) n += c;
  EXPECT_EQ(n, 20u);
  for (const FaultEvent& event : engine.fault_log().events()) {
    EXPECT_EQ(event.kind, FaultKind::kCorrupt);
    EXPECT_LT(event.to, protocol.num_states());
  }
}

TEST(PerturbedFaultsTest, FaultLogCsvHasOneRowPerEvent) {
  const FourStateProtocol protocol;
  const Counts counts{6, 4, 0, 0};
  Xoshiro256ss root(15);
  auto engine = make_perturbed(CountEngine<FourStateProtocol>(protocol, counts),
                               TransientCorruption(1.0), UniformSchedule{},
                               root);
  for (int i = 0; i < 10; ++i) engine.step(root);
  const std::string path = test_temp_path("fault_log.csv");
  write_fault_log_csv(engine.fault_log(), protocol, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "step,kind,from,to");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, engine.fault_log().events().size());
  in.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace popbean::faults
