// Pins CountEngine's trajectories: for fixed seeds, the interaction count,
// the decision and a hash of the final counts of a run to convergence.
//
// The pair sampler may be rewritten for speed, but it must keep mapping
// every pair of rng draws to the same (initiator, responder): trajectories,
// snapshots, served responses and the recorded experiment tables depend on
// it. A sampler that draws the same distribution from a different stream
// fails here even though the distributional tests still pass.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "core/avc_params.hpp"
#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/run.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

struct Golden {
  std::uint64_t interactions;
  Output decided;
  std::uint64_t counts_hash;
};

// FNV-1a over the final counts, little-endian.
std::uint64_t hash_counts(const Counts& counts) {
  BinaryWriter out;
  for (const std::uint64_t c : counts) out.u64(c);
  return fnv1a64(out.take());
}

template <ProtocolLike P>
void expect_golden(const P& protocol, std::uint64_t n, std::uint64_t margin,
                   std::uint64_t seed, const Golden& golden) {
  CountEngine<P> engine(protocol,
                        majority_instance_with_margin(protocol, n, margin));
  Xoshiro256ss rng(seed);
  const RunResult result = run_to_convergence(engine, rng);
  ASSERT_TRUE(result.converged());
  EXPECT_EQ(result.interactions, golden.interactions);
  EXPECT_EQ(result.decided, golden.decided);
  EXPECT_EQ(hash_counts(engine.counts()), golden.counts_hash);
}

avc::AvcProtocol avc_with_budget(std::int64_t s) {
  const avc::AvcParams params = avc::from_state_budget(s);
  return avc::AvcProtocol(params.m, params.d);
}

TEST(CountEngineGoldenTest, ThreeState) {
  expect_golden(ThreeStateProtocol{}, 2001, 201, 11,
                {33129, 1, 12323920864756566777ULL});
}

TEST(CountEngineGoldenTest, FourState) {
  expect_golden(FourStateProtocol{}, 2001, 201, 12,
                {94009, 1, 11141687032631778217ULL});
}

// AVC state counts are always even (m odd, s = m + 2d + 1), so the budget 17
// gives 16 states, one full leaf block; 18 adds a partial second block.
TEST(CountEngineGoldenTest, AvcAcrossStateCounts) {
  const std::int64_t budgets[] = {6, 17, 18, 64, 4096};
  const Golden goldens[] = {
      {75167, 1, 2838959596555397625ULL},
      {23442, 1, 8649005726691642652ULL},
      {23359, 1, 1067506307725206444ULL},
      {20383, 1, 3002256672870350192ULL},
      {17610, 1, 3952132816753913224ULL},
  };
  for (std::size_t i = 0; i < std::size(budgets); ++i) {
    SCOPED_TRACE("state budget " + std::to_string(budgets[i]));
    expect_golden(avc_with_budget(budgets[i]), 2001, 201, 100 + i,
                  goldens[i]);
  }
}

// The paper's Fig. 3 n-state AVC at ε = 1/n, the regime the many-state
// index exists for.
TEST(CountEngineGoldenTest, NStateAvc) {
  const avc::AvcParams params = avc::n_state(20001);
  expect_golden(avc::AvcProtocol(params.m, params.d), 20001, 1, 13,
                {681617, 1, 11126663867415556949ULL});
}

}  // namespace
}  // namespace popbean
