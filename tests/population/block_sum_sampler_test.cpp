// BlockSumSampler, the count engine's pair sampler: its block-sum index
// against a linear prefix scan of the same counts, and its pair draw against
// the exclude-one-agent-and-search draw it replaces.
//
// The FenwickTest and FenwickPropertyTest suites are the tests of the
// Fenwick tree this index replaced, ported to the index; they keep their
// names so their history carries over.
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/avc.hpp"
#include "population/count_engine.hpp"
#include "util/rng.hpp"

namespace popbean {
namespace {

// The state holding agent `target` (0-based, in state order).
State linear_scan(const Counts& counts, std::uint64_t target) {
  State q = 0;
  while (counts[q] <= target) target -= counts[q++];
  return q;
}

// Counts plus their index, updated together as CompleteGraphEngine does.
struct Indexed {
  explicit Indexed(Counts initial)
      : counts(std::move(initial)), sampler(counts) {}

  void add(State q, std::int64_t delta) {
    counts[q] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts[q]) + delta);
    sampler.add(q, delta);
  }

  State find(std::uint64_t target) const {
    return sampler.find_pair(counts, target, target).first;
  }

  std::uint64_t total() const {
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  }

  Counts counts;
  BlockSumSampler sampler;
};

// Zeros, count-1 states and larger counts, in about equal shares.
Counts random_counts(std::size_t size, Xoshiro256ss& rng) {
  Counts counts(size);
  for (auto& c : counts) {
    const std::uint64_t kind = rng.below(3);
    c = kind == 0 ? 0 : kind == 1 ? 1 : 2 + rng.below(50);
  }
  return counts;
}

TEST(FenwickTest, EmptyTreeHasZeroTotal) {
  const Indexed index(Counts(8, 0));
  EXPECT_EQ(index.sampler.total(), 0u);
}

TEST(FenwickTest, BulkConstructionMatchesWeights) {
  const Indexed index(Counts{3, 0, 7, 1, 0, 5, 2, 9, 4});
  ASSERT_EQ(index.sampler.total(), index.total());
  for (std::uint64_t t = 0; t < index.total(); ++t) {
    EXPECT_EQ(index.find(t), linear_scan(index.counts, t)) << "target " << t;
  }
}

TEST(FenwickTest, AddUpdatesPointAndTotal) {
  Indexed index(Counts(5, 0));
  index.add(2, 10);
  index.add(4, 3);
  index.add(2, -4);
  EXPECT_EQ(index.sampler.total(), 9u);
  for (std::uint64_t t = 0; t < 6; ++t) EXPECT_EQ(index.find(t), 2u);
  for (std::uint64_t t = 6; t < 9; ++t) EXPECT_EQ(index.find(t), 4u);
}

TEST(FenwickTest, FindByPrefixLocatesEveryUnit) {
  const Indexed index(Counts{2, 0, 3, 1});
  // Targets 0,1 -> index 0; 2,3,4 -> index 2; 5 -> index 3.
  EXPECT_EQ(index.find(0), 0u);
  EXPECT_EQ(index.find(1), 0u);
  EXPECT_EQ(index.find(2), 2u);
  EXPECT_EQ(index.find(3), 2u);
  EXPECT_EQ(index.find(4), 2u);
  EXPECT_EQ(index.find(5), 3u);
}

TEST(FenwickTest, FindByPrefixSkipsZeroWeightStates) {
  const Indexed index(Counts{0, 0, 1, 0, 0});
  EXPECT_EQ(index.find(0), 2u);
}

class FenwickPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FenwickPropertyTest, RandomOperationsMatchNaiveModel) {
  const std::size_t size = GetParam();
  Xoshiro256ss rng(1000 + size);
  Indexed index(Counts(size, 0));
  for (int op = 0; op < 2000; ++op) {
    const auto q = static_cast<State>(rng.below(size));
    // Random delta keeping the count non-negative.
    const std::int64_t delta =
        index.counts[q] > 0 && rng.bernoulli(0.4)
            ? -static_cast<std::int64_t>(rng.below(index.counts[q]) + 1)
            : static_cast<std::int64_t>(rng.below(10));
    index.add(q, delta);
    ASSERT_EQ(index.sampler.total(), index.total());
    if (index.total() == 0) continue;
    const std::uint64_t probe = rng.below(index.total());
    ASSERT_EQ(index.find(probe), linear_scan(index.counts, probe));
  }
}

TEST_P(FenwickPropertyTest, SamplingFrequenciesMatchWeights) {
  const std::size_t size = GetParam();
  Xoshiro256ss rng(2000 + size);
  Counts weights(size);
  for (auto& w : weights) w = rng.below(20);
  weights[0] += 1;  // ensure positive total
  const Indexed index(weights);

  constexpr int kDraws = 50000;
  std::vector<std::uint64_t> hits(size, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++hits[index.find(rng.below(index.total()))];
  }
  const auto total = static_cast<double>(index.total());
  for (std::size_t i = 0; i < size; ++i) {
    const double expected = kDraws * static_cast<double>(weights[i]) / total;
    if (weights[i] == 0) {
      EXPECT_EQ(hits[i], 0u);
    } else {
      EXPECT_NEAR(static_cast<double>(hits[i]), expected,
                  5.0 * std::sqrt(expected) + 5.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FenwickPropertyTest,
                         ::testing::Values(1, 2, 3, 7, 8, 17, 64, 100, 255));

// Sizes on both sides of one, two and three full levels of blocks.
class BlockSumSamplerTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockSumSamplerTest, PairSearchMatchesALinearScan) {
  const std::size_t size = GetParam();
  Xoshiro256ss rng(3000 + size);
  Indexed index(random_counts(size, rng));
  for (int op = 0; op < 2000; ++op) {
    const auto q = static_cast<State>(rng.below(size));
    const std::int64_t delta =
        index.counts[q] > 0 && rng.bernoulli(0.5)
            ? -static_cast<std::int64_t>(rng.below(index.counts[q]) + 1)
            : static_cast<std::int64_t>(rng.below(3));
    index.add(q, delta);
    ASSERT_EQ(index.sampler.total(), index.total());
    if (index.total() == 0) continue;
    const std::uint64_t u = rng.below(index.total());
    const std::uint64_t v = rng.below(index.total());
    const auto [a, b] = index.sampler.find_pair(index.counts, u, v);
    ASSERT_EQ(a, linear_scan(index.counts, u)) << "op " << op;
    ASSERT_EQ(b, linear_scan(index.counts, v)) << "op " << op;
  }
  // The last agent of the last occupied state, the first agent of the first.
  if (index.total() > 0) {
    const auto [first, last] =
        index.sampler.find_pair(index.counts, 0, index.total() - 1);
    EXPECT_EQ(first, linear_scan(index.counts, 0));
    EXPECT_EQ(last, linear_scan(index.counts, index.total() - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSumSamplerTest,
                         ::testing::Values(1, 2, 15, 16, 17, 255, 256, 257,
                                           4097));

// The draw by agent index must pick, for every pair of rng draws, the states
// the exclude-one-agent-and-search draw picked: the initiator's state from
// below(n), then one agent of it removed and the responder's state from
// below(n − 1) over the rest. Trajectories depend on it, so does every
// recorded result.
TEST(BlockSumSamplerDrawTest, DrawMatchesExcludeAndSearch) {
  for (const int m : {1, 13, 15, 253, 255}) {  // 4, 16, 18, 256, 258 states
    const avc::AvcProtocol protocol(m, 1);
    Xoshiro256ss rng(4000 + static_cast<std::uint64_t>(m));
    for (int config = 0; config < 20; ++config) {
      Counts counts = random_counts(protocol.num_states(), rng);
      counts[0] += 2;  // at least two agents
      const std::uint64_t n =
          std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
      BlockSumSampler sampler(protocol, counts);
      for (int draw = 0; draw < 200; ++draw) {
        Xoshiro256ss replay = rng;
        PairDraw out;
        ASSERT_TRUE(sampler.draw(protocol, counts, n, rng, out));

        const State a = linear_scan(counts, replay.below(n));
        Counts rest = counts;
        --rest[a];
        const State b = linear_scan(rest, replay.below(n - 1));
        ASSERT_EQ(out.initiator, a) << "m " << m << " draw " << draw;
        ASSERT_EQ(out.responder, b) << "m " << m << " draw " << draw;
        ASSERT_TRUE(counts[a] > 1 || b != a) << "agent paired with itself";
        ASSERT_EQ(replay.state_words(), rng.state_words());
        EXPECT_EQ(out.transition, protocol.apply(a, b));
      }
    }
  }
}

// Two agents in total, each alone in its state: the only pairs are (a, b)
// and (b, a), never an agent with itself.
TEST(BlockSumSamplerDrawTest, TwoSingletonsAlwaysMeetEachOther) {
  const avc::AvcProtocol protocol(15, 1);  // 18 states: two leaf blocks
  Counts counts(protocol.num_states(), 0);
  counts[3] = 1;
  counts[17] = 1;
  BlockSumSampler sampler(protocol, counts);
  Xoshiro256ss rng(5);
  int ordered[2] = {0, 0};
  for (int i = 0; i < 400; ++i) {
    PairDraw out;
    ASSERT_TRUE(sampler.draw(protocol, counts, 2, rng, out));
    ASSERT_NE(out.initiator, out.responder);
    ++ordered[out.initiator == 3 ? 0 : 1];
  }
  EXPECT_GT(ordered[0], 100);
  EXPECT_GT(ordered[1], 100);
}

}  // namespace
}  // namespace popbean
