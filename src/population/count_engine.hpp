// Count-based simulation engines for the complete interaction graph.
//
// On a clique, agents are exchangeable, so the configuration is fully
// described by per-state counts. CompleteGraphEngine owns those counts and
// applies each interaction; a pair sampler picks the next interacting
// ordered pair of states and keeps its own index of the counts in sync.
//
// CountEngine samples by prefix search over a 16-ary tree of block sums: the
// initiator state with probability c_i / n, the responder state from the
// remaining n − 1 agents — O(log s) per interaction. This is the engine of choice when the state count
// s is large (the paper's Figure 4 uses s up to 16340 and the "n-state AVC"
// of Figure 3 uses s ≈ n, where an s × s reaction table would not fit in
// memory). SkipEngine (skip_engine.hpp) swaps in a jump-chain sampler.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "population/configuration.hpp"
#include "population/engine_core.hpp"
#include "population/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

// One interaction drawn by a pair sampler: the ordered pair of states, δ on
// it, and the number of null interactions jumped over before it.
struct PairDraw {
  State initiator = 0;
  State responder = 0;
  Transition transition{0, 0};
  std::uint64_t nulls_before = 0;
};

// Sampler is constructed from (protocol, counts) and provides:
//   draw(protocol, counts, n, rng, out) -> bool  the next interaction, or
//       false (clock unchanged) when no productive pair exists;
//   add(q, delta)                                 counts[q] changed by delta;
//   save_state(out), read_state(in) -> Saved, restore(counts, saved)
//       its snapshot payload, written between the step count and the counts;
//   kSnapshotKind.
template <ProtocolLike P, typename Sampler>
class CompleteGraphEngine
    : public EngineCore<CompleteGraphEngine<P, Sampler>, P> {
  using Core = EngineCore<CompleteGraphEngine<P, Sampler>, P>;
  friend Core;

 public:
  CompleteGraphEngine(P protocol, const Counts& counts)
      : Core(std::move(protocol), counts),
        counts_(counts),
        sampler_(this->protocol_, counts_) {}

  const Counts& counts() const noexcept { return counts_; }

  // --- snapshot hooks (src/recovery) ---------------------------------------
  // Serializes the step count, the sampler's own state and the counts; the
  // sampler's index and the output tallies are derived state, rebuilt (and
  // cross-checked) on load.
  static constexpr std::string_view kSnapshotKind = Sampler::kSnapshotKind;

  void save_state(BinaryWriter& out) const {
    out.u64(this->steps_);
    sampler_.save_state(out);
    out.vec_u64(counts_);
  }

  void load_state(BinaryReader& in) {
    const std::uint64_t steps = in.u64();
    const auto saved = Sampler::read_state(in);
    Counts counts = in.vec_u64();
    POPBEAN_CHECK_MSG(counts.size() == this->protocol_.num_states(),
                      "snapshot state count does not match the protocol");
    POPBEAN_CHECK_MSG(population_size(counts) == this->num_agents_,
                      "snapshot population size does not match this engine");
    counts_ = std::move(counts);
    sampler_.restore(counts_, saved);
    this->steps_ = steps;
    this->count_outputs(counts_);
  }

  // Executes the next interaction the sampler draws (after any null run it
  // jumps over); leaves steps() unchanged if it finds no productive pair.
  void step(Xoshiro256ss& rng) {
    PairDraw d;
    if (!sampler_.draw(this->protocol_, counts_, this->num_agents_, rng, d)) {
      return;
    }
    const State a = d.initiator;
    const State b = d.responder;
    const Transition t = d.transition;
    const bool null = is_null(t, a, b);
    if (!null) {
      adjust(a, -1);
      adjust(b, -1);
      adjust(t.initiator, +1);
      adjust(t.responder, +1);
      this->move_output(a, t.initiator);
      this->move_output(b, t.responder);
    }
    this->record(a, b, null, d.nulls_before);
    this->steps_ += d.nulls_before + 1;
  }

 protected:
  const Sampler& sampler() const noexcept { return sampler_; }

 private:
  // force_move's step: agents of equal state are exchangeable here, so no
  // sampling is needed.
  void move_agent(State from, State to, Xoshiro256ss&) {
    POPBEAN_CHECK_MSG(counts_[from] > 0,
                      "force_move: no agent holds `from` state");
    adjust(from, -1);
    adjust(to, +1);
  }

  void adjust(State q, std::int64_t delta) {
    counts_[q] = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(counts_[q]) + delta);
    sampler_.add(q, delta);
  }

  Counts counts_;
  Sampler sampler_;
};

// Uniformly random ordered pair of distinct agents by prefix search over the
// counts. The index is a tree of block sums whose leaves are the engine's
// counts themselves: level 0 holds the sums of blocks of kFanout counts,
// each level above the sums of kFanout entries of the one below, up to the
// single total. Every level is zero-padded to whole blocks. Both searches
// descend together and end in a scan of their leaf blocks.
//
// The initiator is agent i = below(n) and the responder agent j = below(n − 1)
// among the other n − 1, renumbered past i, both in state order. That maps
// each pair of draws to the same states as removing one agent of the
// initiator's state and searching the remaining n − 1.
class BlockSumSampler {
 public:
  static constexpr std::string_view kSnapshotKind = "engine/count";
  static constexpr std::size_t kFanout = 16;

  template <ProtocolLike P>
  BlockSumSampler(const P&, const Counts& counts) : BlockSumSampler(counts) {}
  explicit BlockSumSampler(const Counts& counts) { rebuild(counts); }

  template <ProtocolLike P>
  bool draw(const P& protocol, const Counts& counts, std::uint64_t n,
            Xoshiro256ss& rng, PairDraw& out) {
    const std::uint64_t i = rng.below(n);
    std::uint64_t j = rng.below(n - 1);
    j += j >= i ? 1 : 0;
    const auto [a, b] = find_pair(counts, i, j);
    out.initiator = a;
    out.responder = b;
    out.transition = protocol.apply(a, b);
    return true;
  }

  // The states of agents u and v (each < total()) in state order.
  std::pair<State, State> find_pair(const Counts& counts, std::uint64_t u,
                                    std::uint64_t v) const {
    std::size_t pu = 0;
    std::size_t pv = 0;
    for (std::size_t level = begin_.size() - 1; level-- > 0;) {
      const std::uint64_t* sums = sums_.data() + begin_[level];
      pu = pu * kFanout + scan(sums + pu * kFanout, u);
      pv = pv * kFanout + scan(sums + pv * kFanout, v);
    }
    pu = pu * kFanout + scan(counts.data() + pu * kFanout, u);
    pv = pv * kFanout + scan(counts.data() + pv * kFanout, v);
    POPBEAN_DCHECK(pu < counts.size() && pv < counts.size());
    return {static_cast<State>(pu), static_cast<State>(pv)};
  }

  // The leaf counts[q] has already changed by delta.
  void add(State q, std::int64_t delta) {
    std::size_t k = q;
    for (const std::size_t begin : begin_) {
      k /= kFanout;
      sums_[begin + k] += static_cast<std::uint64_t>(delta);
    }
  }

  std::uint64_t total() const noexcept { return sums_[begin_.back()]; }

  struct Saved {};
  void save_state(BinaryWriter&) const {}
  static Saved read_state(BinaryReader&) { return {}; }
  void restore(const Counts& counts, Saved) { rebuild(counts); }

 private:
  // Index within the block of the child holding `target`, which becomes the
  // offset into that child. Stops before the block's end: target < its sum.
  static std::size_t scan(const std::uint64_t* block, std::uint64_t& target) {
    std::size_t k = 0;
    while (block[k] <= target) target -= block[k++];
    return k;
  }

  void rebuild(const Counts& counts) {
    begin_.clear();
    std::size_t size = counts.size();
    std::size_t end = 0;
    do {
      size = (size + kFanout - 1) / kFanout;
      begin_.push_back(end);
      end += (size + kFanout - 1) / kFanout * kFanout;
    } while (size > 1);
    sums_.assign(end, 0);
    for (std::size_t q = 0; q < counts.size(); ++q) {
      if (counts[q] != 0) {
        add(static_cast<State>(q), static_cast<std::int64_t>(counts[q]));
      }
    }
  }

  std::vector<std::uint64_t> sums_;  // the levels, bottom up
  std::vector<std::size_t> begin_;   // offset of each level in sums_
};

template <ProtocolLike P>
class CountEngine : public CompleteGraphEngine<P, BlockSumSampler> {
 public:
  using CompleteGraphEngine<P, BlockSumSampler>::CompleteGraphEngine;
};

}  // namespace popbean
