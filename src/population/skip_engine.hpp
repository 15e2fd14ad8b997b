// Null-step-skipping engine (jump-chain simulation) for the complete graph.
//
// For protocols with few states, most late-run interactions are null: they
// pick a pair whose transition changes nothing. The paper's Figure 3 runs
// the four-state protocol at ε = 1/n with n = 10^5, which needs ~10^11 raw
// interactions but only ~10^6 *productive* ones. This sampler draws the
// embedded chain exactly:
//
//   1. With W = Σ over reactive ordered state pairs (i, j) of c_i·(c_j − [i=j])
//      and T = n(n−1) total ordered agent pairs, the number of null
//      interactions before the next productive one is Geometric(W / T).
//   2. The productive pair is then (i, j) with probability ∝ its weight.
//
// Both facts follow from interactions being i.i.d. uniform over ordered
// agent pairs, so the simulated distribution over (configuration trajectory,
// interaction counts) is identical to direct simulation — verified by
// distribution-equivalence tests against AgentEngine/CountEngine.
//
// Cost: O(s) per productive interaction (row scan) and O(s²) memory for the
// tabulated transition function; intended for s up to a few hundred.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "population/configuration.hpp"
#include "population/count_engine.hpp"
#include "population/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

// Jump-chain pair sampler: skips the pending run of null interactions and
// draws the next productive ordered pair, or marks the configuration
// absorbing when there is none.
class JumpChainSampler {
 public:
  // Largest supported state count; the δ table is s² entries.
  static constexpr std::size_t kMaxStates = 1024;
  static constexpr std::string_view kSnapshotKind = "engine/skip";

  template <ProtocolLike P>
  JumpChainSampler(const P& protocol, const Counts& counts)
      : num_states_(protocol.num_states()) {
    POPBEAN_CHECK_MSG(num_states_ <= kMaxStates,
                      "SkipEngine tabulates s^2 transitions; use CountEngine "
                      "for protocols with many states");
    table_.resize(num_states_ * num_states_);
    reactive_.resize(num_states_ * num_states_);
    rows_by_responder_.resize(num_states_);
    for (State a = 0; a < num_states_; ++a) {
      for (State b = 0; b < num_states_; ++b) {
        const Transition t = protocol.apply(a, b);
        table_[cell(a, b)] = t;
        reactive_[cell(a, b)] = !is_null(t, a, b);
        if (reactive_[cell(a, b)]) rows_by_responder_[b].push_back(a);
      }
    }
    sum_responders(counts);
  }

  // True once no productive interaction is possible (the configuration is
  // absorbing); step() is then a no-op until a force_move changes the
  // configuration.
  bool absorbing() const noexcept { return absorbing_; }

  // Total weight of productive ordered agent pairs in `counts` (0 ⇔
  // absorbing).
  std::uint64_t reactive_weight(const Counts& counts) const {
    std::uint64_t total = 0;
    for (State i = 0; i < num_states_; ++i) total += row_weight(counts, i);
    return total;
  }

  template <ProtocolLike P>
  bool draw(const P&, const Counts& counts, std::uint64_t n,
            Xoshiro256ss& rng, PairDraw& out) {
    if (absorbing_) return false;
    const std::uint64_t weight = reactive_weight(counts);
    if (weight == 0) {
      absorbing_ = true;
      return false;
    }
    const double total_pairs =
        static_cast<double>(n) * static_cast<double>(n - 1);
    const double p = static_cast<double>(weight) / total_pairs;
    out.nulls_before = rng.geometric_failures(p);

    // Pick the productive ordered pair ∝ c_i · (c_j − [i = j]).
    std::uint64_t target = rng.below(weight);
    State i = 0;
    for (;; ++i) {
      POPBEAN_DCHECK(i < num_states_);
      const std::uint64_t w = row_weight(counts, i);
      if (target < w) break;
      target -= w;
    }
    POPBEAN_DCHECK(counts[i] > 0);
    target /= counts[i];  // responder choice repeats identically per initiator
    State j = 0;
    for (;; ++j) {
      POPBEAN_DCHECK(j < num_states_);
      if (!reactive_[cell(i, j)]) continue;
      const std::uint64_t w = counts[j] - (i == j ? 1 : 0);
      if (target < w) break;
      target -= w;
    }
    out.initiator = i;
    out.responder = j;
    out.transition = table_[cell(i, j)];
    return true;
  }

  // Any change to the configuration (a reaction or an injected force_move)
  // may re-enable reactions, so it clears the absorbing flag; step()
  // re-derives it.
  void add(State q, std::int64_t delta) {
    for (State row : rows_by_responder_[q]) {
      responder_sum_[row] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(responder_sum_[row]) + delta);
    }
    absorbing_ = false;
  }

  // Snapshot payload: the absorbing flag.
  void save_state(BinaryWriter& out) const { out.u8(absorbing_ ? 1 : 0); }
  static bool read_state(BinaryReader& in) {
    const std::uint8_t absorbing = in.u8();
    POPBEAN_CHECK_MSG(absorbing <= 1, "snapshot absorbing flag corrupt");
    return absorbing != 0;
  }
  void restore(const Counts& counts, bool absorbing) {
    absorbing_ = absorbing;
    sum_responders(counts);
  }

 private:
  std::size_t cell(State a, State b) const noexcept {
    return static_cast<std::size_t>(a) * num_states_ + b;
  }

  // Weight of productive ordered pairs whose initiator has state i.
  std::uint64_t row_weight(const Counts& counts, State i) const noexcept {
    const std::uint64_t base = counts[i] * responder_sum_[i];
    return reactive_[cell(i, i)] ? base - counts[i] : base;
  }

  void sum_responders(const Counts& counts) {
    responder_sum_.assign(num_states_, 0);
    for (State i = 0; i < num_states_; ++i) {
      for (State j = 0; j < num_states_; ++j) {
        if (reactive_[cell(i, j)]) responder_sum_[i] += counts[j];
      }
    }
  }

  std::size_t num_states_;
  std::vector<Transition> table_;
  std::vector<char> reactive_;
  std::vector<std::vector<State>> rows_by_responder_;
  std::vector<std::uint64_t> responder_sum_;
  bool absorbing_ = false;
};

template <ProtocolLike P>
class SkipEngine : public CompleteGraphEngine<P, JumpChainSampler> {
 public:
  static constexpr std::size_t kMaxStates = JumpChainSampler::kMaxStates;

  using CompleteGraphEngine<P, JumpChainSampler>::CompleteGraphEngine;

  bool absorbing() const noexcept { return this->sampler().absorbing(); }
  std::uint64_t reactive_weight() const {
    return this->sampler().reactive_weight(this->counts());
  }
};

}  // namespace popbean
