// Count-based simulation engines for the complete interaction graph.
//
// On a clique, agents are exchangeable, so the configuration is fully
// described by per-state counts. CompleteGraphEngine owns those counts and
// applies each interaction; a pair sampler picks the next interacting
// ordered pair of states and keeps its own index of the counts in sync.
//
// CountEngine samples with a Fenwick tree: the initiator state with
// probability c_i / n, the responder state from the remaining n − 1 agents —
// O(log s) per interaction. This is the engine of choice when the state count
// s is large (the paper's Figure 4 uses s up to 16340 and the "n-state AVC"
// of Figure 3 uses s ≈ n, where an s × s reaction table would not fit in
// memory). SkipEngine (skip_engine.hpp) swaps in a jump-chain sampler.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "population/configuration.hpp"
#include "population/engine_core.hpp"
#include "population/protocol.hpp"
#include "util/binary_io.hpp"
#include "util/check.hpp"
#include "util/fenwick.hpp"
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

// Uniformly random ordered pair of distinct agents by Fenwick-tree prefix
// search over the counts.
class FenwickSampler {
 public:
  static constexpr std::string_view kSnapshotKind = "engine/count";

  template <ProtocolLike P>
  FenwickSampler(const P&, const Counts& counts) : tree_(counts) {}

  template <ProtocolLike P>
  bool draw(const P& protocol, const Counts&, std::uint64_t n,
            Xoshiro256ss& rng, PairDraw& out) {
    const auto a = static_cast<State>(tree_.find_by_prefix(rng.below(n)));
    // Sample the responder from the other n − 1 agents: exclude one agent of
    // state a, draw, then restore.
    tree_.add(a, -1);
    const auto b = static_cast<State>(tree_.find_by_prefix(rng.below(n - 1)));
    tree_.add(a, +1);
    out.initiator = a;
    out.responder = b;
    out.transition = protocol.apply(a, b);
    return true;
  }

  void add(State q, std::int64_t delta) { tree_.add(q, delta); }

  struct Saved {};
  void save_state(BinaryWriter&) const {}
  static Saved read_state(BinaryReader&) { return {}; }
  void restore(const Counts& counts, Saved) { tree_ = FenwickTree(counts); }

 private:
  FenwickTree tree_;
};

template <ProtocolLike P>
class CountEngine : public CompleteGraphEngine<P, FenwickSampler> {
 public:
  using CompleteGraphEngine<P, FenwickSampler>::CompleteGraphEngine;
};

}  // namespace popbean
