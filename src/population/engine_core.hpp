// The plumbing every simulation engine shares: protocol, population size,
// interaction clock, per-output tallies, probe recording and the
// force_move perturbation hook.
//
// The engines differ only in how they hold the configuration and pick the
// next interacting pair: AgentEngine keeps an agent array on an interaction
// graph; CompleteGraphEngine keeps per-state counts and delegates the pair
// draw to a sampler (block-sum tree for CountEngine, jump chain for
// SkipEngine). EngineCore is a CRTP base, so none of this costs a virtual
// call on the interaction path.
#pragma once

#include <cstdint>
#include <utility>

#include "obs/probe.hpp"
#include "population/configuration.hpp"
#include "population/protocol.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace popbean {

// `Engine` is the derived engine; it provides
// move_agent(from, to, rng), which moves one agent of state `from` to `to`
// in its own representation (the tallies are updated here).
template <typename Engine, ProtocolLike P>
class EngineCore {
 public:
  const P& protocol() const noexcept { return protocol_; }
  std::uint64_t num_agents() const noexcept { return num_agents_; }
  std::uint64_t steps() const noexcept { return steps_; }
  double parallel_time() const noexcept {
    return static_cast<double>(steps_) / static_cast<double>(num_agents_);
  }

  std::uint64_t output_agents(Output output) const noexcept {
    return out_count_[index(output)];
  }

  bool all_same_output() const noexcept {
    return out_count_[0] == 0 || out_count_[1] == 0;
  }

  // The output held by the larger camp (the unanimous one when converged).
  Output dominant_output() const noexcept {
    return out_count_[1] >= out_count_[0] ? 1 : 0;
  }

  // Attaches an interaction probe (src/obs); pass nullptr to detach. The
  // probe must outlive the engine or be detached first. Null interactions a
  // sampler jumps over are bulk-recorded, so the probe's interaction total
  // always matches steps(). Recording compiles out entirely when
  // POPBEAN_OBS_ENABLED=0.
  void attach_probe(obs::EngineProbe* probe) noexcept { probe_ = probe; }

  // External-perturbation hook (src/faults/): moves one uniformly random
  // agent of state `from` to state `to`, outside the protocol's transition
  // function. Does not count as an interaction.
  void force_move(State from, State to, Xoshiro256ss& rng) {
    POPBEAN_CHECK(from < protocol_.num_states());
    POPBEAN_CHECK(to < protocol_.num_states());
    if (from == to) return;
    static_cast<Engine&>(*this).move_agent(from, to, rng);
    move_output(from, to);
  }

 protected:
  // Validates `counts` against the protocol (arity, n >= 2) and tallies the
  // outputs.
  EngineCore(P protocol, const Counts& counts)
      : protocol_(std::move(protocol)), num_agents_(population_size(counts)) {
    POPBEAN_CHECK(counts.size() == protocol_.num_states());
    POPBEAN_CHECK(num_agents_ >= 2);
    count_outputs(counts);
  }

  // Re-derives the output tallies from a configuration (construction and
  // snapshot restore).
  void count_outputs(const Counts& counts) {
    out_count_[0] = 0;
    out_count_[1] = 0;
    for (State q = 0; q < counts.size(); ++q) {
      out_count_[index(protocol_.output(q))] += counts[q];
    }
  }

  void move_output(State from, State to) noexcept {
    const Output before = protocol_.output(from);
    const Output after = protocol_.output(to);
    if (before != after) {
      --out_count_[index(before)];
      ++out_count_[index(after)];
    }
  }

  // Records `nulls_before` skipped null interactions followed by the
  // interaction (a, b) on the attached probe.
  void record([[maybe_unused]] State a, [[maybe_unused]] State b,
              [[maybe_unused]] bool null,
              [[maybe_unused]] std::uint64_t nulls_before = 0) noexcept {
    POPBEAN_OBS_HOOK(if (probe_ != nullptr) {
      probe_->record_nulls(nulls_before);
      probe_->record(null ? obs::ReactionKind::kNull
                          : obs::classify_interaction(protocol_, a, b));
    })
  }

  P protocol_;
  std::uint64_t num_agents_;
  std::uint64_t steps_ = 0;

 private:
  static constexpr std::size_t index(Output o) noexcept {
    return o == 0 ? 0 : 1;
  }

  obs::EngineProbe* probe_ = nullptr;
  std::uint64_t out_count_[2] = {0, 0};
};

}  // namespace popbean
