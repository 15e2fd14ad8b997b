// Trajectory invariant checking.
//
// The AVC correctness argument rests on Invariant 4.3: the sum of encoded
// values never changes. These helpers let tests and examples assert such
// invariants along simulated trajectories of any engine.
#pragma once

#include <concepts>
#include <cstdint>

#include "core/avc.hpp"
#include "population/configuration.hpp"
#include "population/run.hpp"
#include "util/rng.hpp"

namespace popbean {

// Checks the AVC sum invariant (paper Invariant 4.3) against the value
// captured at construction.
class AvcSumInvariant {
 public:
  AvcSumInvariant(const avc::AvcProtocol& protocol, const Counts& initial)
      : protocol_(&protocol), expected_(protocol.total_value(initial)) {}

  std::int64_t expected() const noexcept { return expected_; }

  bool holds(const Counts& counts) const {
    return protocol_->total_value(counts) == expected_;
  }

 private:
  const avc::AvcProtocol* protocol_;
  std::int64_t expected_;
};

// Steps `engine` up to `max_interactions`, invoking `inspect(counts)` after
// every `stride` interactions (and once before the first step and once at
// the end). Stops early when all agents share an output. Returns the number
// of interactions executed.
//
// `inspect` is a template parameter rather than std::function: the hook
// fires inside the interaction loop, and a concrete callable inlines where
// type erasure would cost an indirect call (plus a possible allocation at
// the call site) per stride.
template <EngineLike E, std::invocable<const Counts&> Inspect>
std::uint64_t inspect_trajectory(E& engine, Xoshiro256ss& rng,
                                 std::uint64_t max_interactions,
                                 std::uint64_t stride, Inspect&& inspect) {
  const auto inspect_engine = [&] {
    inspect(engine.counts());
    return false;
  };
  run_to_convergence_interruptible(engine, rng, max_interactions,
                                   inspect_engine, stride);
  inspect_engine();
  return engine.steps();
}

}  // namespace popbean
