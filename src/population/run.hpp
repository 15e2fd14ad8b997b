// Driving an engine to convergence and reporting the outcome.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>

#include "population/protocol.hpp"
#include "util/rng.hpp"

namespace popbean {

// Common surface of the simulation engines (agent, count, skip).
template <typename E>
concept EngineLike = requires(E engine, Xoshiro256ss& rng) {
  { engine.num_agents() } -> std::convertible_to<std::uint64_t>;
  { engine.steps() } -> std::convertible_to<std::uint64_t>;
  { engine.parallel_time() } -> std::convertible_to<double>;
  { engine.all_same_output() } -> std::convertible_to<bool>;
  { engine.dominant_output() } -> std::convertible_to<Output>;
  engine.step(rng);
};

enum class RunStatus {
  kConverged,   // all agents map to the same output
  kStepLimit,   // interaction budget exhausted first
  kAbsorbing,   // no productive interaction possible, outputs still mixed
};

struct RunResult {
  RunStatus status = RunStatus::kStepLimit;
  Output decided = 0;           // meaningful when converged
  std::uint64_t interactions = 0;
  double parallel_time = 0.0;   // interactions / n

  bool converged() const noexcept { return status == RunStatus::kConverged; }
};

// Steps the engine until every agent maps to the same output, the
// interaction budget runs out, or (skip engine only) the configuration is
// absorbing with mixed outputs. "All agents same output" is an absorbing
// predicate for every protocol in this library (paper Lemma A.1 for AVC;
// convergence_test.cpp checks the baselines), so stopping there matches the
// paper's convergence-time metric.
//
// `should_stop` is the loop's stride hook: it is called before the first
// step and after each step that takes the interaction clock `poll_interval`
// or more past its previous call. A true return abandons the run with
// std::nullopt — the engine is left mid-run and the caller decides whether
// to retry, checkpoint, or drop it. A completed run is bit-identical to
// run_to_convergence with the same inputs: the hook touches no randomness.
// This gives the crash-tolerant sweep its per-replication timeouts and SIGINT
// draining, and TraceRecorder its sample points.
template <EngineLike E, typename StopFn>
std::optional<RunResult> run_to_convergence_interruptible(
    E& engine, Xoshiro256ss& rng, std::uint64_t max_interactions,
    StopFn&& should_stop, std::uint64_t poll_interval = 1024) {
  if (poll_interval == 0) poll_interval = 1;
  if (should_stop()) return std::nullopt;
  std::uint64_t next_poll = engine.steps() + poll_interval;
  RunResult result;
  result.status = RunStatus::kConverged;
  while (!engine.all_same_output()) {
    if (engine.steps() >= max_interactions) {
      result.status = RunStatus::kStepLimit;
      break;
    }
    const std::uint64_t before = engine.steps();
    engine.step(rng);
    if (engine.steps() == before) {  // skip engine hit an absorbing config
      result.status = RunStatus::kAbsorbing;
      break;
    }
    if (engine.steps() >= next_poll) {
      if (should_stop()) return std::nullopt;
      next_poll = engine.steps() + poll_interval;
    }
  }
  if (result.converged()) result.decided = engine.dominant_output();
  result.interactions = engine.steps();
  result.parallel_time = engine.parallel_time();
  return result;
}

// The uninterruptible run: the never-stop hook compiles away.
template <EngineLike E>
RunResult run_to_convergence(
    E& engine, Xoshiro256ss& rng,
    std::uint64_t max_interactions = std::numeric_limits<std::uint64_t>::max()) {
  return *run_to_convergence_interruptible(engine, rng, max_interactions,
                                           [] { return false; });
}

}  // namespace popbean
