// Job model of the resilient job service (DESIGN.md §9).
//
// A job is one client-requested majority experiment: a protocol, an
// instance (n, ε), a seed, an interaction cap, and a replication count,
// plus the service-facing envelope (id, client, priority, per-job
// deadline). Jobs are deterministic given their spec — replicate r of a
// job always runs on rng stream mix(seed, attempt, r) — so a retried
// attempt re-runs the identical trajectory and retries only ever help
// against *external* interference (chaos injection, a descheduled worker).
//
// Every job submitted to the service receives exactly one terminal
// response:
//
//   done        ran to its own spec (converged, hit its own cap, or halted)
//   truncated   the degradation ladder capped interactions below the spec
//   timeout     the per-job deadline expired (queued or mid-run)
//   failed      worker fault, circuit breaker open, or shutdown drain
//   overloaded  rejected at admission (queue full / quota / draining)
//   invalid     the request line never parsed into a job
//
// The first four are outcomes of *accepted* jobs; the last two are
// rejections. The stress harness's ledger (tools/popbean-stress) holds the
// service to the exactly-one-response contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

namespace popbean::serve {

enum class JobPriority : int { kLow = 0, kNormal = 1, kHigh = 2 };
inline constexpr int kNumPriorities = 3;

const char* to_string(JobPriority priority);

struct JobSpec {
  std::string id;          // client-chosen, echoed verbatim in the response
  std::string client;      // quota key under ShedPolicy::kClientQuota
  std::string protocol = "avc";  // avc | four-state | three-state
  int m = 3;               // AVC parameters (ignored by the baselines)
  int d = 1;
  std::uint64_t n = 1000;
  double epsilon = 0.02;
  std::uint64_t seed = 1;
  std::uint64_t max_interactions = 0;  // 0 = 500·n (a generous default cap)
  std::uint32_t replicates = 1;
  // Voting replicas for this job: 0 = the service default, otherwise an odd
  // count (validated at the codec and again by ReplicatedExecutor).
  std::uint32_t vote_replicas = 0;
  JobPriority priority = JobPriority::kNormal;
  // Wall-clock budget from admission to terminal response; zero means the
  // service default applies.
  std::chrono::milliseconds deadline{0};
  // Request-scoped trace id (DESIGN.md §13), minted at codec decode (or at
  // admission for directly-submitted specs) and echoed in the response; 0 =
  // untraced. Rides the spec unchanged across shard spills and retries so
  // the whole pipeline lands on one async span tree.
  std::uint64_t trace_id = 0;
  // Opaque front-end routing token (DESIGN.md §14): the TCP server stamps
  // the submitting connection's id here, and every terminal-response site
  // echoes it back unchanged so the response can be steered to the right
  // socket. Never serialized by the codec — it is meaningful only inside
  // the process that minted it (a remote shard re-stamps its own). 0 =
  // no front end (stdin, tests, direct submits).
  std::uint64_t origin = 0;

  std::uint64_t effective_max_interactions() const noexcept {
    return max_interactions != 0 ? max_interactions : 500 * n;
  }
};

enum class JobOutcome {
  kDone,
  kTruncated,
  kTimeout,
  kFailed,
  kOverloaded,
  kInvalid,
};
inline constexpr int kNumOutcomes = 6;

const char* to_string(JobOutcome outcome);

// Aggregate simulation result over a job's replicates (valid for kDone and
// kTruncated responses).
struct JobResult {
  std::uint32_t replicates_run = 0;
  std::uint32_t converged = 0;
  std::uint32_t correct = 0;
  std::uint32_t wrong = 0;
  std::uint32_t step_limit = 0;
  std::uint32_t absorbing = 0;
  double mean_parallel_time = 0.0;  // over converged replicates
};

struct JobResponse {
  std::string id;
  JobOutcome outcome = JobOutcome::kFailed;
  std::string error;        // reason for failed/overloaded/invalid
  JobResult result;         // meaningful for done/truncated
  std::uint32_t attempts = 0;
  bool degraded = false;    // the ladder shrank replication for this job
  // Replicated-voting labels (response schema v2): how many voting replicas
  // actually ran, whether the result is majority-voted, whether the family
  // was quarantined (forced unvoted), and how many replicas were outvoted.
  std::uint32_t replicas_used = 1;
  bool voted = false;
  bool quarantined = false;
  std::uint32_t divergent = 0;
  double queue_ms = 0.0;    // admission → first attempt start
  double run_ms = 0.0;      // first attempt start → terminal
  // Trace id echoed from the spec (0 = untraced) — the join key between
  // this response line, the Chrome trace file, and histogram exemplars.
  std::uint64_t trace_id = 0;
  // Which router shard served the job (0 for an unsharded JobService); set
  // by ShardRouter so per-connection ledgers can attribute work.
  std::size_t shard = 0;
  // Echo of JobSpec::origin — the connection token the TCP front end uses
  // to route this response back to its socket. Not part of the wire schema.
  std::uint64_t origin = 0;
};

// A terminal response echoing the spec's id, trace id and origin.
inline JobResponse response_for(const JobSpec& spec, JobOutcome outcome,
                                std::string reason) {
  JobResponse response;
  response.id = spec.id;
  response.outcome = outcome;
  response.error = std::move(reason);
  response.trace_id = spec.trace_id;
  response.origin = spec.origin;
  return response;
}

inline const char* to_string(JobPriority priority) {
  switch (priority) {
    case JobPriority::kLow: return "low";
    case JobPriority::kNormal: return "normal";
    case JobPriority::kHigh: return "high";
  }
  return "normal";
}

inline const char* to_string(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kDone: return "done";
    case JobOutcome::kTruncated: return "truncated";
    case JobOutcome::kTimeout: return "timeout";
    case JobOutcome::kFailed: return "failed";
    case JobOutcome::kOverloaded: return "overloaded";
    case JobOutcome::kInvalid: return "invalid";
  }
  return "failed";
}

}  // namespace popbean::serve
