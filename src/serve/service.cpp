#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "core/avc.hpp"
#include "faults/fault_model.hpp"
#include "faults/perturbed_engine.hpp"
#include "faults/schedule_model.hpp"
#include "harness/experiment.hpp"
#include "obs/context.hpp"
#include "obs/pool_obs.hpp"
#include "population/count_engine.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "recovery/divergence.hpp"
#include "serve/replicate.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "verify/builtin_invariants.hpp"
#include "zoo/registry.hpp"

namespace popbean::serve {

enum class AttemptKind { kOk, kFailed, kTimeout, kShutdown };

// What one attempt returns. `vote` stays default (voted = false) for
// attempts that never ran a replica (chaos kFail, a thrown dispatch).
struct Attempt {
  AttemptKind kind = AttemptKind::kFailed;
  JobResult result;
  std::string error;
  VoteOutcome vote;
  // The first outvoted replica's stream, for telemetry and replay capture.
  std::uint64_t minority_stream = 0;
  bool minority_corrupt = false;
  std::optional<recovery::DivergenceCapture> capture;  // written pair, if any
};

// Everything one attempt needs beyond the spec. The plan stage fills it once
// per job (ladder-adjusted replication counts, chaos rate, trace ids); the
// attempt loop sets only attempt_index, corrupt_replica and capture_allowed.
struct AttemptPlan {
  std::uint32_t replicates = 1;
  std::uint64_t max_interactions = 0;
  std::uint32_t vote_replicas = 1;
  int corrupt_replica = -1;  // -1 none, -2 every replica, else one index
  double corrupt_rate = 0.0;
  std::uint64_t attempt_index = 0;
  std::uint64_t poll_interval = 1024;
  std::uint64_t sequence = 0;
  std::string capture_dir;  // empty = captures off
  bool capture_allowed = false;  // set only when capture_dir is non-empty
  // Request-scoped tracing (nullptr = untraced): replica spans record onto
  // the job's async track.
  obs::TraceCollector* trace = nullptr;
  std::uint64_t trace_id = 0;
};

namespace {

using FpMillis = std::chrono::duration<double, std::milli>;

// The one mapping of an attempt kind (indexed by AttemptKind): its `kind`
// trace arg and the outcome it gives the job as the last attempt.
constexpr struct { const char* name; JobOutcome outcome; } kKinds[] = {
    {"ok", JobOutcome::kDone}, {"failed", JobOutcome::kFailed},
    {"timeout", JobOutcome::kTimeout}, {"shutdown", JobOutcome::kFailed}};

// Runs one voting replica: all statistical replicates on their own RNG
// streams (replicate.hpp's replica_stream — replica 0 reuses the legacy
// a·1000003 + r layout). Returns nullopt when interrupted (deadline /
// abandon / cancel), which the vote treats as a non-matching slot.
template <typename P, typename StopFn>
std::optional<ReplicaPayload> run_replica(
    const P& protocol, const JobSpec& spec, const Counts& initial,
    const MajorityInstance& instance, const AttemptPlan& plan, bool corrupt,
    std::uint32_t replica, const StopFn& should_stop) {
  // Per-replica span on the job's async track: replica index plus the RNG
  // stream of its first replicate (hex string args — 64-bit streams exceed
  // double precision). Recorded on every exit, including interruption.
  const auto replica_start = obs::TraceCollector::Clock::now();
  const auto record_replica = [&](bool interrupted) {
    if (plan.trace == nullptr) return;
    plan.trace->async_span(
        "replica", "serve", plan.trace_id, replica_start,
        obs::TraceCollector::Clock::now(),
        {{"replica", static_cast<double>(replica)},
         {"attempt", static_cast<double>(plan.attempt_index)},
         {"corrupt", corrupt ? 1.0 : 0.0},
         {"interrupted", interrupted ? 1.0 : 0.0}},
        {{"stream0", obs::trace_id_hex(replica_stream(plan.attempt_index, 0,
                                                      replica))}});
  };
  ReplicaPayload payload;
  payload.corrupt = corrupt;
  double time_sum = 0.0;
  for (std::uint32_t r = 0; r < plan.replicates; ++r) {
    const std::uint64_t stream =
        replica_stream(plan.attempt_index, r, replica);
    Xoshiro256ss rng(spec.seed, stream);
    std::optional<RunResult> result;
    if (corrupt) {
      auto engine = faults::make_perturbed(
          CountEngine<P>(protocol, initial),
          faults::TransientCorruption(plan.corrupt_rate),
          faults::UniformSchedule{}, rng);
      result = run_to_convergence_interruptible(
          engine, rng, plan.max_interactions, should_stop, plan.poll_interval);
    } else {
      CountEngine<P> engine(protocol, initial);
      result = run_to_convergence_interruptible(
          engine, rng, plan.max_interactions, should_stop, plan.poll_interval);
    }
    if (!result) {
      record_replica(true);
      return std::nullopt;
    }
    payload.streams.push_back(stream);
    append_decision(payload.bytes, *result);
    ++payload.result.replicates_run;
    switch (result->status) {
      case RunStatus::kConverged:
        ++payload.result.converged;
        time_sum += result->parallel_time;
        if (result->decided == instance.correct_output()) {
          ++payload.result.correct;
        } else {
          ++payload.result.wrong;
        }
        break;
      case RunStatus::kStepLimit:
        ++payload.result.step_limit;
        break;
      case RunStatus::kAbsorbing:
        ++payload.result.absorbing;
        break;
    }
  }
  if (payload.result.converged > 0) {
    payload.result.mean_parallel_time =
        time_sum / static_cast<double>(payload.result.converged);
  }
  record_replica(false);
  return payload;
}

// Runs one attempt: k voting replicas sequentially, then a vote_memory-
// style majority over the canonical decision payloads. k = 1 degenerates to
// exactly the pre-voting single-run path (same streams, same result).
template <typename P, typename StopFn>
Attempt run_attempt(const P& protocol,
                    const verify::LinearInvariant& invariant,
                    const JobSpec& spec, const AttemptPlan& plan,
                    const StopFn& should_stop,
                    const std::atomic<bool>& cancel) {
  Attempt attempt;
  const MajorityInstance instance = make_instance(spec.n, spec.epsilon);
  const Counts initial = majority_instance_with_margin(
      protocol, instance.n, instance.margin, instance.majority);

  ReplicatedExecutor executor(plan.vote_replicas);
  std::vector<std::optional<ReplicaPayload>> slots;
  attempt.vote = executor.execute(slots, [&](std::uint32_t j) {
    const bool corrupt =
        plan.corrupt_replica == -2 ||
        (plan.corrupt_replica >= 0 &&
         static_cast<std::uint32_t>(plan.corrupt_replica) == j);
    return run_replica(protocol, spec, initial, instance, plan, corrupt, j,
                       should_stop);
  });
  const VoteOutcome& vote = attempt.vote;

  if (!vote.majority_found) {
    if (vote.abandoned > 0) {
      // Killed replicas, not disagreeing ones — the job ran out of time (or
      // the service is shutting down); the family is not to blame.
      const bool shutdown = cancel.load(std::memory_order_relaxed);
      attempt.kind = shutdown ? AttemptKind::kShutdown : AttemptKind::kTimeout;
      if (shutdown) attempt.error = "shutdown";
      return attempt;
    }
    attempt.error = "no_majority";
    return attempt;
  }

  const ReplicaPayload& winner = *slots[vote.winner];
  if (vote.divergent > 0) {
    const std::uint32_t loser = vote.minority.front();
    const ReplicaPayload& minority = *slots[loser];
    const std::uint32_t group =
        first_diverging_replicate(winner, minority).value_or(0);
    const std::size_t idx =
        std::min<std::size_t>(group, minority.streams.size() - 1);
    attempt.minority_stream = minority.streams[idx];
    attempt.minority_corrupt = minority.corrupt;
    // Freeze the outvoted run for popbean-replay. Only corrupt replicas are
    // capturable (§7 recording needs an active fault model); a clean-vs-
    // clean divergence would be a real service bug, and telemetry still
    // carries its (seed, stream) pair.
    if (plan.capture_allowed && minority.corrupt) {
      recovery::RecordSpec record;
      record.protocol_name = spec.protocol;
      record.seed = spec.seed;
      record.stream = attempt.minority_stream;
      record.max_interactions = plan.max_interactions;
      record.rate = plan.corrupt_rate;
      record.epsilon = spec.epsilon;
      const std::string tag = "div-" + spec.id + "-seq" +
                              std::to_string(plan.sequence) + "-a" +
                              std::to_string(plan.attempt_index) + "-r" +
                              std::to_string(loser);
      attempt.capture = recovery::record_divergent_replica(
          protocol, invariant, initial, plan.corrupt_rate, record,
          plan.capture_dir, tag);
    }
  }

  attempt.kind = AttemptKind::kOk;
  attempt.result = winner.result;
  return attempt;
}

template <typename StopFn>
Attempt dispatch_attempt(const JobSpec& spec, const AttemptPlan& plan,
                         const StopFn& should_stop,
                         const std::atomic<bool>& cancel) {
  if (spec.protocol == "four-state") {
    return run_attempt(FourStateProtocol{},
                       verify::four_state_difference_invariant(), spec, plan,
                       should_stop, cancel);
  }
  if (spec.protocol == "three-state") {
    const ThreeStateProtocol protocol{};
    return run_attempt(protocol,
                       recovery::trivial_invariant(protocol.num_states()),
                       spec, plan, should_stop, cancel);
  }
  if (zoo::is_zoo_spec(spec.protocol)) {
    // Shared immutable runtimes (zoo/registry.hpp) — safe across workers.
    // An unknown member throws; execute() surfaces it as a failed job.
    return zoo::with_zoo_runtime(spec.protocol, [&](const auto& runtime) {
      return run_attempt(runtime,
                         recovery::trivial_invariant(runtime.num_states()),
                         spec, plan, should_stop, cancel);
    });
  }
  POPBEAN_CHECK_MSG(spec.protocol == "avc",
                    "JobService: unknown protocol " + spec.protocol);
  const avc::AvcProtocol protocol(spec.m, spec.d);
  return run_attempt(protocol, verify::avc_sum_invariant(protocol), spec,
                     plan, should_stop, cancel);
}

// Config/sink validation runs while the *first* members initialize, before
// the thread pool and watchdog threads exist — throwing from the constructor
// body after those threads start would std::terminate on the joinable
// std::thread member during unwinding.
ServiceConfig validated(ServiceConfig config) {
  POPBEAN_CHECK_MSG(
      config.vote_replicas >= 1 && config.vote_replicas % 2 == 1,
      "JobService: vote_replicas must be odd (even replica counts can tie "
      "and a tie has no majority)");
  return config;
}

JobService::ResponseFn validated(JobService::ResponseFn on_response) {
  POPBEAN_CHECK_MSG(on_response != nullptr,
                    "JobService: a response sink is required");
  return on_response;
}

}  // namespace

JobService::MetricIds JobService::register_metrics(
    obs::MetricsRegistry& registry) {
  const Histogram latency_shape = Histogram::logarithmic(1e-3, 3.6e6, 48);
  MetricIds ids;
  ids.accepted = registry.counter("serve.accepted");
  ids.rejected = registry.counter("serve.rejected");
  ids.invalid = registry.counter("serve.invalid");
  ids.completed = registry.counter("serve.completed");
  ids.truncated = registry.counter("serve.truncated");
  ids.failed = registry.counter("serve.failed");
  ids.timeouts = registry.counter("serve.timeouts");
  ids.retries = registry.counter("serve.retries");
  ids.shed = registry.counter("serve.shed");
  ids.circuit_open = registry.counter("serve.circuit_open");
  ids.watchdog_abandons = registry.counter("serve.watchdog_abandons");
  ids.voted = registry.counter("serve.vote.voted");
  ids.divergences = registry.counter("serve.vote.divergences");
  ids.no_majority = registry.counter("serve.vote.no_majority");
  ids.quarantine_entered = registry.counter("serve.vote.quarantine_entered");
  ids.quarantine_recovered =
      registry.counter("serve.vote.quarantine_recovered");
  ids.quarantined_jobs = registry.counter("serve.vote.quarantined_jobs");
  ids.captures = registry.counter("serve.vote.captures");
  ids.live = registry.gauge("serve.live");
  ids.draining = registry.gauge("serve.draining");
  ids.queue_depth = registry.gauge("serve.queue_depth");
  ids.queue_capacity = registry.gauge("serve.queue_capacity");
  ids.inflight = registry.gauge("serve.inflight");
  ids.degradation_level = registry.gauge("serve.degradation_level");
  ids.breakers_open = registry.gauge("serve.breakers_open");
  ids.overloaded = registry.gauge("serve.overloaded");
  ids.quarantined_families = registry.gauge("serve.vote.quarantined_families");
  ids.queue_ms = registry.histogram("serve.queue_ms", latency_shape);
  ids.run_ms = registry.histogram("serve.run_ms", latency_shape);
  return ids;
}

JobService::JobService(ServiceConfig config, ResponseFn on_response)
    : config_(validated(std::move(config))),
      on_response_(validated(std::move(on_response))),
      owned_metrics_(config_.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      metrics_(config_.metrics != nullptr ? *config_.metrics
                                          : *owned_metrics_),
      ids_(register_metrics(metrics_)),
      queue_(config_.admission),
      breakers_(config_.breaker),
      overload_gauge_(config_.degradation.high_watermark,
                      config_.degradation.low_watermark),
      pool_(config_.threads),
      watchdog_([this] { watchdog_loop(); }) {
  // Observer attached before any submit — the pool's attach-then-submit
  // contract (thread_pool.hpp).
  obs::attach_thread_pool(pool_, metrics_);
  metrics_.set(ids_.live, 1.0);
  metrics_.set(ids_.queue_capacity,
               static_cast<double>(config_.admission.capacity));
}

JobService::~JobService() {
  drain(config_.drain_deadline);
  {
    std::lock_guard lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  pool_.shutdown();
  metrics_.set(ids_.live, 0.0);
}

void JobService::emit(JobResponse response) {
  response.shard = config_.shard_index;
  std::lock_guard lock(response_mutex_);
  on_response_(response);
}

void JobService::trace_job_end(std::uint64_t trace_id, const char* outcome,
                               const char* reason) {
  if (config_.trace == nullptr || trace_id == 0) return;
  obs::TraceCollector::StringArgs sargs{{"outcome", outcome}};
  if (reason != nullptr) sargs.emplace_back("reason", reason);
  config_.trace->async_end("job", "serve", trace_id, {}, std::move(sargs));
}

bool JobService::submit(JobSpec spec) {
  return !submit_internal(std::move(spec), true).has_value();
}

std::optional<std::string> JobService::try_submit(JobSpec spec) {
  return submit_internal(std::move(spec), false);
}

std::optional<std::string> JobService::submit_internal(JobSpec spec,
                                                       bool emit_rejection) {
  const auto now = Clock::now();
  // Direct submits (tests, tools skipping the codec) get their trace id
  // minted here so admission is never the untraced part of the tree.
  const bool traced = config_.trace != nullptr;
  if (traced && spec.trace_id == 0) spec.trace_id = obs::mint_trace_id();
  std::vector<JobResponse> to_emit;
  std::optional<std::string> rejection;
  {
    std::lock_guard lock(mutex_);
    if (draining_) {
      rejection = "draining";
    } else {
      const std::chrono::milliseconds budget =
          spec.deadline.count() != 0 ? spec.deadline : config_.default_deadline;
      const Deadline deadline = budget.count() != 0
                                    ? Deadline::after(budget, now)
                                    : Deadline::unlimited();
      // Pushes a copy: the one reject path below still answers from `spec`.
      AdmitResult result =
          queue_.push(QueuedJob{spec, deadline, now, next_sequence_++});
      if (result.admitted) {
        metrics_.add(ids_.accepted);
        // The root "job" span opens at admission; exactly one terminal site
        // (run_job, shed, eviction, drain flush) closes it.
        if (traced) {
          config_.trace->async_begin(
              "job", "serve", spec.trace_id,
              {{"shard", static_cast<double>(config_.shard_index)}},
              {{"job", spec.id}, {"protocol", spec.protocol}});
        }
        if (result.evicted.has_value()) {
          drop_locked(*result.evicted, "shed_deadline", to_emit);
        }
        update_overload_locked(now, to_emit);
        pump_locked();
      } else {
        rejection = std::move(result.reason);
      }
    }
    if (rejection.has_value()) {
      metrics_.add(ids_.rejected);
      if (traced) {
        config_.trace->async_instant("reject", "serve", spec.trace_id, {},
                                     {{"reason", *rejection}});
      }
      if (emit_rejection) {
        to_emit.push_back(
            response_for(spec, JobOutcome::kOverloaded, *rejection));
      }
    }
    update_gauges_locked();
  }
  for (JobResponse& response : to_emit) emit(std::move(response));
  return rejection;
}

void JobService::note_invalid() { metrics_.add(ids_.invalid); }

void JobService::pump_locked() {
  while (!cancel_.load(std::memory_order_relaxed) &&
         running_ < pool_.thread_count()) {
    std::optional<QueuedJob> job = queue_.pop();
    if (!job.has_value()) break;
    ++running_;
    auto ctx = std::make_shared<ActiveJob>();
    ctx->deadline = job->deadline;
    ctx->trace_id = job->spec.trace_id;
    active_.push_back(ctx);
    // Boxed so the lambda stays copyable (std::function requirement).
    auto boxed = std::make_shared<QueuedJob>(std::move(*job));
    pool_.submit(boxed->spec.id,
                 [this, boxed, ctx] { run_job(*boxed, *ctx); });
  }
}

void JobService::drop_locked(const QueuedJob& job, const char* reason,
                             std::vector<JobResponse>& to_emit,
                             JobOutcome outcome) {
  if (outcome == JobOutcome::kOverloaded) {
    metrics_.add(ids_.shed);
  } else {
    metrics_.add(ids_.failed);
    count_family_locked(job.spec, outcome);
  }
  trace_job_end(job.spec.trace_id, to_string(outcome), reason);
  to_emit.push_back(response_for(job.spec, outcome, reason));
}

void JobService::update_overload_locked(Clock::time_point now,
                                        std::vector<JobResponse>& to_emit) {
  const double occupancy = queue_.occupancy();
  if (occupancy >= config_.degradation.high_watermark) {
    if (!overload_since_.has_value()) overload_since_ = now;
    const auto dwell = now - *overload_since_;
    int level = 1;
    if (dwell >= config_.degradation.escalate_after) level = 2;
    if (dwell >= 2 * config_.degradation.escalate_after) level = 3;
    level_ = std::max(level_, level);
    if (level_ >= 3) {
      while (queue_.occupancy() > config_.degradation.high_watermark) {
        std::optional<QueuedJob> victim = queue_.shed_lowest();
        if (!victim.has_value()) break;
        drop_locked(*victim, "shed_overload", to_emit);
      }
    }
  } else if (occupancy <= config_.degradation.low_watermark) {
    // Hysteresis: between the watermarks the current rung holds.
    overload_since_.reset();
    level_ = 0;
  }
}

void JobService::update_gauges_locked() {
  metrics_.set(ids_.queue_depth, static_cast<double>(queue_.size()));
  metrics_.set(ids_.inflight, static_cast<double>(running_));
  metrics_.set(ids_.degradation_level, static_cast<double>(level_));
  metrics_.set(ids_.breakers_open,
               static_cast<double>(breakers_.open_count()));
  metrics_.set(ids_.overloaded,
               overload_gauge_.update(queue_.occupancy()) ? 1.0 : 0.0);
  metrics_.set(ids_.quarantined_families,
               static_cast<double>(breakers_.quarantined_count()));
}

void JobService::run_job(const QueuedJob& job, ActiveJob& ctx) {
  JobResponse response = execute(job, ctx);
  trace_job_end(job.spec.trace_id, to_string(response.outcome),
                response.error.empty() ? nullptr : response.error.c_str());
  if (config_.slow_log != nullptr) {
    obs::SlowLog::Entry entry;
    entry.trace_id = job.spec.trace_id;
    entry.job_id = job.spec.id;
    entry.outcome = to_string(response.outcome);
    entry.shard = config_.shard_index;
    entry.queue_ms = response.queue_ms;
    entry.run_ms = response.run_ms;
    entry.attempts = response.attempts;
    config_.slow_log->record(std::move(entry));
  }
  emit(std::move(response));
  std::vector<JobResponse> to_emit;
  {
    std::lock_guard lock(mutex_);
    POPBEAN_CHECK(running_ > 0);
    --running_;
    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [&ctx](const std::shared_ptr<ActiveJob>& a) {
                                   return a.get() == &ctx;
                                 }),
                  active_.end());
    update_overload_locked(Clock::now(), to_emit);
    pump_locked();
    update_gauges_locked();
    if (running_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
  for (JobResponse& shed_response : to_emit) emit(std::move(shed_response));
}

JobResponse JobService::execute(const QueuedJob& job, ActiveJob& ctx) {
  const auto start = Clock::now();
  JobResponse response = response_for(job.spec, JobOutcome::kDone, "");
  response.queue_ms = FpMillis(start - job.admitted).count();
  metrics_.observe(ids_.queue_ms, response.queue_ms, job.spec.trace_id);
  // The queue wait is only measurable once the job pops — recorded
  // retrospectively over [admitted, start].
  if (config_.trace != nullptr && job.spec.trace_id != 0) {
    config_.trace->async_span("queue", "serve", job.spec.trace_id,
                              job.admitted, start);
  }

  AttemptPlan plan;
  {
    std::lock_guard lock(mutex_);
    if (gate_locked(job, start, response)) {
      // Vetoed: the job never ran, so the breaker learns nothing from it.
      settle_locked(job.spec, response, /*judge_breaker=*/false, start);
      return response;
    }
    plan = plan_locked(job, start, response);
    update_gauges_locked();  // allow() / vote_allowed() may move a breaker
  }

  const Attempt attempt = attempt_loop(job, ctx, plan, response);
  const auto finish = Clock::now();
  response.run_ms = FpMillis(finish - start).count();
  metrics_.observe(ids_.run_ms, response.run_ms, job.spec.trace_id);
  response.replicas_used = plan.vote_replicas;
  response.voted = attempt.vote.voted;
  response.divergent = attempt.vote.divergent;
  response.result = attempt.result;  // zero unless the attempt succeeded
  response.outcome = kKinds[static_cast<std::size_t>(attempt.kind)].outcome;
  response.error = attempt.error;
  if (attempt.kind == AttemptKind::kOk &&
      plan.max_interactions < job.spec.effective_max_interactions()) {
    response.outcome = JobOutcome::kTruncated;
  } else if (attempt.kind == AttemptKind::kTimeout) {
    response.error = ctx.abandon.load(std::memory_order_relaxed)
                         ? "watchdog_abandoned"
                         : "deadline expired";
  }
  std::lock_guard lock(mutex_);
  // Shutdown says nothing about the protocol — no breaker record.
  settle_locked(job.spec, response, attempt.kind != AttemptKind::kShutdown,
                finish);
  return response;
}

bool JobService::gate_locked(const QueuedJob& job, Clock::time_point now,
                             JobResponse& response) {
  if (job.deadline.expired(now)) {
    response.outcome = JobOutcome::kTimeout;
    response.error = "deadline expired in queue";
    return true;
  }
  if (breakers_.for_key(job.spec.protocol).allow(now)) return false;
  metrics_.add(ids_.circuit_open);
  if (config_.trace != nullptr && job.spec.trace_id != 0) {
    config_.trace->async_instant("circuit_open", "serve", job.spec.trace_id);
  }
  response.outcome = JobOutcome::kFailed;
  response.error = "circuit_open";
  return true;
}

AttemptPlan JobService::plan_locked(const QueuedJob& job,
                                    Clock::time_point now,
                                    JobResponse& response) {
  AttemptPlan plan;
  plan.vote_replicas = job.spec.vote_replicas != 0 ? job.spec.vote_replicas
                                                   : config_.vote_replicas;
  plan.replicates = job.spec.replicates;
  plan.max_interactions = job.spec.effective_max_interactions();
  // Voting is the first rung's sacrifice (k → 3 → 1), then statistical
  // replication, then the interaction cap.
  const std::uint64_t cap = config_.degradation.truncate_interactions;
  if (level_ >= 1 && (plan.replicates > 1 || plan.vote_replicas > 3)) {
    plan.replicates = std::min(plan.replicates, 1u);
    plan.vote_replicas = std::min(plan.vote_replicas, 3u);
    response.degraded = true;
  }
  if (level_ >= 2 && (cap < plan.max_interactions || plan.vote_replicas > 1)) {
    plan.max_interactions = std::min(plan.max_interactions, cap);
    plan.vote_replicas = std::min(plan.vote_replicas, 1u);
    response.degraded = true;
  }
  if (plan.vote_replicas > 1 &&
      !breakers_.for_key(job.spec.protocol).vote_allowed(now)) {
    // Quarantined family: execute unvoted, label the response so the
    // client knows this answer carries no replication guarantee.
    plan.vote_replicas = 1;
    response.quarantined = true;
    metrics_.add(ids_.quarantined_jobs);
  }
  plan.corrupt_rate = config_.chaos_corrupt_rate;
  plan.poll_interval = config_.stop_check_interval;
  plan.sequence = job.sequence;
  plan.capture_dir = config_.vote_capture_dir;
  plan.trace = job.spec.trace_id != 0 ? config_.trace : nullptr;
  plan.trace_id = job.spec.trace_id;
  return plan;
}

Attempt JobService::attempt_loop(const QueuedJob& job, const ActiveJob& ctx,
                                 AttemptPlan& plan, JobResponse& response) {
  DecorrelatedJitterBackoff backoff(config_.backoff,
                                    Xoshiro256ss(config_.seed, job.sequence));
  const auto should_stop = [this, &ctx, &job] {
    return cancel_.load(std::memory_order_relaxed) ||
           ctx.abandon.load(std::memory_order_relaxed) ||
           job.deadline.expired();
  };
  for (std::size_t index = 0;; ++index) {
    ++response.attempts;
    const auto attempt_start = Clock::now();
    plan.attempt_index = index;
    const ChaosAction action =
        config_.chaos ? config_.chaos(ChaosContext{job.spec, index,
                                                   job.sequence})
                      : ChaosAction::kNone;
    // A wedged worker: deliberately does NOT poll the job deadline, so only
    // the watchdog's abandon flag or a drain cancel unsticks it.
    if (action == ChaosAction::kSlow) {
      sleep_interruptible(config_.chaos_slow, ctx);
    }
    Attempt attempt;
    if (action == ChaosAction::kFail) {
      attempt.error = "chaos_fail";
    } else {
      // Under voting kCorrupt hits the last replica only — a minority of one
      // the vote must outlive; an unvoted job corrupts its single replica.
      plan.corrupt_replica =
          action == ChaosAction::kCorruptAll ? -2
          : action == ChaosAction::kCorrupt
              ? static_cast<int>(plan.vote_replicas - 1)
              : -1;
      if (!plan.capture_dir.empty()) {
        std::lock_guard lock(mutex_);
        // Soft limit: concurrent divergences may overshoot by the worker
        // count; the point is bounding disk, not exact accounting.
        plan.capture_allowed = captures_written_ < config_.vote_capture_limit;
      }
      try {
        attempt = dispatch_attempt(job.spec, plan, should_stop, cancel_);
      } catch (const std::exception& e) {
        attempt.error = e.what();  // `attempt` is still default: kFailed
      }
    }

    if (plan.trace != nullptr) {
      plan.trace->async_span(
          "attempt", "serve", plan.trace_id, attempt_start, Clock::now(),
          {{"attempt", static_cast<double>(index)},
           {"replicas", static_cast<double>(plan.vote_replicas)}},
          {{"kind", kKinds[static_cast<std::size_t>(attempt.kind)].name}});
    }
    if (attempt.vote.voted) record_vote(job.spec, plan, attempt);

    if (attempt.kind != AttemptKind::kFailed) return attempt;
    if (index >= config_.max_retries || should_stop()) return attempt;
    metrics_.add(ids_.retries);
    const auto delay = std::min<Clock::duration>(backoff.next(),
                                                 job.deadline.remaining());
    const auto backoff_start = Clock::now();
    sleep_interruptible(delay, ctx);
    if (plan.trace != nullptr) {
      plan.trace->async_span("backoff", "serve", plan.trace_id, backoff_start,
                             Clock::now(),
                             {{"attempt", static_cast<double>(index)}});
    }
  }
}

// Vote trace and bookkeeping per voted attempt (retried attempts count too —
// quarantine evidence must not vanish just because a retry later succeeded).
void JobService::record_vote(const JobSpec& spec, const AttemptPlan& plan,
                             const Attempt& attempt) {
  const VoteOutcome& vote = attempt.vote;
  // Every replica finished and none reached a majority: the strongest
  // divergence evidence. (Abandoned replicas blame the deadline instead.)
  const bool no_majority = !vote.majority_found && vote.abandoned == 0;
  const bool divergence =
      no_majority || (vote.majority_found && vote.divergent > 0);
  if (plan.trace != nullptr) {
    plan.trace->async_instant(
        "vote", "serve", plan.trace_id,
        {{"replicas", static_cast<double>(plan.vote_replicas)},
         {"divergent", static_cast<double>(vote.divergent)},
         {"no_majority", no_majority ? 1.0 : 0.0}});
  }
  const auto now = Clock::now();
  bool entered = false;
  {
    std::lock_guard lock(mutex_);
    CircuitBreaker& breaker = breakers_.for_key(spec.protocol);
    metrics_.add(ids_.voted);
    if (divergence) {
      metrics_.add(ids_.divergences);
      metrics_.add(metrics_.counter("serve.vote.divergence." + spec.protocol));
      if (no_majority) metrics_.add(ids_.no_majority);
      entered = breaker.record_divergence(now);
      if (entered) metrics_.add(ids_.quarantine_entered);
      if (attempt.capture.has_value()) {
        ++captures_written_;
        metrics_.add(ids_.captures);
      }
    } else if (vote.abandoned == 0 && breaker.record_clean_vote()) {
      metrics_.add(ids_.quarantine_recovered);
    }
    update_gauges_locked();
  }
  if (!divergence || config_.telemetry == nullptr) return;
  config_.telemetry->record("vote_divergence", [&](JsonWriter& json) {
    json.kv("job", spec.id);
    json.kv("family", spec.protocol);
    json.kv("attempt", plan.attempt_index);
    json.kv("replicas", static_cast<std::uint64_t>(plan.vote_replicas));
    json.kv("divergent", static_cast<std::uint64_t>(vote.divergent));
    json.kv("no_majority", no_majority);
    json.kv("seed", spec.seed);
    if (vote.majority_found) {  // an outvoted minority exists
      json.kv("minority_replica",
              static_cast<std::uint64_t>(vote.minority.front()));
      json.kv("stream", attempt.minority_stream);
      json.kv("minority_corrupt", attempt.minority_corrupt);
    }
    if (attempt.capture.has_value()) {
      json.kv("capture_header", attempt.capture->header_path);
      json.kv("capture_log", attempt.capture->log_path);
    }
    json.kv("quarantined", entered);
  });
}

void JobService::settle_locked(const JobSpec& spec,
                               const JobResponse& response, bool judge_breaker,
                               Clock::time_point now) {
  CircuitBreaker* const breaker =
      judge_breaker ? &breakers_.for_key(spec.protocol) : nullptr;
  switch (response.outcome) {
    case JobOutcome::kTruncated:
      metrics_.add(ids_.truncated);
      [[fallthrough]];
    case JobOutcome::kDone:
      if (breaker != nullptr) breaker->record_success(now);
      metrics_.add(ids_.completed);
      break;
    case JobOutcome::kTimeout:
      if (breaker != nullptr) breaker->record_timeout(now);
      metrics_.add(ids_.timeouts);
      break;
    default:
      if (breaker != nullptr) breaker->record_failure(now);
      metrics_.add(ids_.failed);
      break;
  }
  count_family_locked(spec, response.outcome);
  update_gauges_locked();
}

void JobService::count_family_locked(const JobSpec& spec,
                                     JobOutcome outcome) {
  // Register-or-lookup, same pattern as the divergence counter.
  metrics_.add(metrics_.counter("serve.family." + spec.protocol + "." +
                                to_string(outcome)));
}

void JobService::sleep_interruptible(Clock::duration duration,
                                     const ActiveJob& ctx) {
  const auto until = Clock::now() + duration;
  while (Clock::now() < until && !cancel_.load(std::memory_order_relaxed) &&
         !ctx.abandon.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void JobService::begin_drain() {
  std::lock_guard lock(mutex_);
  draining_ = true;
  metrics_.set(ids_.draining, 1.0);
}

bool JobService::drain(std::chrono::milliseconds budget) {
  begin_drain();
  const auto hard = Deadline::after(budget);
  std::vector<JobResponse> to_emit;
  bool clean = false;
  {
    std::unique_lock lock(mutex_);
    const auto drained = [this] { return running_ == 0 && queue_.empty(); };
    if (hard.is_unlimited()) {
      idle_cv_.wait(lock, drained);
      clean = true;
    } else {
      clean = idle_cv_.wait_until(lock, hard.time(), drained);
    }
    if (!clean) {
      // Budget blown: cancel cooperatively and flush the queue — every
      // still-queued job gets its failed("shutdown") response now.
      cancel_.store(true, std::memory_order_relaxed);
      while (std::optional<QueuedJob> job = queue_.pop()) {
        drop_locked(*job, "shutdown", to_emit, JobOutcome::kFailed);
      }
      // Running jobs observe cancel_ within a poll interval (or the
      // watchdog grace); the backstop below only trips on a genuine bug.
      idle_cv_.wait_for(lock, std::chrono::seconds(30),
                        [this] { return running_ == 0; });
      POPBEAN_CHECK_MSG(running_ == 0,
                        "JobService::drain: workers ignored cancellation");
    }
    update_gauges_locked();
  }
  for (JobResponse& response : to_emit) emit(std::move(response));
  return clean;
}

void JobService::watchdog_loop() {
  std::unique_lock wl(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(wl, config_.watchdog_interval,
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    wl.unlock();
    const auto now = Clock::now();
    {
      std::lock_guard lock(mutex_);
      for (const std::shared_ptr<ActiveJob>& ctx : active_) {
        if (ctx->abandon.load(std::memory_order_relaxed)) continue;
        if (!ctx->deadline.is_unlimited() &&
            now >= ctx->deadline.time() + config_.watchdog_grace) {
          ctx->abandon.store(true, std::memory_order_relaxed);
          metrics_.add(ids_.watchdog_abandons);
          if (config_.trace != nullptr && ctx->trace_id != 0) {
            config_.trace->async_instant("abandon", "serve", ctx->trace_id);
          }
        }
      }
    }
    wl.lock();
  }
}

int JobService::degradation_level() const {
  std::lock_guard lock(mutex_);
  return level_;
}

std::size_t JobService::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t JobService::inflight() const {
  std::lock_guard lock(mutex_);
  return running_;
}

CircuitBreaker::State JobService::breaker_state(
    const std::string& protocol) const {
  std::lock_guard lock(mutex_);
  const auto& bank = breakers_.breakers();
  const auto it = bank.find(protocol);
  return it == bank.end() ? CircuitBreaker::State::kClosed
                          : it->second.state();
}

std::uint64_t JobService::total_breaker_opens() const {
  std::lock_guard lock(mutex_);
  return breakers_.total_opens();
}

std::uint64_t JobService::total_breaker_closes() const {
  std::lock_guard lock(mutex_);
  return breakers_.total_closes();
}

CircuitBreaker::VoteState JobService::vote_state(
    const std::string& protocol) const {
  std::lock_guard lock(mutex_);
  const auto& bank = breakers_.breakers();
  const auto it = bank.find(protocol);
  return it == bank.end() ? CircuitBreaker::VoteState::kVoting
                          : it->second.vote_state();
}

std::uint64_t JobService::total_divergences() const {
  std::lock_guard lock(mutex_);
  return breakers_.total_divergences();
}

std::uint64_t JobService::total_quarantine_entries() const {
  std::lock_guard lock(mutex_);
  return breakers_.total_quarantine_entries();
}

std::uint64_t JobService::total_quarantine_recoveries() const {
  std::lock_guard lock(mutex_);
  return breakers_.total_quarantine_recoveries();
}

}  // namespace popbean::serve
