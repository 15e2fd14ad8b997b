// Simulation workloads: the paper's Fig. 3 row at n = 100001 (count-engine
// bound: AVC with s ≈ n states) and the Fig. 4 skip-engine curves up to
// s = 514 (skip-engine bound). Each is a fixed replicate set derived from
// the seed. Fig. 3 is measured as the reproduction benches run it, one
// run_replicates call per point; Fig. 4 runs its whole points × replicates
// grid through run_cell_sweep (harness/sweep.hpp), so the large-s cells
// straggle at the end of one shared pool. Every replicate is timed on its
// worker.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/avc.hpp"
#include "core/avc_params.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "protocols/four_state.hpp"
#include "protocols/three_state.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using popbean::Counts;
using popbean::EngineKind;
using popbean::MajorityInstance;
using popbean::RunResult;
using popbean::RunStatus;
using popbean::State;
using popbean::ThreadPool;
using popbean::Xoshiro256ss;

constexpr std::uint64_t kPaperN = 100001;
constexpr std::uint64_t kMaxInteractions = 400'000'000'000'000ULL;
constexpr int kSetupRepeats = 9;
// Warm-up instance: every protocol of the plan runs on it, small enough to
// take tens of milliseconds per protocol.
constexpr std::uint64_t kWarmupN = 2001;
constexpr double kWarmupEpsilon = 0.05;
constexpr std::uint64_t kWarmupSeed = 0x5eed;

// Fig. 3 references at n = 100001, 101 replicates (EXPERIMENTS.md).
constexpr double kAvcMeanTimeRef = 40.0;   // AVC(n-state) mean parallel time
constexpr double kAvcMeanTimeBand = 0.15;  // ± share of the reference
constexpr double kThreeStateErrorRef = 0.54;
constexpr double kBinomialZ = 4.0;

using AnyProtocol =
    std::variant<popbean::ThreeStateProtocol, popbean::FourStateProtocol,
                 popbean::avc::AvcProtocol>;

// One sweep point: a protocol on one instance, `replicates` runs on RNG
// streams 0..replicates−1 of `seed` (run_replicates' layout).
struct Cell {
  std::string family;  // three_state | four_state | avc
  std::string label;
  AnyProtocol protocol;
  bool exact = true;
  MajorityInstance instance;
  EngineKind kind = EngineKind::kAuto;
  std::size_t replicates = 0;
  std::uint64_t seed = 0;
};

EngineKind resolved_kind(const Cell& cell) {
  if (cell.kind != EngineKind::kAuto) return cell.kind;
  return std::visit(
      [](const auto& p) {
        using P = std::decay_t<decltype(p)>;
        return p.num_states() <= popbean::SkipEngine<P>::kMaxStates
                   ? EngineKind::kSkip
                   : EngineKind::kCount;
      },
      cell.protocol);
}

Cell avc_cell(popbean::avc::AvcParams params, MajorityInstance instance,
              std::size_t replicates, std::uint64_t seed) {
  return {"avc",
          "AVC(s=" + std::to_string(params.num_states()) + ")",
          popbean::avc::AvcProtocol(params.m, params.d),
          true,
          instance,
          EngineKind::kAuto,
          replicates,
          seed};
}

// How a plan's replicates are scheduled on the pool.
enum class Scheduling {
  kReplicates,  // one run_replicates call per point, in order
  kSweep,       // the whole grid at once through run_cell_sweep
};

struct Plan {
  std::vector<Cell> cells;
  Scheduling scheduling = Scheduling::kReplicates;
  bool fig3 = false;  // the Fig. 3 reference checks apply
};

// The paper's Fig. 3 at n = 100001, ε = 1/n: 101 replicates each of the
// 3-state, 4-state and n-state AVC protocols, engines as in
// bench/fig3_protocol_comparison.
Plan fig3_plan(std::uint64_t seed) {
  const MajorityInstance instance{kPaperN, 1, popbean::Opinion::A};
  constexpr std::size_t kReplicates = 101;
  std::vector<Cell> cells;
  cells.push_back({"three_state", "3-state", popbean::ThreeStateProtocol{},
                   false, instance, EngineKind::kSkip, kReplicates,
                   popbean::mix_seed(seed, 0)});
  cells.push_back({"four_state", "4-state", popbean::FourStateProtocol{}, true,
                   instance, EngineKind::kSkip, kReplicates,
                   popbean::mix_seed(seed, 1)});
  cells.push_back(avc_cell(popbean::avc::n_state(kPaperN), instance,
                           kReplicates, popbean::mix_seed(seed, 2)));
  return {std::move(cells), Scheduling::kReplicates, true};
}

// Fig. 4's skip-engine curves at n = 100001: every paper budget that kAuto
// sends to the skip engine (s ≤ 514, just under SkipEngine::kMaxStates).
// Budgets up to 130 run the paper's full ε grid, three replicates per
// point. s = 258 and 514 cost 2× and 4× as much per step as s = 130, and
// at s = 514 the δ table (2 MiB) no longer fits a core's L2 cache on the
// reference machine, which makes its times follow the host's load; they
// run at the grid's two ends and middle, one replicate each, so they show
// a large-s or kAuto change without dominating the run.
const std::vector<std::int64_t> kFig4Budgets = {4,  6,  12,  24, 34,
                                                66, 130, 258, 514};
constexpr std::int64_t kFig4FullGridBudget = 130;
constexpr std::size_t kFig4Replicates = 3;

Plan fig4_plan(std::uint64_t seed) {
  const std::vector<double> grid = popbean::figure4_epsilons(kPaperN);
  const std::vector<double> ends_and_middle = {grid.front(),
                                               grid[grid.size() / 2],
                                               grid.back()};
  std::vector<Cell> cells;
  for (const std::int64_t budget : kFig4Budgets) {
    const bool full = budget <= kFig4FullGridBudget;
    for (const double eps : full ? grid : ends_and_middle) {
      cells.push_back(avc_cell(popbean::avc::from_state_budget(budget, 1),
                               popbean::make_instance(kPaperN, eps),
                               full ? kFig4Replicates : 1,
                               popbean::mix_seed(seed, 100 + cells.size())));
    }
  }
  return {std::move(cells), Scheduling::kSweep, false};
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Calls fn(cell, replicate) on the pool for every replicate of the plan:
// one parallel_for_index per point, as run_replicates fans out, or the
// whole grid through run_cell_sweep.
template <typename Fn>
void schedule(ThreadPool& pool, const Plan& plan, const Fn& fn) {
  if (plan.scheduling == Scheduling::kReplicates) {
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
      popbean::parallel_for_index(pool, plan.cells[c].replicates,
                                  [&](std::size_t r) { fn(c, r); });
    }
    return;
  }
  // run_cell_sweep takes a uniform points × replicates grid, and the
  // plan's points differ in replicate count: every (point, replicate) pair
  // is one sweep point of one replicate, in plan order.
  std::vector<std::pair<std::size_t, std::size_t>> jobs;
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    for (std::size_t r = 0; r < plan.cells[c].replicates; ++r) {
      jobs.emplace_back(c, r);
    }
  }
  const std::vector<char> none_done(jobs.size(), 0);
  const popbean::CellSweepReport report = popbean::run_cell_sweep(
      pool, jobs.size(), 1, none_done, popbean::SweepRunOptions{},
      [&](const popbean::SweepCell& cell, const auto& /*should_stop*/) {
        fn(jobs[cell.point].first, jobs[cell.point].second);
        return true;
      },
      [](const popbean::SweepCell&, popbean::CellOutcomeKind) {});
  POPBEAN_CHECK(report.complete() && report.completed == none_done.size());
}

// run_replicates' aggregation of one cell.
popbean::ReplicationSummary summarize_cell(const Cell& cell,
                                           const std::vector<RunResult>& runs) {
  popbean::ReplicationSummary s;
  s.replicates = runs.size();
  std::vector<double> times;
  for (const RunResult& run : runs) {
    switch (run.status) {
      case RunStatus::kConverged:
        ++s.converged;
        times.push_back(run.parallel_time);
        if (run.decided == cell.instance.correct_output()) {
          ++s.correct;
        } else {
          ++s.wrong;
        }
        break;
      case RunStatus::kStepLimit:
        ++s.step_limit;
        break;
      case RunStatus::kAbsorbing:
        ++s.absorbing;
        break;
    }
  }
  if (!times.empty()) s.parallel_time = popbean::summarize(times);
  return s;
}

bool same_summary(const popbean::ReplicationSummary& a,
                  const popbean::ReplicationSummary& b) {
  return a.replicates == b.replicates && a.converged == b.converged &&
         a.correct == b.correct && a.wrong == b.wrong &&
         a.unresolved() == b.unresolved() &&
         a.parallel_time.count == b.parallel_time.count &&
         a.parallel_time.mean == b.parallel_time.mean;
}

// Interactions of a cell's converged replicates: parallel time is
// interactions / n.
double converged_interactions(const Cell& cell,
                              const popbean::ReplicationSummary& s) {
  return static_cast<double>(cell.instance.n) * s.parallel_time.mean *
         static_cast<double>(s.parallel_time.count);
}

// One point's replicates, measured once.
struct CellRun {
  double wall_s = 0.0;               // its run_replicates call (harness)
  std::vector<double> replicate_ms;  // each replicate on its worker
  popbean::ReplicationSummary summary;
};

// The fixed replicate set, measured once.
struct Round {
  double wall_s = 0.0;
  std::vector<CellRun> cells;
};

// The whole grid through run_cell_sweep, each replicate's run_majority_once
// call timed on its worker.
Round run_sweep_round(ThreadPool& pool, const Plan& plan) {
  Round round;
  std::vector<std::vector<RunResult>> results;
  for (const Cell& cell : plan.cells) {
    results.emplace_back(cell.replicates);
    round.cells.emplace_back().replicate_ms.resize(cell.replicates);
  }
  const auto start = Clock::now();
  schedule(pool, plan, [&](std::size_t c, std::size_t r) {
    const Cell& cell = plan.cells[c];
    const auto begin = Clock::now();
    results[c][r] = std::visit(
        [&](const auto& p) {
          return popbean::run_majority_once(p, cell.instance, cell.kind,
                                            cell.seed, r, kMaxInteractions);
        },
        cell.protocol);
    round.cells[c].replicate_ms[r] = ms_since(begin);
  });
  round.wall_s = seconds_since(start);
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    round.cells[c].summary = summarize_cell(plan.cells[c], results[c]);
  }
  return round;
}

// --- replicate times inside run_replicates ----------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// When each worker thread started a replicate and finished a pool task,
// during one run_replicates call. Every replicate begins by building its
// configuration, which asks the protocol for its input states; Stamped<P>
// stamps those calls, and the pool's task observer stamps task ends. All
// storage is allocated up front, so recording allocates nothing on the
// workers.
class StampLog {
 public:
  static constexpr std::size_t kMaxStamps = 1 << 12;  // per worker per call

  explicit StampLog(std::size_t threads) : lanes_(threads) {
    for (Lane& lane : lanes_) {
      lane.starts.resize(kMaxStamps);
      lane.finishes.resize(kMaxStamps);
    }
  }

  // Forgets every stamp; workers claim fresh lanes on their next stamp.
  void reset() {
    epoch_.fetch_add(1);
    next_lane_.store(0);
    overflow_.store(false);
    for (Lane& lane : lanes_) lane.start_count = lane.finish_count = 0;
  }

  void start() { record(&Lane::starts, &Lane::start_count, now_ns()); }
  void finish(Clock::time_point at) {
    record(&Lane::finishes, &Lane::finish_count,
           std::chrono::duration_cast<std::chrono::nanoseconds>(
               at.time_since_epoch())
               .count());
  }

  // Every replicate's time on its worker, or empty when the stamps do not
  // split into `replicates` whole replicates.
  std::vector<double> replicate_ms(std::size_t replicates) const {
    std::size_t starts = 0;
    for (const Lane& lane : lanes_) starts += lane.start_count;
    if (overflow_.load() || replicates == 0 || starts % replicates != 0) {
      return {};
    }
    std::vector<double> ms;
    for (const Lane& lane : lanes_) {
      if (lane.start_count == 0) continue;
      const auto upto = [](const std::vector<std::int64_t>& v,
                           std::size_t count) {
        return std::vector<std::int64_t>(
            v.begin(), v.begin() + static_cast<std::ptrdiff_t>(count));
      };
      const std::vector<double> spans = replicate_durations_ms(
          upto(lane.starts, lane.start_count),
          upto(lane.finishes, lane.finish_count), starts / replicates);
      if (spans.empty()) return {};
      ms.insert(ms.end(), spans.begin(), spans.end());
    }
    if (ms.size() != replicates) return {};
    return ms;
  }

 private:
  struct alignas(64) Lane {
    std::vector<std::int64_t> starts;
    std::vector<std::int64_t> finishes;
    std::size_t start_count = 0;
    std::size_t finish_count = 0;
  };

  void record(std::vector<std::int64_t> Lane::*stamps,
              std::size_t Lane::*count, std::int64_t at) {
    thread_local std::uint64_t epoch = 0;
    thread_local std::size_t lane = 0;
    const std::uint64_t now = epoch_.load();
    if (epoch != now) {
      epoch = now;
      lane = next_lane_.fetch_add(1);
    }
    if (lane >= lanes_.size() || lanes_[lane].*count == kMaxStamps) {
      overflow_.store(true);
      return;
    }
    Lane& mine = lanes_[lane];
    (mine.*stamps)[(mine.*count)++] = at;
  }

  std::vector<Lane> lanes_;
  // Epochs are process-wide so a thread's cached lane never outlives the
  // call it was claimed in.
  inline static std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::size_t> next_lane_{0};
  std::atomic<bool> overflow_{false};
};

StampLog* g_stamps = nullptr;

// Forwarding protocol that stamps replicate starts. It holds the protocol
// by value and forwards δ and the output map unchanged, so the engines
// compile to the same loops and hold the same data as with P itself.
template <popbean::ProtocolLike P>
class Stamped {
 public:
  explicit Stamped(P inner) : inner_(std::move(inner)) {}

  std::size_t num_states() const { return inner_.num_states(); }
  popbean::Transition apply(State a, State b) const {
    return inner_.apply(a, b);
  }
  popbean::Output output(State q) const { return inner_.output(q); }
  State initial_state(popbean::Opinion op) const {
    g_stamps->start();
    return inner_.initial_state(op);
  }
  std::string state_name(State q) const { return inner_.state_name(q); }

 private:
  P inner_;
};

// One point through run_replicates, with every replicate's time recovered
// from the stamps.
CellRun run_harness_call(ThreadPool& pool, const Cell& cell, Outcome& out) {
  CellRun run;
  run.summary = std::visit(
      [&](const auto& p) {
        const Stamped stamped(p);
        g_stamps->reset();
        const auto start = Clock::now();
        const popbean::ReplicationSummary summary = popbean::run_replicates(
            pool, stamped, cell.instance, cell.kind, cell.replicates,
            cell.seed, kMaxInteractions);
        run.wall_s = seconds_since(start);
        return summary;
      },
      cell.protocol);
  run.replicate_ms = g_stamps->replicate_ms(cell.replicates);
  out.check(run.replicate_ms.size() == cell.replicates,
            "replicate stamps of " + cell.label +
                " do not split into its replicates");
  return run;
}

// The fixed set as the reproduction benches run it: one run_replicates call
// per point, in plan order.
Round run_harness_round(ThreadPool& pool, const Plan& plan, Outcome& out) {
  Round round;
  for (const Cell& cell : plan.cells) {
    round.cells.push_back(run_harness_call(pool, cell, out));
    round.wall_s += round.cells.back().wall_s;
  }
  return round;
}

Round run_plan_round(ThreadPool& pool, const Plan& plan, Outcome& out) {
  return plan.scheduling == Scheduling::kReplicates
             ? run_harness_round(pool, plan, out)
             : run_sweep_round(pool, plan);
}

// --- traced pass ------------------------------------------------------------

// δ call counter plus a thinned sample of the pairs δ was called on.
struct ApplyTally {
  static constexpr std::size_t kSampleEvery = 1024;
  static constexpr std::size_t kSampleCap = 4096;
  std::uint64_t calls = 0;
  std::vector<std::pair<State, State>> sample;
};

// Forwarding protocol that counts Protocol::apply calls.
template <popbean::ProtocolLike P>
class CountingProtocol {
 public:
  CountingProtocol(const P& inner, ApplyTally& tally)
      : inner_(&inner), tally_(&tally) {}

  std::size_t num_states() const { return inner_->num_states(); }
  popbean::Transition apply(State a, State b) const {
    if (++tally_->calls % ApplyTally::kSampleEvery == 0 &&
        tally_->sample.size() < ApplyTally::kSampleCap) {
      tally_->sample.emplace_back(a, b);
    }
    return inner_->apply(a, b);
  }
  popbean::Output output(State q) const { return inner_->output(q); }
  State initial_state(popbean::Opinion op) const {
    return inner_->initial_state(op);
  }
  std::string state_name(State q) const { return inner_->state_name(q); }

 private:
  const P* inner_;
  ApplyTally* tally_;
};

// EngineLike adapter counting the skip engine's productive steps (each
// step() is one productive interaction plus the nulls it jumped over).
template <popbean::EngineLike E>
class ProductiveSteps {
 public:
  explicit ProductiveSteps(E& engine) : engine_(&engine) {}

  std::uint64_t num_agents() const { return engine_->num_agents(); }
  std::uint64_t steps() const { return engine_->steps(); }
  double parallel_time() const { return engine_->parallel_time(); }
  bool all_same_output() const { return engine_->all_same_output(); }
  popbean::Output dominant_output() const { return engine_->dominant_output(); }
  void step(Xoshiro256ss& rng) {
    const std::uint64_t before = engine_->steps();
    engine_->step(rng);
    if (engine_->steps() != before) ++productive_;
  }
  std::uint64_t productive() const { return productive_; }

 private:
  E* engine_;
  std::uint64_t productive_ = 0;
};

struct TracedReplicate {
  RunResult result;
  ApplyTally apply;
  std::uint64_t productive = 0;
};

// run_majority_once for the skip and count engines, with δ counted and the
// skip engine's steps counted. Same seed and stream, so the trajectory is
// the untraced one.
template <popbean::ProtocolLike P>
void run_traced(const P& protocol, const Cell& cell, EngineKind kind,
                std::uint64_t stream, TracedReplicate& out) {
  const CountingProtocol<P> counted(protocol, out.apply);
  const Counts counts = popbean::majority_instance_with_margin(
      counted, cell.instance.n, cell.instance.margin, cell.instance.majority);
  Xoshiro256ss rng(cell.seed, stream);
  if (kind == EngineKind::kSkip) {
    popbean::SkipEngine<CountingProtocol<P>> engine(counted, counts);
    ProductiveSteps steps(engine);
    out.result = popbean::run_to_convergence(steps, rng, kMaxInteractions);
    out.productive = steps.productive();
  } else {
    popbean::CountEngine<CountingProtocol<P>> engine(counted, counts);
    out.result = popbean::run_to_convergence(engine, rng, kMaxInteractions);
  }
}

struct TracedRound {
  double wall_s = 0.0;
  std::vector<std::vector<TracedReplicate>> cells;
};

// The traced round schedules replicates like the plan's timed rounds but
// calls run_majority_once's steps itself, through the counting wrappers.

TracedRound run_traced_round(ThreadPool& pool, const Plan& plan) {
  TracedRound round;
  for (const Cell& cell : plan.cells) {
    const EngineKind kind = resolved_kind(cell);
    POPBEAN_CHECK(kind == EngineKind::kSkip || kind == EngineKind::kCount);
    round.cells.emplace_back(cell.replicates);
  }
  const auto start = Clock::now();
  schedule(pool, plan, [&](std::size_t c, std::size_t r) {
    const Cell& cell = plan.cells[c];
    std::visit(
        [&](const auto& p) {
          run_traced(p, cell, resolved_kind(cell), r, round.cells[c][r]);
        },
        cell.protocol);
  });
  round.wall_s = seconds_since(start);
  return round;
}

volatile std::uint64_t g_apply_sink = 0;

// Mean cost of δ over recorded state pairs, looped for at least 20 ms.
template <popbean::ProtocolLike P>
double ns_per_apply(const P& protocol,
                    const std::vector<std::pair<State, State>>& pairs) {
  std::uint64_t sink = 0;
  std::uint64_t calls = 0;
  const auto start = Clock::now();
  do {
    for (const auto& [a, b] : pairs) {
      const popbean::Transition t = protocol.apply(a, b);
      sink += t.initiator ^ (t.responder << 1);
    }
    calls += pairs.size();
  } while (seconds_since(start) < 0.02);
  g_apply_sink = sink;
  return seconds_since(start) * 1e9 / static_cast<double>(calls);
}

// --- set-up -------------------------------------------------------------------

// Warm-up that doubles as a fidelity check: a small instance of every
// protocol and engine the plan uses runs through the plan's measured path
// and through plain run_replicates, and the summaries must agree exactly.
void warm_up(ThreadPool& pool, const Plan& plan, Outcome& out) {
  Plan small{{}, plan.scheduling, false};
  const MajorityInstance instance =
      popbean::make_instance(kWarmupN, kWarmupEpsilon);
  for (const Cell& cell : plan.cells) {
    const bool seen =
        std::any_of(small.cells.begin(), small.cells.end(),
                    [&](const Cell& c) { return c.label == cell.label; });
    if (seen) continue;
    Cell probe = cell;
    probe.instance = instance;
    probe.kind = resolved_kind(cell);  // keep the engine the plan runs
    probe.replicates = 4;
    probe.seed = kWarmupSeed;  // same work whatever the workload seed
    small.cells.push_back(std::move(probe));
  }
  const Round measured = run_plan_round(pool, small, out);
  for (std::size_t c = 0; c < small.cells.size(); ++c) {
    const Cell& cell = small.cells[c];
    const popbean::ReplicationSummary harness = std::visit(
        [&](const auto& p) {
          return popbean::run_replicates(pool, p, cell.instance, cell.kind,
                                         cell.replicates, cell.seed,
                                         kMaxInteractions);
        },
        cell.protocol);
    out.check(same_summary(harness, measured.cells[c].summary),
              "warm-up: measured path disagrees with run_replicates on " +
                  cell.label);
  }
}

// --- the workload ---------------------------------------------------------

std::unique_ptr<ThreadPool> start_pool(std::size_t threads, StampLog& stamps) {
  auto pool = std::make_unique<ThreadPool>(threads);
  // One pointer of capture: the observer copies into the workers without
  // allocating.
  pool->set_task_observer([log = &stamps](const ThreadPool::TaskStats& t) {
    log->finish(t.finished);
  });
  return pool;
}

Outcome run_simulation(const Options& options, const Plan& plan) {
  Outcome out;
  const std::vector<Cell>& cells = plan.cells;
  const bool fig3 = plan.fig3;
  const std::size_t threads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  StampLog stamps(threads);
  g_stamps = &stamps;

  // Set-up: pool start plus warm-up, repeated; the median is charged.
  std::vector<double> setups;
  const double before_setup = seconds_since(options.process_start);
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    warm_up(*start_pool(threads, stamps), plan, out);
    setups.push_back(seconds_since(start));
  }
  out.set("setup_s", before_setup + median(setups));

  // Measured rounds of the fixed replicate set: whole rounds only, a next
  // one only while it is expected to fit in the time budget. The traced
  // run makes exactly one. Each round runs on a pool started for it, so
  // the pool-reuse defect (README) is measured on its own, below.
  std::unique_ptr<ThreadPool> pool;
  std::vector<Round> rounds;
  const auto measure_start = Clock::now();
  do {
    pool = start_pool(threads, stamps);
    rounds.push_back(run_plan_round(*pool, plan, out));
  } while (!options.trace &&
           seconds_since(measure_start) + rounds.back().wall_s <=
               options.seconds);
  const Round& first = rounds.front();

  // Output checks (every round repeats the same seeds, so round one
  // speaks for all).
  std::size_t per_round = 0;
  std::uint64_t round_failures = 0;
  double interactions = 0.0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    const popbean::ReplicationSummary& s = first.cells[c].summary;
    per_round += s.replicates;
    interactions += converged_interactions(cell, s);
    if (cell.exact) {
      round_failures += s.wrong + s.unresolved();
      out.check(s.wrong == 0 && s.unresolved() == 0,
                cell.label + " eps=" + std::to_string(cell.instance.epsilon()) +
                    ": " + std::to_string(s.wrong) + " wrong, " +
                    std::to_string(s.unresolved()) + " unresolved replicates");
    }
    if (fig3) {
      out.notes.push_back(cell.label + ": mean parallel time " +
                          fixed(s.parallel_time.mean, 2) + ", error share " +
                          fixed(s.error_fraction(), 3) + " over " +
                          std::to_string(s.replicates) + " replicates");
    }
    if (fig3 && cell.family == "avc") {
      const double mean = s.parallel_time.mean;
      out.check(std::abs(mean - kAvcMeanTimeRef) <=
                    kAvcMeanTimeBand * kAvcMeanTimeRef,
                "AVC(n-state) mean parallel time " + fixed(mean, 2) +
                    " outside " + fixed(kAvcMeanTimeRef, 1) + " ± " +
                    fixed(100 * kAvcMeanTimeBand, 0) + "%");
    }
    if (fig3 && cell.family == "three_state") {
      const double n = static_cast<double>(s.replicates);
      const double half = kBinomialZ * std::sqrt(kThreeStateErrorRef *
                                                 (1 - kThreeStateErrorRef) / n);
      out.check(std::abs(s.error_fraction() - kThreeStateErrorRef) <= half,
                "3-state error share " + fixed(s.error_fraction(), 3) +
                    " outside " + fixed(kThreeStateErrorRef, 2) + " ± " +
                    fixed(half, 3));
    }
  }
  out.attempted = per_round * rounds.size();
  out.failed = round_failures * rounds.size();

  // A replicate is the simulation's job: its latency is its time on a
  // worker. The whole set is submitted at once, so waiting for a worker is
  // in wall_s, not here.
  std::vector<double> walls;
  std::vector<double> replicate_ms;
  for (const Round& round : rounds) {
    walls.push_back(round.wall_s);
    for (const CellRun& cell : round.cells) {
      replicate_ms.insert(replicate_ms.end(), cell.replicate_ms.begin(),
                          cell.replicate_ms.end());
    }
  }
  double busy_ms = 0.0;
  // Where the round's core time goes, per protocol and state count.
  std::vector<std::pair<std::string, double>> core_s;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    auto it = std::find_if(core_s.begin(), core_s.end(), [&](const auto& e) {
      return e.first == cells[c].label;
    });
    if (it == core_s.end()) {
      it = core_s.insert(core_s.end(), {cells[c].label, 0.0});
    }
    for (const double ms : first.cells[c].replicate_ms) {
      it->second += ms * 1e-3;
      busy_ms += ms;
    }
  }
  for (const auto& [label, seconds] : core_s) {
    out.notes.push_back(label + ": " + fixed(seconds, 2) + " core-s per round");
  }
  std::string walls_note = "round walls (s):";
  for (const double w : walls) {
    walls_note += ' ';
    walls_note += fixed(w, 3);
  }
  out.notes.push_back(walls_note);
  const double wall = median(walls);
  const Tail latency = summarize_tail(replicate_ms);
  out.set("wall_s", wall);
  out.set("interactions_per_s", interactions / wall);
  out.set("jobs_per_s", static_cast<double>(per_round) / wall);
  out.set("job_p50_ms", latency.p50);
  out.set("job_p99_ms", latency.tail);
  out.notes.push_back(std::to_string(rounds.size()) + " round(s) of " +
                      std::to_string(per_round) + " replicates in " +
                      std::to_string(cells.size()) + " cells on " +
                      std::to_string(threads) + " threads; job tail is p" +
                      fixed(latency.tail_pct, 2) + " of " +
                      std::to_string(latency.count) + " replicates");

  // Σ replicate time reconciles with threads × wall × busy share: busy
  // share is that ratio, and no pool can be busier than its threads.
  const double busy_share =
      busy_ms * 1e-3 / (static_cast<double>(threads) * first.wall_s);
  out.check(busy_share > 0.0 && busy_share <= 1.02,
            "pool busy share " + fixed(busy_share, 3) +
                " does not reconcile with threads x wall_s");

  if (!options.trace) return out;

  // --- per-layer numbers ---------------------------------------------------
  out.set("harness.pool.busy_share", busy_share);
  for (const char* family : {"three_state", "four_state", "avc"}) {
    std::vector<double> ms;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].family != family) continue;
      ms.insert(ms.end(), first.cells[c].replicate_ms.begin(),
                first.cells[c].replicate_ms.end());
    }
    if (ms.empty()) continue;
    const std::string prefix = std::string("harness.replicate_ms.") + family;
    out.set(prefix + ".p50", percentile(ms, 50.0));
    out.set(prefix + ".p90", percentile(ms, 90.0));
  }

  const TracedRound traced = run_traced_round(*pool, plan);
  out.set("trace.overhead_pct", 100.0 * (traced.wall_s / first.wall_s - 1.0));
  std::uint64_t count_interactions = 0;
  std::uint64_t skip_interactions = 0;
  double count_ms = 0.0;
  double skip_ms = 0.0;
  std::uint64_t productive = 0;
  std::uint64_t apply_calls = 0;
  // δ cost weighted by each cell's calls, over the cells that sampled pairs.
  double apply_ns_weighted = 0.0;
  double sampled_calls = 0.0;
  bool same = true;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const bool count = resolved_kind(cells[c]) == EngineKind::kCount;
    for (const double ms : first.cells[c].replicate_ms) {
      (count ? count_ms : skip_ms) += ms;
    }
    std::vector<std::pair<State, State>> pairs;
    std::vector<RunResult> results;
    std::uint64_t calls = 0;
    for (const TracedReplicate& t : traced.cells[c]) {
      results.push_back(t.result);
      (count ? count_interactions : skip_interactions) += t.result.interactions;
      productive += t.productive;
      calls += t.apply.calls;
      pairs.insert(pairs.end(), t.apply.sample.begin(), t.apply.sample.end());
    }
    same = same && same_summary(summarize_cell(cells[c], results),
                                first.cells[c].summary);
    apply_calls += calls;
    if (pairs.empty()) continue;
    const double ns = std::visit(
        [&](const auto& p) { return ns_per_apply(p, pairs); },
        cells[c].protocol);
    apply_ns_weighted += ns * static_cast<double>(calls);
    sampled_calls += static_cast<double>(calls);
  }
  out.check(same, "traced trajectories differ from the untraced ones");

  // The pool-reuse defect (README): the plan's first point through
  // run_replicates six times on a newly started pool. From its third to
  // fifth call on, depending on the process, a pool runs small-state
  // skip-engine points up to 3x slower; the median of calls 4-6 over call 1
  // is about 1 once the defect is fixed.
  {
    const std::unique_ptr<ThreadPool> fresh = start_pool(threads, stamps);
    std::vector<double> walls_s;
    std::string note = cells.front().label +
                       " through run_replicates on a new pool, calls 1-6 (s):";
    for (int call = 0; call < 6; ++call) {
      walls_s.push_back(run_harness_call(*fresh, cells.front(), out).wall_s);
      note += ' ';
      note += fixed(walls_s.back(), 3);
    }
    const std::vector<double> later(walls_s.begin() + 3, walls_s.end());
    out.set("harness.pool.reuse_slowdown", median(later) / walls_s.front());
    out.notes.push_back(note);
  }
  out.set("population.count.interactions",
          static_cast<double>(count_interactions));
  if (count_interactions > 0) {
    out.set("population.count.ns_per_interaction",
            count_ms * 1e6 / static_cast<double>(count_interactions));
  }
  out.set("population.skip.productive_steps", static_cast<double>(productive));
  if (productive > 0) {
    out.set("population.skip.nulls_per_productive",
            static_cast<double>(skip_interactions - productive) /
                static_cast<double>(productive));
    out.set("population.skip.ns_per_productive",
            skip_ms * 1e6 / static_cast<double>(productive));
  }
  out.set("core.apply.calls", static_cast<double>(apply_calls));
  if (sampled_calls > 0.0) {
    out.set("core.apply.ns_per_call", apply_ns_weighted / sampled_calls);
  }
  return out;
}

}  // namespace

Outcome run_fig3_paper(const Options& options) {
  return run_simulation(options, fig3_plan(options.seed));
}

Outcome run_fig4_skip(const Options& options) {
  return run_simulation(options, fig4_plan(options.seed));
}

}  // namespace perfbench
