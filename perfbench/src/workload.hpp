// What every workload receives and returns, and the metric catalogue the
// result line is checked against (BENCHMARK.json names the same metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// `v` with `digits` decimals, for the human-readable notes.
inline std::string fixed(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double rate = 0.0;  // serve_open arrivals per second
  // Process entry; set-up is charged from here.
  Clock::time_point process_start = Clock::now();
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics, printed by every untraced run.
inline const std::vector<MetricSpec>& end_to_end_catalogue() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"wall_s", "s"},
      {"interactions_per_s", "1/s"}, {"jobs_per_s", "1/s"},
      {"job_p50_ms", "ms"},      {"job_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

// Per-layer metrics, printed by every traced run. A layer that a workload
// bypasses reads 0 there.
inline const std::vector<MetricSpec>& per_layer_catalogue() {
  static const std::vector<MetricSpec> specs = {
      {"population.count.interactions", "count"},
      {"population.count.ns_per_interaction", "ns"},
      {"population.skip.productive_steps", "count"},
      {"population.skip.nulls_per_productive", "ratio"},
      {"population.skip.ns_per_productive", "ns"},
      {"core.apply.calls", "count"},
      {"core.apply.ns_per_call", "ns"},
      {"harness.replicate_ms.three_state.p50", "ms"},
      {"harness.replicate_ms.three_state.p90", "ms"},
      {"harness.replicate_ms.four_state.p50", "ms"},
      {"harness.replicate_ms.four_state.p90", "ms"},
      {"harness.replicate_ms.avc.p50", "ms"},
      {"harness.replicate_ms.avc.p90", "ms"},
      {"harness.pool.busy_share", "ratio"},
      {"harness.pool.reuse_slowdown", "ratio"},
      {"net.ingress_ms.p50", "ms"},
      {"net.ingress_ms.p99", "ms"},
      {"serve.codec.decode_us", "us"},
      {"serve.codec.encode_us", "us"},
      {"serve.router.submit_us.p50", "us"},
      {"serve.router.submit_us.p99", "us"},
      {"serve.queue_ms.p50", "ms"},
      {"serve.queue_ms.p99", "ms"},
      {"serve.run_ms.p50", "ms"},
      {"serve.run_ms.p99", "ms"},
      {"serve.replica_ms.p50", "ms"},
      {"serve.vote.self_ms.p50", "ms"},
      {"serve.response_us.p50", "us"},
      {"net.egress_ms.p50", "ms"},
      {"net.egress_ms.p99", "ms"},
      {"serve.attempts_per_job", "ratio"},
      {"serve.vote.replicas_per_job", "ratio"},
      {"serve.degraded_share", "ratio"},
      {"serve.router.redirected_share", "ratio"},
      {"net.bytes_per_job", "bytes"},
      {"loadgen.lag_p99_ms", "ms"},
      {"layer_sum_gap_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

// A workload's findings. `metrics` holds whatever it measured (end-to-end
// and per-layer under their catalogue names); `notes` are human-readable
// lines printed ahead of the result; every entry of `failures` is an output
// check that did not hold and makes the run incorrect.
struct Outcome {
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Outcome run_fig3_paper(const Options& options);
Outcome run_fig4_skip(const Options& options);
Outcome run_serve_open(const Options& options);
Outcome run_serve_closed(const Options& options);

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
