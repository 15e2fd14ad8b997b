// Pure arithmetic of the benchmark: percentile rules, seeded Poisson
// arrival schedules and the serve layer-sum check. Header-only so the
// self-tests exercise exactly what the workloads run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// The tail a run may quote: the highest percentile (capped at `cap`) that
// still leaves at least `beyond` samples strictly above its rank, so a tail
// figure never rests on fewer than ten observations. Returns 0 when `count`
// is too small for any such percentile.
inline double tail_percentile(std::size_t count, double cap = 99.0,
                              std::size_t beyond = 10) {
  if (count <= beyond) return 0.0;
  const double highest = 100.0 * static_cast<double>(count - beyond) /
                         static_cast<double>(count);
  return std::min(cap, highest);
}

// Nearest-rank percentile of an ascending-sorted sample: the value at rank
// ceil(p/100 · n), so exactly n − rank samples lie beyond it.
inline double nearest_rank(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

// Median and quotable tail of one sample.
struct Tail {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_pct = 0.0;  // which percentile `tail` is (≤ 99)
  double tail = 0.0;
};

inline Tail summarize_tail(std::vector<double> values, double cap = 99.0) {
  Tail out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = nearest_rank(values, 50.0);
  out.tail_pct = tail_percentile(values.size(), cap);
  out.tail = out.tail_pct > 0.0 ? nearest_rank(values, out.tail_pct)
                                : values.back();
  return out;
}

inline double percentile(std::vector<double> values, double pct) {
  std::sort(values.begin(), values.end());
  return nearest_rank(values, pct);
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

// Arrival offsets (seconds from the start of the schedule) of a Poisson
// process at `rate` per second, cut at `seconds`. The schedule depends on
// (seed, rate, seconds) only: its own RNG stream, no clock reads.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double seconds) {
  popbean::Xoshiro256ss rng(seed, /*stream=*/0x5c4ed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate)) {
    due.push_back(t);
  }
  return due;
}

// Durations (ms) of the replicates one worker thread ran back to back,
// from the instants (ns) its replicates started — `per_replicate`
// consecutive stamps each — and the instants its pool tasks finished. A
// replicate ends where the next one starts; the last one ends at the first
// task finish after its start. Empty when the stamps do not split into
// whole replicates or no task finished after the last start.
inline std::vector<double> replicate_durations_ms(
    const std::vector<std::int64_t>& starts_ns,
    const std::vector<std::int64_t>& finishes_ns, std::size_t per_replicate) {
  if (per_replicate == 0 || starts_ns.size() % per_replicate != 0) return {};
  std::vector<std::int64_t> begin;
  for (std::size_t i = 0; i < starts_ns.size(); i += per_replicate) {
    begin.push_back(starts_ns[i]);
  }
  if (begin.empty()) return {};
  const auto end = std::find_if(
      finishes_ns.begin(), finishes_ns.end(),
      [&](std::int64_t f) { return f >= begin.back(); });
  if (end == finishes_ns.end()) return {};
  begin.push_back(*end);
  std::vector<double> ms;
  for (std::size_t r = 0; r + 1 < begin.size(); ++r) {
    ms.push_back(static_cast<double>(begin[r + 1] - begin[r]) * 1e-6);
  }
  return ms;
}

// Boundary instants of one serve job, in nanoseconds on one steady clock.
// The TCP path fills all six; the direct-submit path leaves `send`,
// `deliver_return` and `read` unset (zero) and the sum runs from `submit`
// to `response`.
struct JobStamps {
  std::int64_t send = 0;            // client wrote the request line
  std::int64_t submit = 0;          // TcpServer SubmitFn entered
  std::int64_t submit_return = 0;   // ShardRouter::submit returned
  std::int64_t response = 0;        // router ResponseFn entered
  std::int64_t deliver_return = 0;  // TcpServer::deliver returned
  std::int64_t read = 0;            // client parsed the response line
};

// Per-layer durations of one job, in milliseconds. queue and run come from
// the service's own JobResponse; the rest from the stamps.
struct LayerTimes {
  double ingress = 0.0;   // send → SubmitFn: framer, poller, decode
  double submit = 0.0;    // ShardRouter::submit
  double queue = 0.0;     // admission → first attempt
  double run = 0.0;       // first attempt → terminal
  double response = 0.0;  // ResponseFn → deliver returned: encode, enqueue
  double egress = 0.0;    // deliver → client read: write, wire, client parse
  double observed = 0.0;  // what the client saw

  double sum() const noexcept {
    return ingress + submit + queue + run + response + egress;
  }
  // Share of the observed latency the layers fail to account for (or
  // account for twice), in percent.
  double gap_pct() const noexcept {
    return observed > 0.0 ? 100.0 * std::abs(observed - sum()) / observed
                          : 0.0;
  }
};

inline LayerTimes layer_times(const JobStamps& s, double queue_ms,
                              double run_ms) {
  const auto ms = [](std::int64_t from, std::int64_t to) {
    return static_cast<double>(to - from) * 1e-6;
  };
  LayerTimes t;
  t.submit = ms(s.submit, s.submit_return);
  t.queue = queue_ms;
  t.run = run_ms;
  if (s.send != 0) {
    t.ingress = ms(s.send, s.submit);
    t.response = ms(s.response, s.deliver_return);
    t.egress = ms(s.deliver_return, s.read);
    t.observed = ms(s.send, s.read);
  } else {
    t.observed = ms(s.submit, s.response);
  }
  return t;
}

}  // namespace perfbench
