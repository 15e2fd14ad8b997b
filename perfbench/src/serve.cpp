// Serve workloads: one in-process fleet (ShardRouter → JobService) driven
// either open-loop over loopback TCP through a TcpServer (serve_open) or
// closed-loop straight into ShardRouter::submit (serve_closed). The job mix
// is small populations of exact protocols, so the layers around the
// simulation — codec, net, admission, queue, vote — are a visible share of
// every job's latency.
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/codec.hpp"
#include "serve/router.hpp"
#include "stats.hpp"
#include "util/json_parse.hpp"
#include "util/net_io.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using popbean::Xoshiro256ss;
using popbean::net::TcpServer;
using popbean::obs::TraceCollector;
using popbean::serve::JobOutcome;
using popbean::serve::JobResponse;
using popbean::serve::JobSpec;
using popbean::serve::ShardRouter;

constexpr std::size_t kConnections = 4;
constexpr int kSetupRepeats = 5;
// Warm-up jobs: the same ones whatever the workload seed, so set-up time
// measures set-up and not the seed's job draw.
constexpr std::size_t kWarmupJobs = 120;
constexpr std::uint64_t kWarmupSeed = 0x5eed;
constexpr double kVoteShare = 0.3;
// Span ring of the traced pass: the last few thousand jobs' trees.
constexpr std::size_t kTraceCapacity = 60'000;
// Validity bounds: an open-loop run whose generator ran later than this at
// p99 measured the generator, not the server.
constexpr double kMaxLagP99Ms = 10.0;
// Median share of a job's client-observed latency the layer times may
// leave unexplained.
constexpr double kMaxLayerGapPct = 5.0;
constexpr auto kDrainBudget = std::chrono::seconds(30);

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) * 1e-6;
}

// Two cores stay free of workers: the generator, the client reader and the
// server's loop wake on them without waiting for a worker to yield, so the
// open loop's send times and latencies do not follow the scheduler.
std::size_t worker_count() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw > 2 ? hw - 2 : 1;
}

// The job mix: AVC (m = 3), four-state and the zoo's doubling protocol —
// all exact — on a few hundred to two thousand agents at several margins;
// about 30% of jobs voted over k = 3 replicas. The interaction cap sits far
// above any of these instances' convergence time.
JobSpec make_job(Xoshiro256ss& rng, std::string id) {
  static const char* const kProtocols[] = {"avc", "four-state",
                                           "zoo:doubling"};
  static const std::uint64_t kSizes[] = {201, 501, 1001, 2001};
  static const double kEpsilons[] = {0.05, 0.1, 0.2, 0.4};
  JobSpec spec;
  spec.id = std::move(id);
  spec.protocol = kProtocols[rng.below(3)];
  spec.n = kSizes[rng.below(4)];
  spec.epsilon = kEpsilons[rng.below(4)];
  spec.seed = rng() >> 12;  // exact in a JSON double
  spec.max_interactions = 20'000 * spec.n;
  spec.vote_replicas = rng.bernoulli(kVoteShare) ? 3 : 1;
  return spec;
}

// Measured jobs are "j<index>", warm-up jobs "w<index>". Built by appends:
// GCC 12's -Wrestrict misfires on `job_id('j', i)`.
std::string job_id(char prefix, std::size_t index) {
  std::string id(1, prefix);
  id += std::to_string(index);
  return id;
}

std::optional<std::size_t> job_index(std::string_view id) {
  if (id.size() < 2 || id.front() != 'j') return std::nullopt;
  std::size_t index = 0;
  const auto [ptr, ec] =
      std::from_chars(id.data() + 1, id.data() + id.size(), index);
  if (ec != std::errc() || ptr != id.data() + id.size()) return std::nullopt;
  return index;
}

// An exact protocol must decide the majority in every replicate it ran.
bool decided_correctly(const JobResponse& r) {
  return r.outcome == JobOutcome::kDone && r.result.replicates_run > 0 &&
         r.result.correct == r.result.replicates_run;
}

// Everything recorded about one measured job. Each field has one writer
// thread; the pass reads them only after every thread has finished.
struct JobRecord {
  JobStamps stamps;
  std::int64_t due = 0;  // open loop: when the request was due
  std::uint64_t n = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  std::uint32_t responses = 0;
  JobResponse response;
};

popbean::serve::RouterConfig router_config(TraceCollector* trace) {
  popbean::serve::RouterConfig config;
  config.shards = 1;
  config.service.threads = worker_count();
  config.service.trace = trace;
  return config;
}

// --- open loop: TcpServer front end and loopback clients ------------------

class TcpRig {
 public:
  // `stamp` records the server-side boundaries of every measured job.
  TcpRig(TraceCollector* trace, std::vector<JobRecord>& records, bool stamp)
      : records_(records), stamp_(stamp) {
    router_.emplace(router_config(trace), [this](const JobResponse& r) {
      JobRecord* rec = record_for(r.id);
      if (rec != nullptr) rec->stamps.response = now_ns();
      if (r.origin != 0 && server_.has_value()) server_->deliver(r);
      if (rec != nullptr) rec->stamps.deliver_return = now_ns();
    });
    popbean::net::TcpServerConfig tcp;
    tcp.listen = {"127.0.0.1", 0};
    server_.emplace(
        tcp,
        [this](JobSpec&& spec) {
          JobRecord* rec = record_for(spec.id);
          if (rec != nullptr) rec->stamps.submit = now_ns();
          router_->submit(std::move(spec));
          if (rec != nullptr) rec->stamps.submit_return = now_ns();
        },
        [this](const JobResponse&) { ++server_synthesized_; });
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("cannot listen on loopback: " + error);
    }
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = popbean::netio::connect_tcp(
          {"127.0.0.1", server_->port()}, std::chrono::milliseconds(2000),
          &error);
      if (fd < 0) throw std::runtime_error("cannot connect: " + error);
      fds_.push_back(fd);
    }
    // One reader for every connection: with the generator, the server's
    // loop and the workers, no more busy threads than cores.
    reader_ = std::thread([this] { read_loop(); });
  }

  ~TcpRig() {
    finish();
    for (const int fd : fds_) popbean::netio::close_fd(fd);
  }

  TcpRig(const TcpRig&) = delete;
  TcpRig& operator=(const TcpRig&) = delete;

  // Sends a few jobs of every kind and waits for their responses.
  void warm_up() {
    Xoshiro256ss rng(kWarmupSeed);
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      const JobSpec spec = make_job(rng, job_id('w', i));
      send(i % kConnections, popbean::serve::job_request_line(spec) + "\n");
    }
    std::unique_lock lock(warm_mutex_);
    const bool done = warm_cv_.wait_for(lock, std::chrono::seconds(30), [this] {
      return warm_received_ == kWarmupJobs;
    });
    if (!done) throw std::runtime_error("serve warm-up did not complete");
  }

  void send(std::size_t connection, std::string_view line) {
    if (!popbean::netio::write_all(fds_[connection], line).ok()) {
      throw std::runtime_error("loopback write failed");
    }
  }

  // Half-closes every client, waits for the server to flush and close
  // (or the drain budget to pass), then drains the fleet.
  void finish() {
    if (finished_) return;
    finished_ = true;
    for (const int fd : fds_) ::shutdown(fd, SHUT_WR);
    give_up_at_.store(now_ns() + std::chrono::nanoseconds(kDrainBudget).count());
    reader_.join();
    server_->begin_drain();
    router_->drain(std::chrono::duration_cast<std::chrono::milliseconds>(
        kDrainBudget));
    server_->drain(std::chrono::milliseconds(1000));
    server_->stop();
  }

  const ShardRouter& router() const { return *router_; }
  std::size_t server_synthesized() const { return server_synthesized_.load(); }
  std::size_t stray_lines() const { return stray_lines_.load(); }

 private:
  JobRecord* record_for(std::string_view id) {
    if (!stamp_) return nullptr;
    const auto index = job_index(id);
    return index && *index < records_.size() ? &records_[*index] : nullptr;
  }

  // Reads every connection until the server has closed each of them after
  // its last response, or the drain budget has passed.
  void read_loop() {
    std::vector<pollfd> open;
    for (const int fd : fds_) open.push_back({fd, POLLIN, 0});
    std::vector<std::string> pending(open.size());
    char buffer[1 << 16];
    while (!open.empty()) {
      const std::int64_t give_up = give_up_at_.load();
      if (give_up != 0 && now_ns() > give_up) return;
      if (::poll(open.data(), open.size(), 100) <= 0) continue;
      for (std::size_t i = open.size(); i-- > 0;) {
        if (open[i].revents == 0) continue;
        const popbean::netio::IoResult got =
            popbean::netio::read_some(open[i].fd, buffer, sizeof buffer);
        if (got.status == popbean::netio::IoStatus::kWouldBlock) continue;
        if (!got.ok()) {
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        std::string& lines = pending[i];
        lines.append(buffer, got.bytes);
        std::size_t start = 0;
        for (std::size_t nl;
             (nl = lines.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          on_line(std::string_view(lines).substr(start, nl - start));
        }
        lines.erase(0, start);
      }
    }
  }

  void on_line(std::string_view line) {
    std::optional<JobResponse> response =
        popbean::serve::parse_job_response(line);
    const std::int64_t read_at = now_ns();
    if (!response.has_value()) {
      ++stray_lines_;
      return;
    }
    if (!response->id.empty() && response->id.front() == 'w') {
      std::lock_guard lock(warm_mutex_);
      ++warm_received_;
      warm_cv_.notify_all();
      return;
    }
    const auto index = job_index(response->id);
    if (!index || *index >= records_.size()) {
      ++stray_lines_;
      return;
    }
    JobRecord& rec = records_[*index];
    rec.stamps.read = read_at;
    rec.response_bytes = line.size() + 1;
    ++rec.responses;
    rec.response = std::move(*response);
  }

  std::vector<JobRecord>& records_;
  const bool stamp_;
  bool finished_ = false;
  std::atomic<std::size_t> server_synthesized_{0};
  std::atomic<std::size_t> stray_lines_{0};
  std::atomic<std::int64_t> give_up_at_{0};
  std::mutex warm_mutex_;
  std::condition_variable warm_cv_;
  std::size_t warm_received_ = 0;
  std::vector<int> fds_;
  // The router's sink reaches the server and the server's submit reaches
  // the router; both outlive every job (finish() drains them first).
  std::optional<ShardRouter> router_;
  std::optional<TcpServer> server_;
  std::thread reader_;
};

// --- closed loop: direct submits --------------------------------------------

class DirectRig {
 public:
  struct Completion {
    JobResponse response;
    std::int64_t at = 0;
  };

  explicit DirectRig(TraceCollector* trace) {
    router_.emplace(router_config(trace), [this](const JobResponse& r) {
      const std::int64_t at = now_ns();
      std::lock_guard lock(mutex_);
      done_.push_back({r, at});
      cv_.notify_one();
    });
  }

  ~DirectRig() { router_->drain(std::chrono::milliseconds(5000)); }

  DirectRig(const DirectRig&) = delete;
  DirectRig& operator=(const DirectRig&) = delete;

  void warm_up() {
    Xoshiro256ss rng(kWarmupSeed);
    for (std::size_t i = 0; i < kWarmupJobs; ++i) {
      router_->submit(make_job(rng, job_id('w', i)));
    }
    for (std::size_t got = 0; got < kWarmupJobs;) {
      const std::vector<Completion> batch = wait(std::chrono::seconds(30));
      if (batch.empty()) throw std::runtime_error("serve warm-up timed out");
      got += batch.size();
    }
  }

  ShardRouter& router() { return *router_; }

  // Blocks until at least one response arrived or `timeout` passed.
  std::vector<Completion> wait(std::chrono::seconds timeout) {
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, timeout, [this] { return !done_.empty(); });
    std::vector<Completion> batch;
    batch.swap(done_);
    return batch;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Completion> done_;
  std::optional<ShardRouter> router_;
};

// --- shared measurement -----------------------------------------------------

struct Pass {
  std::vector<JobRecord> records;
  std::vector<std::string> request_lines;  // open loop only
  std::vector<double> lag_ms;              // open loop only
  double setup_s = 0.0;
  ShardRouter::Stats router;
  std::size_t stray = 0;
};

// Median set-up time over kSetupRepeats fresh rigs; the last one is kept.
template <typename Rig, typename Make>
std::unique_ptr<Rig> set_up(const Make& make, double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const auto start = Clock::now();
    rig = make();
    rig->warm_up();
    times.push_back(seconds_since(start));
  }
  *setup_s = median(times);
  return rig;
}

Pass open_pass(const Options& options, TraceCollector* trace) {
  Pass pass;
  const std::vector<double> due =
      poisson_schedule(options.seed, options.rate, options.seconds);
  Xoshiro256ss rng(options.seed, /*stream=*/0x30b);
  pass.records.resize(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const JobSpec spec = make_job(rng, job_id('j', i));
    pass.records[i].n = spec.n;
    pass.request_lines.push_back(popbean::serve::job_request_line(spec) + "\n");
    pass.records[i].request_bytes = pass.request_lines.back().size();
  }
  std::unique_ptr<TcpRig> rig = set_up<TcpRig>(
      [&] {
        return std::make_unique<TcpRig>(trace, pass.records, trace != nullptr);
      },
      &pass.setup_s);

  const std::int64_t start = now_ns() + 2'000'000;
  pass.lag_ms.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    JobRecord& rec = pass.records[i];
    rec.due = start + static_cast<std::int64_t>(due[i] * 1e9);
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(rec.due)));
    rec.stamps.send = now_ns();
    pass.lag_ms.push_back(ms_between(rec.due, rec.stamps.send));
    rig->send(i % kConnections, pass.request_lines[i]);
  }
  rig->finish();
  pass.router = rig->router().stats();
  pass.stray = rig->stray_lines() + rig->server_synthesized();
  return pass;
}

Pass closed_pass(const Options& options, TraceCollector* trace) {
  Pass pass;
  std::unique_ptr<DirectRig> rig = set_up<DirectRig>(
      [&] { return std::make_unique<DirectRig>(trace); }, &pass.setup_s);

  Xoshiro256ss rng(options.seed, /*stream=*/0x30b);
  const std::size_t clients = 2 * worker_count();
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  std::size_t outstanding = 0;
  const auto submit_next = [&] {
    const std::size_t index = pass.records.size();
    JobSpec spec = make_job(rng, job_id('j', index));
    pass.records.emplace_back();
    pass.records.back().n = spec.n;
    pass.records.back().stamps.submit = now_ns();
    rig->router().submit(std::move(spec));
    pass.records[index].stamps.submit_return = now_ns();
    ++outstanding;
  };
  for (std::size_t c = 0; c < clients; ++c) submit_next();
  while (outstanding > 0) {
    std::vector<DirectRig::Completion> batch =
        rig->wait(std::chrono::duration_cast<std::chrono::seconds>(kDrainBudget));
    if (batch.empty()) break;  // lost responses: counted as failed below
    for (DirectRig::Completion& done : batch) {
      const auto index = job_index(done.response.id);
      --outstanding;
      if (!index || *index >= pass.records.size()) {
        ++pass.stray;
        continue;
      }
      JobRecord& rec = pass.records[*index];
      rec.stamps.response = done.at;
      ++rec.responses;
      rec.response = std::move(done.response);
      if (now_ns() < end) submit_next();
    }
  }
  pass.router = rig->router().stats();
  return pass;
}

// Client-observed latency of a job: from its due time (open loop) or its
// submit (closed loop) to the response.
double latency_ms(const JobRecord& rec, bool tcp) {
  return tcp ? ms_between(rec.due, rec.stamps.read)
             : ms_between(rec.stamps.submit, rec.stamps.response);
}

// Output checks plus the end-to-end metrics of one pass.
void end_to_end(const Pass& pass, bool tcp, Outcome& out) {
  std::uint64_t failed = 0;
  std::vector<double> latencies;
  double interactions = 0.0;
  std::int64_t first = 0;
  std::int64_t last = 0;
  for (const JobRecord& rec : pass.records) {
    if (rec.responses != 1 || !decided_correctly(rec.response)) {
      ++failed;
      continue;
    }
    latencies.push_back(latency_ms(rec, tcp));
    const std::int64_t begin = tcp ? rec.due : rec.stamps.submit;
    const std::int64_t finish = tcp ? rec.stamps.read : rec.stamps.response;
    first = first == 0 ? begin : std::min(first, begin);
    last = std::max(last, finish);
    // Simulated interactions, from the response: every replicate of every
    // replica ran about mean_parallel_time · n of them.
    interactions += rec.response.result.mean_parallel_time *
                    static_cast<double>(rec.n) *
                    rec.response.result.replicates_run *
                    rec.response.replicas_used;
  }
  out.attempted = pass.records.size();
  out.failed = failed;
  out.check(failed == 0, std::to_string(failed) + " of " +
                             std::to_string(pass.records.size()) +
                             " jobs lacked exactly one correct done response");
  out.check(pass.stray == 0, std::to_string(pass.stray) +
                                 " responses named no measured job");
  out.check(pass.records.size() >= 1000,
            "only " + std::to_string(pass.records.size()) +
                " jobs: p99 needs at least 1000");
  const double wall = std::max(1e-9, ms_between(first, last) * 1e-3);
  const Tail latency = summarize_tail(latencies);
  out.set("wall_s", wall);
  out.set("interactions_per_s", interactions / wall);
  out.set("jobs_per_s", static_cast<double>(latencies.size()) / wall);
  out.set("job_p50_ms", latency.p50);
  out.set("job_p99_ms", latency.tail);
  out.notes.push_back(std::to_string(pass.records.size()) + " jobs on " +
                      std::to_string(worker_count()) +
                      " workers; job tail is p" + fixed(latency.tail_pct, 2) +
                      " of " + std::to_string(latency.count));
  if (tcp) {
    const double lag = percentile(pass.lag_ms, 99.0);
    out.notes.push_back("generator lag p99 " + fixed(lag, 3) + " ms");
    out.check(lag <= kMaxLagP99Ms, "generator lag p99 " + fixed(lag, 3) +
                                       " ms exceeds " +
                                       fixed(kMaxLagP99Ms, 1) +
                                       " ms: the run is invalid");
  }
}

// serve.replica_ms.p50 and serve.vote.self_ms.p50 from the job span trees:
// a job's vote self time is its attempts' time minus their replicas'.
void span_tree_metrics(const TraceCollector& trace, Outcome& out) {
  std::ostringstream os;
  trace.write_chrome_trace(os);
  const popbean::JsonValue doc = popbean::JsonValue::parse(os.str());
  const popbean::JsonValue& events = *doc.find("traceEvents");
  struct Track {
    std::vector<double> open_attempt, open_replica;
    double attempts = 0.0, replicas = 0.0;
    std::size_t complete_attempts = 0;
    bool dangling = false;
  };
  std::map<std::string, Track> tracks;
  std::vector<double> replica_ms;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const popbean::JsonValue& ev = events.at(i);
    const popbean::JsonValue* id = ev.find("id");
    if (id == nullptr) continue;
    const std::string& name = ev.find("name")->as_string();
    if (name != "attempt" && name != "replica") continue;
    const std::string& ph = ev.find("ph")->as_string();
    const double ts = ev.find("ts")->as_double() * 1e-3;  // µs → ms
    Track& track = tracks[id->as_string()];
    std::vector<double>& open =
        name == "attempt" ? track.open_attempt : track.open_replica;
    if (ph == "b") {
      open.push_back(ts);
    } else if (ph == "e") {
      if (open.empty()) {  // its begin fell out of the ring
        track.dangling = true;
        continue;
      }
      const double dur = ts - open.back();
      open.pop_back();
      if (name == "attempt") {
        track.attempts += dur;
        ++track.complete_attempts;
      } else {
        track.replicas += dur;
        replica_ms.push_back(dur);
      }
    }
  }
  std::vector<double> vote_self;
  for (const auto& [id, track] : tracks) {
    if (track.dangling || track.complete_attempts == 0 ||
        !track.open_attempt.empty() || !track.open_replica.empty()) {
      continue;
    }
    vote_self.push_back(track.attempts - track.replicas);
  }
  out.set("serve.replica_ms.p50", median(replica_ms));
  out.set("serve.vote.self_ms.p50", median(vote_self));
  out.notes.push_back("span trees: " + std::to_string(vote_self.size()) +
                      " complete jobs, " + std::to_string(replica_ms.size()) +
                      " replicas");
}

// Mean cost of one call, over every input, looped until ≥ 20 ms.
template <typename Items, typename Fn>
double mean_us(const Items& items, const Fn& fn) {
  if (items.empty()) return 0.0;
  std::size_t calls = 0;
  const auto start = Clock::now();
  do {
    fn(items);
    calls += items.size();
  } while (seconds_since(start) < 0.02);
  return seconds_since(start) * 1e6 / static_cast<double>(calls);
}

void layer_metrics(const Pass& pass, bool tcp, Outcome& out) {
  std::vector<double> ingress, submit, queue, run, response, egress, gap;
  double attempts = 0.0, replicas = 0.0, degraded = 0.0, bytes = 0.0;
  std::vector<JobResponse> responses;
  for (const JobRecord& rec : pass.records) {
    if (rec.responses != 1) continue;
    const LayerTimes t =
        layer_times(rec.stamps, rec.response.queue_ms, rec.response.run_ms);
    submit.push_back(t.submit * 1e3);
    queue.push_back(t.queue);
    run.push_back(t.run);
    gap.push_back(t.gap_pct());
    if (tcp) {
      ingress.push_back(t.ingress);
      response.push_back(t.response * 1e3);
      egress.push_back(t.egress);
      bytes += static_cast<double>(rec.request_bytes + rec.response_bytes);
      responses.push_back(rec.response);
    }
    attempts += rec.response.attempts;
    replicas += rec.response.replicas_used;
    degraded += rec.response.degraded ? 1.0 : 0.0;
  }
  const double jobs = std::max<double>(1.0, static_cast<double>(submit.size()));
  out.set("serve.router.submit_us.p50", percentile(submit, 50.0));
  out.set("serve.router.submit_us.p99", percentile(submit, 99.0));
  out.set("serve.queue_ms.p50", percentile(queue, 50.0));
  out.set("serve.queue_ms.p99", percentile(queue, 99.0));
  out.set("serve.run_ms.p50", percentile(run, 50.0));
  out.set("serve.run_ms.p99", percentile(run, 99.0));
  out.set("serve.attempts_per_job", attempts / jobs);
  out.set("serve.vote.replicas_per_job", replicas / jobs);
  out.set("serve.degraded_share", degraded / jobs);
  out.set("serve.router.redirected_share",
          pass.router.submitted == 0
              ? 0.0
              : static_cast<double>(pass.router.redirected) /
                    static_cast<double>(pass.router.submitted));
  const double gap_p50 = percentile(gap, 50.0);
  out.set("layer_sum_gap_pct", gap_p50);
  out.notes.push_back("layer-sum gap: p50 " + fixed(gap_p50, 2) + "%, p90 " +
                      fixed(percentile(gap, 90.0), 2) + "%");
  out.check(gap_p50 <= kMaxLayerGapPct,
            "layer times leave " + fixed(gap_p50, 2) +
                "% of the median job's latency unexplained (bound " +
                fixed(kMaxLayerGapPct, 1) + "%)");
  if (!tcp) return;
  out.set("net.ingress_ms.p50", percentile(ingress, 50.0));
  out.set("net.ingress_ms.p99", percentile(ingress, 99.0));
  out.set("serve.response_us.p50", percentile(response, 50.0));
  out.set("net.egress_ms.p50", percentile(egress, 50.0));
  out.set("net.egress_ms.p99", percentile(egress, 99.0));
  out.set("net.bytes_per_job", bytes / jobs);
  out.set("loadgen.lag_p99_ms", percentile(pass.lag_ms, 99.0));

  std::vector<std::string_view> lines;
  for (const std::string& line : pass.request_lines) {
    lines.emplace_back(line.data(), line.size() - 1);  // without '\n'
  }
  std::size_t decoded = 0;
  out.set("serve.codec.decode_us", mean_us(lines, [&](const auto& all) {
            popbean::serve::RequestReader reader;  // fresh: ids repeat per loop
            for (const std::string_view line : all) {
              if (reader.next(line).index() == 0) ++decoded;
            }
          }));
  out.check(decoded > 0 && decoded % lines.size() == 0,
            "request lines failed to decode");
  std::size_t encoded_bytes = 0;
  out.set("serve.codec.encode_us", mean_us(responses, [&](const auto& all) {
            for (const JobResponse& r : all) {
              encoded_bytes += popbean::serve::job_response_line(r).size();
            }
          }));
  out.check(encoded_bytes > 0, "responses failed to encode");
}

Outcome run_serve(const Options& options, bool tcp) {
  Outcome out;
  const auto pass_of = [&](TraceCollector* trace) {
    return tcp ? open_pass(options, trace) : closed_pass(options, trace);
  };
  const double before_setup = seconds_since(options.process_start);
  const Pass untraced = pass_of(nullptr);
  end_to_end(untraced, tcp, out);
  out.set("setup_s", before_setup + untraced.setup_s);
  if (!options.trace) return out;

  TraceCollector trace(kTraceCapacity);
  const Pass traced = pass_of(&trace);
  Outcome traced_out;
  end_to_end(traced, tcp, traced_out);
  out.failures.insert(out.failures.end(), traced_out.failures.begin(),
                      traced_out.failures.end());
  out.attempted += traced_out.attempted;
  out.failed += traced_out.failed;
  layer_metrics(traced, tcp, out);
  span_tree_metrics(trace, out);
  // Tracing cost: latency at a fixed offered load (open loop), or
  // throughput at saturation (closed loop).
  const auto& u = out.metrics;
  const auto& t = traced_out.metrics;
  out.set("trace.overhead_pct",
          tcp ? 100.0 * (t.at("job_p50_ms") / u.at("job_p50_ms") - 1.0)
              : 100.0 * (u.at("jobs_per_s") / t.at("jobs_per_s") - 1.0));
  return out;
}

}  // namespace

Outcome run_serve_open(const Options& options) {
  if (options.rate <= 0.0) {
    throw std::invalid_argument("serve_open needs --rate (jobs per second)");
  }
  return run_serve(options, /*tcp=*/true);
}

Outcome run_serve_closed(const Options& options) {
  return run_serve(options, /*tcp=*/false);
}

}  // namespace perfbench
