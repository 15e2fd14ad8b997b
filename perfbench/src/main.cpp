// perfbench: runs one benchmark workload, checks its outputs, and prints
// the result. Usage:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rate R]
//
// The last line of standard output is one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is the machine fingerprint.
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_POPBEAN_OBS
#define PERFBENCH_POPBEAN_OBS "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Everything a comparison between two results must hold equal.
std::string fingerprint_line() {
  std::ostringstream os;
  {
    popbean::JsonWriter json(os);
    json.begin_object();
    json.key("fingerprint");
    json.begin_object();
    json.kv("cpu_model", cpu_model());
    json.kv("nproc", static_cast<std::uint64_t>(
                         std::thread::hardware_concurrency()));
    json.kv("compiler", PERFBENCH_COMPILER);
    json.kv("cxx_flags", PERFBENCH_CXX_FLAGS);
    json.kv("build_type", PERFBENCH_BUILD_TYPE);
    json.kv("popbean_obs", PERFBENCH_POPBEAN_OBS);
    const char* tunables = std::getenv("GLIBC_TUNABLES");
    json.kv("glibc_tunables", tunables == nullptr ? "" : tunables);
    json.end_object();
    json.end_object();
  }
  return popbean::json_single_line(os.str());
}

std::string result_line(const Outcome& outcome, bool trace) {
  const auto& catalogue =
      trace ? per_layer_catalogue() : end_to_end_catalogue();
  std::ostringstream os;
  {
    popbean::JsonWriter json(os);
    json.begin_object();
    json.kv("correct", outcome.failures.empty());
    json.kv("attempted", outcome.attempted);
    json.kv("failed", outcome.failed);
    json.key("metrics");
    json.begin_object();
    for (const MetricSpec& spec : catalogue) {
      const auto it = outcome.metrics.find(spec.name);
      if (it == outcome.metrics.end() && !trace) {
        throw std::logic_error(std::string("end-to-end metric not measured: ") +
                               spec.name);
      }
      json.key(spec.name);
      json.begin_object();
      json.kv("value", it == outcome.metrics.end() ? 0.0 : it->second);
      json.kv("unit", spec.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
  }
  return popbean::json_single_line(os.str());
}

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + token);
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      args[token.substr(0, eq)] = token.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[token] = argv[++i];
    } else {
      throw std::invalid_argument("missing value for --" + token);
    }
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "rate") {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  return args;
}

int run(int argc, char** argv) {
  Options options;
  const auto args = parse_args(argc, argv);
  const auto get = [&args](const char* key, const char* fallback) {
    const auto it = args.find(key);
    return it == args.end() ? std::string(fallback) : it->second;
  };
  options.workload = get("workload", "");
  options.seed = std::stoull(get("seed", "1"));
  options.seconds = std::stod(get("seconds", "20"));
  options.trace = get("trace", "0") == "1";
  options.rate = std::stod(get("rate", "0"));
  if (options.seconds <= 0.0) {
    throw std::invalid_argument("--seconds must be positive");
  }

  const std::map<std::string, std::function<Outcome(const Options&)>>
      workloads = {{"fig3_paper", run_fig3_paper},
                   {"fig4_skip", run_fig4_skip},
                   {"serve_open", run_serve_open},
                   {"serve_closed", run_serve_closed}};
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    throw std::invalid_argument("unknown --workload '" + options.workload +
                                "' (fig3_paper, fig4_skip, serve_open, "
                                "serve_closed)");
  }

  Outcome outcome = it->second(options);
  outcome.set("peak_rss_mb", peak_rss_mb());

  std::cout << "workload " << options.workload << ", seed " << options.seed
            << ", " << options.seconds << " s, trace "
            << (options.trace ? 1 : 0) << "\n";
  for (const std::string& note : outcome.notes) std::cout << "  " << note << "\n";
  std::cout << "  failed_share: "
            << (outcome.attempted == 0
                    ? 0.0
                    : static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted))
            << " (" << outcome.failed << " of " << outcome.attempted << ")\n";
  for (const auto& [name, value] : outcome.metrics) {
    std::cout << "  " << name << " = " << value << "\n";
  }
  for (const std::string& failure : outcome.failures) {
    std::cout << "  CHECK FAILED: " << failure << "\n";
  }
  std::cout << fingerprint_line() << "\n";
  std::cout << result_line(outcome, options.trace) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
