#include "serve/codec.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "obs/context.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "zoo/registry.hpp"

namespace popbean::serve {

namespace {

struct FieldError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void bad_field(const std::string& name, const std::string& why) {
  throw FieldError("field \"" + name + "\": " + why);
}

std::uint64_t require_u64(const JsonValue& v, const std::string& name,
                          std::uint64_t min = 0,
                          std::uint64_t max =
                              std::numeric_limits<std::uint64_t>::max()) {
  if (!v.is_number()) bad_field(name, "expected a number");
  std::uint64_t out = 0;
  try {
    out = v.as_u64();
  } catch (const JsonParseError&) {
    bad_field(name, "expected a non-negative integer");
  }
  if (out < min || out > max) bad_field(name, "out of range");
  return out;
}

double require_double(const JsonValue& v, const std::string& name) {
  if (!v.is_number()) bad_field(name, "expected a number");
  return v.as_double();
}

const std::string& require_string(const JsonValue& v, const std::string& name) {
  if (!v.is_string()) bad_field(name, "expected a string");
  return v.as_string();
}

bool require_bool(const JsonValue& v, const std::string& name) {
  if (!v.is_bool()) bad_field(name, "expected a boolean");
  return v.as_bool();
}

// The enumerator among the first `count` whose to_string name is `text`.
template <typename Enum>
std::optional<Enum> from_name(const std::string& text, int count) {
  for (int i = 0; i < count; ++i) {
    const auto value = static_cast<Enum>(i);
    if (text == to_string(value)) return value;
  }
  return std::nullopt;
}

JobPriority parse_priority(const std::string& text) {
  if (const auto priority = from_name<JobPriority>(text, kNumPriorities)) {
    return *priority;
  }
  bad_field("priority", "expected \"low\", \"normal\", or \"high\"");
}

JobSpec spec_from_object(const JsonValue& object) {
  JobSpec spec;
  bool saw_version = false;
  for (const auto& [key, value] : object.members()) {
    if (key == "v") {
      const std::uint64_t version = require_u64(value, key);
      if (version < kMinProtocolVersion || version > kProtocolVersion) {
        bad_field(key, "unsupported protocol version " +
                           std::to_string(version));
      }
      saw_version = true;
    } else if (key == "id") {
      spec.id = require_string(value, key);
      if (spec.id.empty()) bad_field(key, "must not be empty");
    } else if (key == "client") {
      spec.client = require_string(value, key);
    } else if (key == "protocol") {
      spec.protocol = require_string(value, key);
      if (zoo::is_zoo_spec(spec.protocol)) {
        // "zoo:<...>" resolves against the zoo registry; anything it does
        // not know is rejected here with the member list, so a typo'd spec
        // never reaches a worker.
        if (!zoo::is_zoo_member(spec.protocol)) {
          bad_field(key, "unknown zoo protocol \"" + spec.protocol +
                             "\" (known: " + zoo::zoo_known_list() + ")");
        }
      } else if (spec.protocol != "avc" && spec.protocol != "four-state" &&
                 spec.protocol != "three-state") {
        bad_field(key, "unknown protocol \"" + spec.protocol + "\"");
      }
    } else if (key == "m") {
      spec.m = static_cast<int>(require_u64(value, key, 1, 64));
    } else if (key == "d") {
      spec.d = static_cast<int>(require_u64(value, key, 1, 64));
    } else if (key == "n") {
      spec.n = require_u64(value, key, 2);
    } else if (key == "eps") {
      spec.epsilon = require_double(value, key);
      if (!(spec.epsilon > 0.0 && spec.epsilon <= 1.0)) {
        bad_field(key, "must be in (0, 1]");
      }
    } else if (key == "seed") {
      spec.seed = require_u64(value, key);
    } else if (key == "max_interactions") {
      spec.max_interactions = require_u64(value, key);
    } else if (key == "replicates") {
      spec.replicates =
          static_cast<std::uint32_t>(require_u64(value, key, 1, 100000));
    } else if (key == "replicas") {
      // Per-job voting replica override (v2). Must be odd: an even replica
      // set can split its vote with no majority on either side.
      spec.vote_replicas =
          static_cast<std::uint32_t>(require_u64(value, key, 1, 101));
      if (spec.vote_replicas % 2 == 0) {
        bad_field(key, "must be odd (even replica counts can tie)");
      }
    } else if (key == "priority") {
      spec.priority = parse_priority(require_string(value, key));
    } else if (key == "deadline_ms") {
      spec.deadline = std::chrono::milliseconds(static_cast<std::int64_t>(
          require_u64(value, key, 0,
                      static_cast<std::uint64_t>(
                          std::numeric_limits<std::int64_t>::max() / 2))));
    } else if (key == "trace_id") {
      // Caller-supplied trace id (v2): lets an upstream proxy link its own
      // trace to ours. 0 (or absent) means "mint one at decode".
      spec.trace_id = require_u64(value, key);
    } else {
      bad_field(key, "unknown field");
    }
  }
  if (!saw_version) {
    bad_field("v", "missing (this build speaks v" +
                       std::to_string(kMinProtocolVersion) + "–v" +
                       std::to_string(kProtocolVersion) + ")");
  }
  if (spec.id.empty()) bad_field("id", "missing");
  return spec;
}

}  // namespace

ParsedRequest parse_job_request(std::string_view line) {
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const JsonParseError& e) {
    return RequestError{"", std::string("malformed JSON: ") + e.what()};
  }
  if (!root.is_object()) {
    return RequestError{"", "request must be a JSON object"};
  }
  // Best-effort id extraction so even a rejected request can be correlated.
  std::string id;
  if (const JsonValue* id_value = root.find("id");
      id_value != nullptr && id_value->is_string()) {
    id = id_value->as_string();
  }
  try {
    return spec_from_object(root);
  } catch (const FieldError& e) {
    return RequestError{id, e.what()};
  }
}

std::string job_request_line(const JobSpec& spec) {
  std::ostringstream buffer;
  JsonWriter json(buffer);
  json.begin_object();
  json.kv("v", kProtocolVersion);
  json.kv("id", spec.id);
  if (!spec.client.empty()) json.kv("client", spec.client);
  if (spec.protocol != "avc") json.kv("protocol", spec.protocol);
  if (spec.m != 3) json.kv("m", static_cast<std::uint64_t>(spec.m));
  if (spec.d != 1) json.kv("d", static_cast<std::uint64_t>(spec.d));
  json.kv("n", spec.n);
  json.kv("eps", spec.epsilon);
  json.kv("seed", spec.seed);
  if (spec.max_interactions != 0) {
    json.kv("max_interactions", spec.max_interactions);
  }
  if (spec.replicates != 1) {
    json.kv("replicates", static_cast<std::uint64_t>(spec.replicates));
  }
  if (spec.vote_replicas != 0) {
    json.kv("replicas", static_cast<std::uint64_t>(spec.vote_replicas));
  }
  if (spec.priority != JobPriority::kNormal) {
    json.kv("priority", to_string(spec.priority));
  }
  if (spec.deadline.count() != 0) {
    json.kv("deadline_ms", static_cast<std::uint64_t>(spec.deadline.count()));
  }
  if (spec.trace_id != 0) json.kv("trace_id", spec.trace_id);
  json.end_object();
  return json_single_line(buffer.str());
}

std::optional<JobResponse> parse_job_response(std::string_view line,
                                              std::string* error) {
  const auto fail = [error](std::string why) -> std::optional<JobResponse> {
    if (error != nullptr) *error = std::move(why);
    return std::nullopt;
  };
  JsonValue root;
  try {
    root = JsonValue::parse(line);
  } catch (const JsonParseError& e) {
    return fail(std::string("malformed JSON: ") + e.what());
  }
  if (!root.is_object()) return fail("response must be a JSON object");
  JobResponse response;
  bool saw_version = false;
  bool saw_id = false;
  bool saw_outcome = false;
  try {
    for (const auto& [key, value] : root.members()) {
      if (key == "v") {
        const std::uint64_t version = require_u64(value, key);
        if (version < kMinProtocolVersion || version > kProtocolVersion) {
          bad_field(key, "unsupported protocol version " +
                             std::to_string(version));
        }
        saw_version = true;
      } else if (key == "id") {
        // Unlike requests, an EMPTY id is legal here: server-synthesized
        // rejections (garbage frames, admission refusals) are not
        // attributable to any job and ship with id "".
        response.id = require_string(value, key);
        saw_id = true;
      } else if (key == "outcome") {
        const std::string& text = require_string(value, key);
        const auto outcome = from_name<JobOutcome>(text, kNumOutcomes);
        if (!outcome.has_value()) {
          bad_field(key, "unknown outcome \"" + text + "\"");
        }
        response.outcome = *outcome;
        saw_outcome = true;
      } else if (key == "error") {
        response.error = require_string(value, key);
      } else if (key == "attempts") {
        response.attempts = static_cast<std::uint32_t>(
            require_u64(value, key, 0, 1'000'000));
      } else if (key == "degraded") {
        response.degraded = require_bool(value, key);
      } else if (key == "replicas_used") {
        response.replicas_used = static_cast<std::uint32_t>(
            require_u64(value, key, 0, 1'000'000));
      } else if (key == "voted") {
        response.voted = require_bool(value, key);
      } else if (key == "quarantined") {
        response.quarantined = require_bool(value, key);
      } else if (key == "divergent") {
        response.divergent = static_cast<std::uint32_t>(
            require_u64(value, key, 0, 1'000'000));
      } else if (key == "queue_ms") {
        response.queue_ms = require_double(value, key);
      } else if (key == "run_ms") {
        response.run_ms = require_double(value, key);
      } else if (key == "trace_id") {
        response.trace_id = require_u64(value, key);
      } else if (key == "shard") {
        response.shard =
            static_cast<std::size_t>(require_u64(value, key));
      } else if (key == "result") {
        if (!value.is_object()) bad_field(key, "expected an object");
        for (const auto& [rkey, rvalue] : value.members()) {
          if (rkey == "replicates") {
            response.result.replicates_run =
                static_cast<std::uint32_t>(require_u64(rvalue, rkey));
          } else if (rkey == "converged") {
            response.result.converged =
                static_cast<std::uint32_t>(require_u64(rvalue, rkey));
          } else if (rkey == "correct") {
            response.result.correct =
                static_cast<std::uint32_t>(require_u64(rvalue, rkey));
          } else if (rkey == "wrong") {
            response.result.wrong =
                static_cast<std::uint32_t>(require_u64(rvalue, rkey));
          } else if (rkey == "step_limit") {
            response.result.step_limit =
                static_cast<std::uint32_t>(require_u64(rvalue, rkey));
          } else if (rkey == "absorbing") {
            response.result.absorbing =
                static_cast<std::uint32_t>(require_u64(rvalue, rkey));
          } else if (rkey == "mean_parallel_time") {
            response.result.mean_parallel_time = require_double(rvalue, rkey);
          } else {
            bad_field("result." + rkey, "unknown field");
          }
        }
      } else {
        bad_field(key, "unknown field");
      }
    }
  } catch (const FieldError& e) {
    return fail(e.what());
  }
  if (!saw_version) return fail("field \"v\": missing");
  if (!saw_id) return fail("field \"id\": missing");
  if (!saw_outcome) return fail("field \"outcome\": missing");
  return response;
}

ParsedRequest RequestReader::next(std::string_view line,
                                  std::uint64_t framed_size) {
  const std::uint64_t line_offset = offset_;
  offset_ += framed_size;
  ParsedRequest parsed = parse_job_request(line);
  if (JobSpec* spec = std::get_if<JobSpec>(&parsed)) {
    const auto it = first_use_.find(spec->id);
    if (it != first_use_.end()) {
      return RequestError{
          spec->id, "duplicate job id \"" + spec->id + "\": first used at "
                        "byte " + std::to_string(it->second) +
                        ", duplicated at byte " + std::to_string(line_offset)};
    }
    first_use_.emplace(spec->id, line_offset);
    // Trace minting happens here, at decode (DESIGN.md §13): the id exists
    // before admission, so even a shed or invalid-deadline rejection is
    // attributable to a trace.
    if (spec->trace_id == 0) spec->trace_id = obs::mint_trace_id();
  }
  return parsed;
}

void write_job_response(std::ostream& os, const JobResponse& response) {
  std::ostringstream buffer;
  JsonWriter json(buffer);
  json.begin_object();
  json.kv("v", kProtocolVersion);
  json.kv("id", response.id);
  json.kv("outcome", to_string(response.outcome));
  if (!response.error.empty()) json.kv("error", response.error);
  json.kv("attempts", static_cast<std::uint64_t>(response.attempts));
  json.kv("degraded", response.degraded);
  json.kv("replicas_used", static_cast<std::uint64_t>(response.replicas_used));
  json.kv("voted", response.voted);
  json.kv("quarantined", response.quarantined);
  json.kv("divergent", static_cast<std::uint64_t>(response.divergent));
  json.kv("queue_ms", response.queue_ms);
  json.kv("run_ms", response.run_ms);
  // v2 observability labels (additive): the trace id joins this line to the
  // Chrome trace file; shard attributes the work to a router shard.
  json.kv("trace_id", response.trace_id);
  json.kv("shard", response.shard);
  if (response.outcome == JobOutcome::kDone ||
      response.outcome == JobOutcome::kTruncated) {
    json.key("result");
    json.begin_object();
    json.kv("replicates", static_cast<std::uint64_t>(response.result.replicates_run));
    json.kv("converged", static_cast<std::uint64_t>(response.result.converged));
    json.kv("correct", static_cast<std::uint64_t>(response.result.correct));
    json.kv("wrong", static_cast<std::uint64_t>(response.result.wrong));
    json.kv("step_limit", static_cast<std::uint64_t>(response.result.step_limit));
    json.kv("absorbing", static_cast<std::uint64_t>(response.result.absorbing));
    json.kv("mean_parallel_time", response.result.mean_parallel_time);
    json.end_object();
  }
  json.end_object();
  os << json_single_line(buffer.str()) << "\n";
}

std::string job_response_line(const JobResponse& response) {
  std::ostringstream os;
  write_job_response(os, response);
  return os.str();
}

}  // namespace popbean::serve
