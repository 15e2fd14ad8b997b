// NDJSON request/response codec (serve/codec.hpp): versioning, defaults,
// field validation, and the response-line round trip.
#include "serve/codec.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <variant>

#include "util/json_parse.hpp"

namespace popbean::serve {
namespace {

using namespace std::chrono_literals;

JobSpec parse_ok(std::string_view line) {
  ParsedRequest parsed = parse_job_request(line);
  const JobSpec* spec = std::get_if<JobSpec>(&parsed);
  EXPECT_NE(spec, nullptr) << "rejected: "
                           << (spec ? "" : std::get<RequestError>(parsed).error);
  return spec != nullptr ? *spec : JobSpec{};
}

RequestError parse_err(std::string_view line) {
  ParsedRequest parsed = parse_job_request(line);
  const RequestError* error = std::get_if<RequestError>(&parsed);
  EXPECT_NE(error, nullptr) << "unexpectedly accepted: " << line;
  return error != nullptr ? *error : RequestError{};
}

TEST(CodecTest, FullRequestRoundTripsEveryField) {
  const JobSpec spec = parse_ok(
      R"({"v": 1, "id": "job-7", "client": "alice", "protocol": "four-state",)"
      R"( "m": 4, "d": 2, "n": 10000, "eps": 0.01, "seed": 42,)"
      R"( "max_interactions": 5000000, "replicates": 3, "priority": "high",)"
      R"( "deadline_ms": 2000})");
  EXPECT_EQ(spec.id, "job-7");
  EXPECT_EQ(spec.client, "alice");
  EXPECT_EQ(spec.protocol, "four-state");
  EXPECT_EQ(spec.m, 4);
  EXPECT_EQ(spec.d, 2);
  EXPECT_EQ(spec.n, 10000u);
  EXPECT_DOUBLE_EQ(spec.epsilon, 0.01);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_EQ(spec.max_interactions, 5000000u);
  EXPECT_EQ(spec.replicates, 3u);
  EXPECT_EQ(spec.priority, JobPriority::kHigh);
  EXPECT_EQ(spec.deadline, 2000ms);
}

TEST(CodecTest, MinimalRequestGetsSpecDefaults) {
  const JobSpec spec = parse_ok(R"({"v": 1, "id": "a"})");
  EXPECT_EQ(spec.protocol, "avc");
  EXPECT_EQ(spec.n, 1000u);
  EXPECT_EQ(spec.replicates, 1u);
  EXPECT_EQ(spec.priority, JobPriority::kNormal);
  EXPECT_EQ(spec.deadline, 0ms);  // zero = service default applies
  EXPECT_EQ(spec.effective_max_interactions(), 500u * 1000u);
}

TEST(CodecTest, MissingVersionOrIdIsInvalid) {
  EXPECT_NE(parse_err(R"({"id": "a"})").error.find("\"v\""),
            std::string::npos);
  EXPECT_NE(parse_err(R"({"v": 1})").error.find("\"id\""), std::string::npos);
  parse_err(R"({"v": 1, "id": ""})");
  parse_err(R"({"v": 3, "id": "a"})");  // future version, never half-parsed
}

TEST(CodecTest, SpeaksVersionOneAndTwo) {
  // v1 requests remain valid verbatim; v2 adds only "replicas".
  EXPECT_EQ(parse_ok(R"({"v": 1, "id": "a"})").vote_replicas, 0u);
  EXPECT_EQ(parse_ok(R"({"v": 2, "id": "a"})").vote_replicas, 0u);
  EXPECT_EQ(parse_ok(R"({"v": 2, "id": "a", "replicas": 5})").vote_replicas,
            5u);
  // "replicas" itself is not version-gated — the field set is the contract.
  EXPECT_EQ(parse_ok(R"({"v": 1, "id": "a", "replicas": 3})").vote_replicas,
            3u);
}

TEST(CodecTest, ReplicaCountMustBeOddAndBounded) {
  const RequestError even =
      parse_err(R"({"v": 2, "id": "a", "replicas": 2})");
  EXPECT_NE(even.error.find("odd"), std::string::npos) << even.error;
  parse_err(R"({"v": 2, "id": "a", "replicas": 4})");
  parse_err(R"({"v": 2, "id": "a", "replicas": 0})");
  parse_err(R"({"v": 2, "id": "a", "replicas": 103})");  // above the cap
  EXPECT_EQ(parse_ok(R"({"v": 2, "id": "a", "replicas": 101})").vote_replicas,
            101u);
}

TEST(CodecTest, RequestReaderRejectsDuplicateJobIds) {
  RequestReader reader;
  const std::string first = R"({"v": 2, "id": "job-1"})";
  const std::string filler = R"({"v": 2, "id": "job-2"})";
  EXPECT_TRUE(std::holds_alternative<JobSpec>(reader.next(first)));
  EXPECT_TRUE(std::holds_alternative<JobSpec>(reader.next(filler)));
  ParsedRequest third = reader.next(first);  // same id again
  const RequestError* error = std::get_if<RequestError>(&third);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->id, "job-1");
  // The error names the id and both byte offsets ('\n'-framed lines).
  EXPECT_NE(error->error.find("duplicate job id \"job-1\""), std::string::npos)
      << error->error;
  EXPECT_NE(error->error.find("byte 0"), std::string::npos) << error->error;
  EXPECT_NE(error->error.find(std::to_string(2 * (first.size() + 1))),
            std::string::npos)
      << error->error;
  EXPECT_EQ(reader.ids_seen(), 2u);
  EXPECT_EQ(reader.bytes_consumed(), 3 * (first.size() + 1));
}

TEST(CodecTest, RequestReaderDoesNotChargeIdsFromRejectedLines) {
  RequestReader reader;
  // A line that fails validation must not reserve its id: the client can
  // resubmit a corrected request under the same id.
  ParsedRequest bad = reader.next(R"({"v": 2, "id": "job-1", "n": 0})");
  EXPECT_TRUE(std::holds_alternative<RequestError>(bad));
  ParsedRequest good = reader.next(R"({"v": 2, "id": "job-1"})");
  EXPECT_TRUE(std::holds_alternative<JobSpec>(good));
}

TEST(CodecTest, UnknownFieldsAreRejectedNotIgnored) {
  // A typo'd parameter must not silently run a default experiment.
  const RequestError error = parse_err(R"({"v": 1, "id": "a", "epz": 0.1})");
  EXPECT_NE(error.error.find("epz"), std::string::npos);
  EXPECT_EQ(error.id, "a");  // id still extracted for correlation
}

TEST(CodecTest, RangeChecksRejectDegenerateExperiments) {
  parse_err(R"({"v": 1, "id": "a", "n": 1})");           // n ≥ 2
  parse_err(R"({"v": 1, "id": "a", "eps": 0})");         // ε ∈ (0, 1]
  parse_err(R"({"v": 1, "id": "a", "eps": 1.5})");
  parse_err(R"({"v": 1, "id": "a", "replicates": 0})");
  parse_err(R"({"v": 1, "id": "a", "m": 0})");
  parse_err(R"({"v": 1, "id": "a", "n": -5})");          // negative integer
  parse_err(R"({"v": 1, "id": "a", "n": 2.5})");         // non-integral
  parse_err(R"({"v": 1, "id": "a", "protocol": "voter"})");
  parse_err(R"({"v": 1, "id": "a", "priority": "urgent"})");
}

TEST(CodecTest, ZooSpecsAreAcceptedAndValidated) {
  // "zoo:<member>" resolves against the zoo registry.
  EXPECT_EQ(parse_ok(R"({"v": 1, "id": "a", "protocol": "zoo:doubling"})")
                .protocol,
            "zoo:doubling");
  EXPECT_EQ(parse_ok(R"({"v": 1, "id": "a", "protocol": "zoo:berenbrink"})")
                .protocol,
            "zoo:berenbrink");

  // An unknown member is rejected at the codec with the known list, so the
  // typo never reaches a worker.
  const RequestError error =
      parse_err(R"({"v": 1, "id": "a", "protocol": "zoo:dubling"})");
  EXPECT_NE(error.error.find("zoo:dubling"), std::string::npos) << error.error;
  EXPECT_NE(error.error.find("zoo:doubling"), std::string::npos)
      << error.error;
  EXPECT_NE(error.error.find("zoo:berenbrink"), std::string::npos)
      << error.error;
}

TEST(CodecTest, MalformedJsonStillSalvagesNothingButReportsWhy) {
  const RequestError error = parse_err(R"({"v": 1, "id": )");
  EXPECT_TRUE(error.id.empty());
  EXPECT_NE(error.error.find("malformed JSON"), std::string::npos);
  parse_err("[1, 2, 3]");  // not an object
}

TEST(CodecTest, IdSalvagedFromOtherwiseBrokenRequests) {
  // The object parses but a field fails validation — the id survives so the
  // front end can address the `invalid` response.
  EXPECT_EQ(parse_err(R"({"v": 1, "id": "job-9", "n": 0})").id, "job-9");
}

TEST(CodecTest, ResponseLineIsSingleLineAndParsesBack) {
  JobResponse response;
  response.id = "job-7";
  response.outcome = JobOutcome::kDone;
  response.attempts = 2;
  response.degraded = true;
  response.queue_ms = 0.5;
  response.run_ms = 83.25;
  response.result.replicates_run = 3;
  response.result.converged = 3;
  response.result.correct = 2;
  response.result.wrong = 1;
  response.result.mean_parallel_time = 12.5;
  const std::string line = job_response_line(response);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1);  // exactly one, at the end

  const JsonValue v = JsonValue::parse(line);
  EXPECT_EQ(v.find("v")->as_u64(), kProtocolVersion);
  EXPECT_EQ(v.find("id")->as_string(), "job-7");
  EXPECT_EQ(v.find("outcome")->as_string(), "done");
  EXPECT_EQ(v.find("attempts")->as_u64(), 2u);
  EXPECT_TRUE(v.find("degraded")->as_bool());
  const JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("replicates")->as_u64(), 3u);
  EXPECT_EQ(result->find("correct")->as_u64(), 2u);
  EXPECT_DOUBLE_EQ(result->find("mean_parallel_time")->as_double(), 12.5);
  EXPECT_EQ(v.find("error"), nullptr);  // omitted when empty
}

TEST(CodecTest, OutcomeAndPriorityNamesRoundTrip) {
  for (int i = 0; i < kNumOutcomes; ++i) {
    JobResponse response;
    response.id = "x";
    response.outcome = static_cast<JobOutcome>(i);
    const std::optional<JobResponse> back =
        parse_job_response(job_response_line(response));
    ASSERT_TRUE(back.has_value()) << to_string(response.outcome);
    EXPECT_EQ(back->outcome, response.outcome) << to_string(response.outcome);
  }
  for (int i = 0; i < kNumPriorities; ++i) {
    JobSpec spec;
    spec.id = "p";
    spec.priority = static_cast<JobPriority>(i);
    EXPECT_EQ(parse_ok(job_request_line(spec)).priority, spec.priority)
        << to_string(spec.priority);
  }

  // Unknown names keep their error texts.
  EXPECT_NE(parse_err(R"({"v": 1, "id": "a", "priority": "urgent"})")
                .error.find(R"(expected "low", "normal", or "high")"),
            std::string::npos);
  std::string error;
  EXPECT_FALSE(parse_job_response(R"({"v": 2, "id": "a", "outcome": "won"})",
                                  &error)
                   .has_value());
  EXPECT_NE(error.find(R"(unknown outcome "won")"), std::string::npos)
      << error;
}

TEST(CodecTest, ResponseCarriesVoteLabels) {
  JobResponse response;
  response.id = "job-v";
  response.outcome = JobOutcome::kDone;
  response.replicas_used = 3;
  response.voted = true;
  response.quarantined = false;
  response.divergent = 1;
  const JsonValue v = JsonValue::parse(job_response_line(response));
  EXPECT_EQ(v.find("v")->as_u64(), 2u);
  EXPECT_EQ(v.find("replicas_used")->as_u64(), 3u);
  EXPECT_TRUE(v.find("voted")->as_bool());
  EXPECT_FALSE(v.find("quarantined")->as_bool());
  EXPECT_EQ(v.find("divergent")->as_u64(), 1u);
}

TEST(CodecTest, ResultObjectOnlyForCompletedOutcomes) {
  JobResponse response;
  response.id = "x";
  for (const JobOutcome outcome :
       {JobOutcome::kTimeout, JobOutcome::kFailed, JobOutcome::kOverloaded,
        JobOutcome::kInvalid}) {
    response.outcome = outcome;
    response.error = "why";
    const JsonValue v = JsonValue::parse(job_response_line(response));
    EXPECT_EQ(v.find("result"), nullptr) << to_string(outcome);
    EXPECT_EQ(v.find("error")->as_string(), "why");
  }
  response.outcome = JobOutcome::kTruncated;
  EXPECT_NE(JsonValue::parse(job_response_line(response)).find("result"),
            nullptr);
}

}  // namespace
}  // namespace popbean::serve
