// Model-checker counterexamples must round-trip through the capture files
// and replay bit-exactly — the acceptance path for DESIGN.md §10 pass 3.

#include "recovery/counterexample.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "protocols/tabulated_io.hpp"
#include "verify/finding.hpp"
#include "verify/model_check.hpp"
#include "temp_path.hpp"

namespace popbean::recovery {
namespace {

// Four-state with the A + b rule corrupted to A + b -> B + b: a single weak
// b can flip every strong A, so wrong-stable components are reachable.
constexpr const char* kWrongStableText = R"(popbean-protocol v1
name four-state-wrong-stable
states 4
state 0 A 1
state 1 B 0
state 2 a 1
state 3 b 0
initial A=0 B=1
delta 0 1 -> 2 3
delta 1 0 -> 3 2
delta 0 3 -> 1 3
delta 3 0 -> 2 0
delta 1 2 -> 1 3
delta 2 1 -> 3 1
)";

verify::ModelCheckResult broken_model(const TabulatedProtocol& protocol) {
  verify::Report report("wrong-stable");
  verify::ModelCheckOptions options;
  options.max_n = 4;
  return verify::check_model(protocol, report, options);
}

TEST(CounterexampleTest, CaptureReplaysBitExactly) {
  const ParsedProtocolFile parsed = parse_protocol_file(kWrongStableText);
  const verify::ModelCheckResult result = broken_model(parsed.protocol);
  ASSERT_FALSE(result.counterexamples.empty());

  for (const verify::Counterexample& cex : result.counterexamples) {
    const CapturePair capture =
        make_counterexample_capture(parsed.protocol, "wrong-stable", cex);
    EXPECT_EQ(capture.header.n, cex.n);
    EXPECT_EQ(capture.header.initial, cex.initial);
    EXPECT_EQ(capture.log.events.size(), cex.schedule.size());
    EXPECT_EQ(capture.log.outcome.final_counts, cex.witness);

    // The embedded .pbp text reconstructs the protocol popbean-replay will
    // use; replaying the events against it must match the recorded outcome.
    const ParsedProtocolFile embedded =
        parse_protocol_file(capture.header.protocol_text);
    const verify::LinearInvariant invariant(
        capture.header.invariant_name, capture.header.invariant_weights);
    const ReplayResult replayed =
        replay_events(embedded.protocol, invariant, capture.header.initial,
                      capture.log.events);
    EXPECT_TRUE(replayed.matches(capture.log.outcome));
  }
}

TEST(CounterexampleTest, WrongStableWitnessConvergesWrong) {
  const ParsedProtocolFile parsed = parse_protocol_file(kWrongStableText);
  const verify::ModelCheckResult result = broken_model(parsed.protocol);

  bool checked = false;
  for (const verify::Counterexample& cex : result.counterexamples) {
    if (cex.kind != "wrong_stable") continue;
    checked = true;
    const CapturePair capture =
        make_counterexample_capture(parsed.protocol, "wrong-stable", cex);
    // A wrong-stable schedule ends in unanimous (wrong) output: the replay
    // records convergence to the minority opinion.
    EXPECT_EQ(capture.log.outcome.status, RunStatus::kConverged);
    const Output majority = 2 * cex.count_a > cex.n ? 1 : 0;
    EXPECT_EQ(capture.log.outcome.decided, 1 - majority);
  }
  EXPECT_TRUE(checked);
}

TEST(CounterexampleTest, SaveLoadRoundTrip) {
  const ParsedProtocolFile parsed = parse_protocol_file(kWrongStableText);
  const verify::ModelCheckResult result = broken_model(parsed.protocol);
  ASSERT_FALSE(result.counterexamples.empty());

  const CapturePair capture = make_counterexample_capture(
      parsed.protocol, "wrong-stable", result.counterexamples.front());
  const std::string prefix = test_temp_path("cex");
  const auto [header_path, log_path] = save_counterexample(prefix, capture);
  EXPECT_EQ(header_path, prefix + ".header.pbsn");
  EXPECT_EQ(log_path, prefix + ".log.pbsn");

  const CaptureHeader header = load_capture_header(header_path);
  const CaptureLog log = load_capture_log(log_path);
  EXPECT_EQ(header.protocol_text, capture.header.protocol_text);
  EXPECT_EQ(header.initial, capture.header.initial);
  EXPECT_EQ(header.invariant_weights, capture.header.invariant_weights);
  EXPECT_EQ(log.events, capture.log.events);
  EXPECT_TRUE(log.outcome == capture.log.outcome);
  std::remove(header_path.c_str());
  std::remove(log_path.c_str());
}

}  // namespace
}  // namespace popbean::recovery
