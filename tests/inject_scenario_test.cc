// Scenario-layer tests: the spec parser, the canned scenario library, and
// end-to-end determinism of run_scenario — two identical runs must produce
// byte-identical event logs (the property CI asserts on every canned
// scenario, and the test meant to run under the asan/tsan presets).
#include "inject/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "cluster/topology.h"
#include "recovery/replan.h"
#include "recovery/validate.h"

namespace car::inject {
namespace {

/// The arena the run finished with passes the structural validator on the
/// scenario's topology (the planner gated it with the data-flow checks
/// too).
bool executed_a_valid_arena(const Scenario& scenario,
                            const ScenarioOutcome& outcome) {
  return recovery::validate_arena(outcome.run.final_plan,
                                  cluster::Topology(scenario.racks))
      .ok();
}

TEST(ParseScenario, ReadsEveryKeyAndFaultType) {
  const auto scenario = parse_scenario(R"(# header comment
name parsed
racks 2,2,2        # trailing comment
k 3
m 1
stripes 5
chunk-kib 32
page-kib 8
seed 99
strategy rr
fail-node 1
node-mbps 250
oversub 3.5
timeout 0.125
max-attempts 9
backoff-base 0.01
backoff-factor 3
backoff-cap 0.5
backoff-jitter 0.1
fault link side=node-down id=4 start=0.1 end=0.2 factor=0.75
fault drop step=2 attempts=1,3 prob=0.5
fault corrupt attempts=2
fault crash node=5 at-fraction=0.25
fault crash node=3 at-time=1.5
)");
  EXPECT_EQ(scenario.name, "parsed");
  EXPECT_EQ(scenario.racks, (std::vector<std::size_t>{2, 2, 2}));
  EXPECT_EQ(scenario.k, 3u);
  EXPECT_EQ(scenario.m, 1u);
  EXPECT_EQ(scenario.stripes, 5u);
  EXPECT_EQ(scenario.chunk_bytes, 32u * 1024u);
  EXPECT_EQ(scenario.page_bytes, 8u * 1024u);
  EXPECT_EQ(scenario.seed, 99u);
  EXPECT_EQ(scenario.strategy, recovery::Strategy::kRr);
  ASSERT_TRUE(scenario.fail_node.has_value());
  EXPECT_EQ(*scenario.fail_node, 1u);
  EXPECT_DOUBLE_EQ(scenario.node_bps, 250e6);
  EXPECT_DOUBLE_EQ(scenario.oversubscription, 3.5);
  EXPECT_DOUBLE_EQ(scenario.retry.transfer_timeout_s, 0.125);
  EXPECT_EQ(scenario.retry.max_attempts, 9u);
  EXPECT_DOUBLE_EQ(scenario.retry.backoff.base_s(), 0.01);
  EXPECT_DOUBLE_EQ(scenario.retry.backoff.factor(), 3.0);
  EXPECT_DOUBLE_EQ(scenario.retry.backoff.cap_s(), 0.5);
  EXPECT_DOUBLE_EQ(scenario.retry.backoff.jitter(), 0.1);

  ASSERT_EQ(scenario.faults.link_faults.size(), 1u);
  const auto& link = scenario.faults.link_faults.front();
  EXPECT_EQ(link.side, LinkSide::kNodeDown);
  EXPECT_EQ(link.id, 4u);
  EXPECT_DOUBLE_EQ(link.factor, 0.75);

  ASSERT_EQ(scenario.faults.transfer_faults.size(), 2u);
  const auto& drop = scenario.faults.transfer_faults[0];
  EXPECT_EQ(drop.kind, TransferFault::Kind::kDrop);
  ASSERT_TRUE(drop.step.has_value());
  EXPECT_EQ(*drop.step, 2u);
  EXPECT_EQ(drop.attempts, (std::vector<std::size_t>{1, 3}));
  EXPECT_DOUBLE_EQ(drop.probability, 0.5);
  EXPECT_EQ(scenario.faults.transfer_faults[1].kind,
            TransferFault::Kind::kCorrupt);

  ASSERT_EQ(scenario.crashes.size(), 2u);
  EXPECT_DOUBLE_EQ(*scenario.crashes[0].at_fraction, 0.25);
  EXPECT_DOUBLE_EQ(*scenario.crashes[1].at_time_s, 1.5);
}

TEST(ParseScenario, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_scenario("bogus-key 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("k\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("k one\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("strategy fancy\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("fault\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("fault warp speed=9\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("fault link side=sideways id=0\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("fault drop step\n"), std::invalid_argument);
  EXPECT_NO_THROW(parse_scenario(""));  // empty spec = defaults
}

TEST(ParseStrategy, AcceptsCarAndRrAndRejectsAnythingElseNamingIt) {
  EXPECT_EQ(recovery::parse_strategy("car"), recovery::Strategy::kCar);
  EXPECT_EQ(recovery::parse_strategy("rr"), recovery::Strategy::kRr);
  for (const char* bad : {"", "CAR", "car ", "xyz", "weighted", "all"}) {
    try {
      (void)recovery::parse_strategy(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find('"' + std::string(bad) + '"'),
                std::string::npos)
          << error.what();
    }
  }
  // The spec parser reports the same error against its line.
  try {
    (void)parse_scenario("strategy xyz\n");
    ADD_FAILURE() << "accepted strategy xyz";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown strategy \"xyz\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("in line: \"strategy xyz\""), std::string::npos)
        << what;
  }
}

TEST(ParseScenario, RejectsDuplicateKeysNamingTheLine) {
  EXPECT_THROW(parse_scenario("k 3\nk 4\n"), std::invalid_argument);
  // fault lines are the one legitimately repeatable key.
  EXPECT_NO_THROW(
      parse_scenario("fault corrupt attempts=1\nfault corrupt attempts=2\n"));
  try {
    parse_scenario("stripes 4\nstripes 5\n");
    FAIL() << "duplicate key accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    EXPECT_NE(what.find("stripes 5"), std::string::npos) << what;
  }
}

TEST(ParseScenario, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse_scenario("seed -1\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("slice-kib 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("slice-kib 1048577\n"), std::invalid_argument);
  EXPECT_NO_THROW(parse_scenario("slice-kib 1048576\n"));
  EXPECT_THROW(parse_scenario("data-mode fancy\n"), std::invalid_argument);
  EXPECT_THROW(parse_scenario("sample 1048577\n"), std::invalid_argument);
}

TEST(ParseScenario, RejectsZeroOrWrappingKibSizes) {
  const auto message = [](const std::string& spec) -> std::string {
    try {
      parse_scenario(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  // 2^54 + 1 KiB is 2^64 + 1024 bytes: multiplied out it would wrap to a
  // 1 KiB chunk.  The diagnostic names the spec line.  A size of 0 is
  // rejected too, by the parser rather than deep inside the emulator.
  const std::string chunk = message("chunk-kib 18014398509481985\n");
  EXPECT_NE(chunk.find("chunk-kib 18014398509481985"), std::string::npos)
      << chunk;
  EXPECT_NE(chunk.find("out of range"), std::string::npos) << chunk;
  EXPECT_NE(message("chunk-kib 0\n").find("chunk-kib 0"), std::string::npos);
  // The largest KiB count whose byte count fits a uint64_t still parses.
  EXPECT_EQ(parse_scenario("chunk-kib 18014398509481983\n").chunk_bytes,
            std::uint64_t{18014398509481983} * 1024);

  // 2^54 KiB would wrap to a 0-byte page.
  const std::string page = message("page-kib 18014398509481984\n");
  EXPECT_NE(page.find("page-kib 18014398509481984"), std::string::npos)
      << page;
  EXPECT_NE(message("page-kib 0\n").find("page-kib 0"), std::string::npos);
  EXPECT_EQ(parse_scenario("page-kib 1\n").page_bytes, 1024u);
}

// `sample 0` used to mean one stripe to inject-run and every affected
// stripe to rebuild-run.  Both parse specs here, so the parser rejects it,
// naming the line; one sampled stripe is the smallest sample.
TEST(ParseScenario, RejectsAZeroSampleNamingTheLine) {
  std::string what;
  try {
    parse_scenario("data-mode metadata\nsample 0\n");
  } catch (const std::invalid_argument& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("in line: \"sample 0\""), std::string::npos) << what;
  EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  EXPECT_EQ(parse_scenario("sample 1\n").sample_stripes, 1u);
}

TEST(ParseScenario, ReadsDataModeKeys) {
  const auto scenario = parse_scenario("data-mode metadata\nsample 6\n");
  ASSERT_TRUE(scenario.data_mode.has_value());
  EXPECT_EQ(*scenario.data_mode, DataMode::kMetadata);
  EXPECT_EQ(scenario.sample_stripes, 6u);
  EXPECT_EQ(parse_scenario("data-mode real\n").data_mode, DataMode::kReal);
  EXPECT_FALSE(parse_scenario("").data_mode.has_value());
  EXPECT_THROW(parse_scenario("data-mode bytes\n"), std::invalid_argument);
}

// A NaN timeout switched timeouts off, a negative one aborted deep in the
// step engine, and `max-attempts 0` reported a failed first attempt as
// "permanently failed after 1 attempts".  The parser rejects all three,
// naming the line; an infinite timeout (never time out) still parses.
TEST(ParseScenario, RejectsAnUnusableRetryPolicyNamingTheLine) {
  const auto message = [](const std::string& spec) -> std::string {
    try {
      parse_scenario(spec);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  for (const std::string line : {"timeout nan", "timeout -1", "timeout 0",
                                 "timeout -inf", "max-attempts 0"}) {
    const std::string what = message(line + "\n");
    EXPECT_NE(what.find("in line: \"" + line + "\""), std::string::npos)
        << line << ": " << what;
  }
  EXPECT_EQ(parse_scenario("timeout inf\n").retry.transfer_timeout_s,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_scenario("max-attempts 1\n").retry.max_attempts, 1u);
}

// A dropped attempt is detected only when it times out, so under `timeout
// inf` its retry was queued at +inf and the run aborted inside the step
// engine.  The parser rejects the pair in either line order, naming the
// drop line.
TEST(ParseScenario, RejectsADropFaultUnderAnInfiniteTimeoutNamingTheLine) {
  const std::string drop = "fault drop attempts=1";
  for (const std::string& spec :
       {"timeout inf\n" + drop + "\n", drop + "\ntimeout inf\n"}) {
    try {
      parse_scenario(spec);
      FAIL() << "accepted: " << spec;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("a drop fault needs a finite timeout"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("in line: \"" + drop + "\""), std::string::npos)
          << what;
    }
  }
  // A corrupt attempt fails on delivery, and a finite timeout sees a drop.
  EXPECT_NO_THROW(parse_scenario("timeout inf\nfault corrupt attempts=1\n"));
  EXPECT_NO_THROW(parse_scenario("timeout 1\n" + drop + "\n"));
}

TEST(CannedScenarios, AllParseAndAreListed) {
  const auto names = canned_scenario_names();
  ASSERT_EQ(names.size(), 4u);
  for (const auto& name : names) {
    const auto scenario = canned_scenario(name);
    EXPECT_EQ(scenario.name, name);
    EXPECT_FALSE(scenario.faults.link_faults.empty() &&
                 scenario.faults.transfer_faults.empty() &&
                 scenario.crashes.empty());
  }
  EXPECT_THROW(canned_scenario("no-such-scenario"), std::invalid_argument);
}

TEST(RunScenario, LinkFlapTimesOutRetriesAndStaysBitExact) {
  const auto outcome = run_scenario(canned_scenario("link-flap"));
  EXPECT_TRUE(outcome.bit_exact);
  EXPECT_GT(outcome.chunks_expected, 0u);
  EXPECT_TRUE(executed_a_valid_arena(canned_scenario("link-flap"), outcome));
  EXPECT_GT(outcome.run.stats.timeouts, 0u);
  EXPECT_GT(outcome.run.stats.retries, 0u);
  EXPECT_FALSE(outcome.run.replanned);
}

TEST(RunScenario, RejectsAnInfiniteLinkFaultFactor) {
  // factor=inf would make the flapping link infinitely fast: the run would
  // lose every timeout of the stock link-flap spec and still report OK.
  // The parser takes the number; validation rejects it, naming the field.
  const auto parsed = parse_scenario(
      "fault link side=rack-up id=0 start=0.0 end=0.3 factor=inf\n");
  ASSERT_EQ(parsed.faults.link_faults.size(), 1u);
  auto scenario = canned_scenario("link-flap");
  scenario.faults.link_faults.front() = parsed.faults.link_faults.front();
  try {
    (void)run_scenario(scenario);
    FAIL() << "factor=inf accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("LinkFault: factor must be finite"), std::string::npos)
        << what;
  }
}

// A scenario built without the parser meets the same rule in the driver.
TEST(RunScenario, RejectsADropFaultUnderAnInfiniteTimeout) {
  auto scenario = canned_scenario("slow-straggler-rack");  // drops attempts
  scenario.retry.transfer_timeout_s = std::numeric_limits<double>::infinity();
  try {
    (void)run_scenario(scenario);
    FAIL() << "an infinite timeout ran with a drop fault";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("a drop fault needs a finite"), std::string::npos)
        << what;
  }
}

TEST(RunScenario, MidRecoveryCrashMeetsTheAcceptanceCriteria) {
  const auto outcome = run_scenario(canned_scenario("mid-recovery-crash"));
  // A second node dies at 40% completion: the run must finish with
  // bit-exact data via the recovery/multi re-plan, and the re-plan must
  // pass recovery/validate.
  EXPECT_TRUE(outcome.run.replanned);
  EXPECT_TRUE(
      executed_a_valid_arena(canned_scenario("mid-recovery-crash"), outcome));
  EXPECT_TRUE(outcome.bit_exact);
  EXPECT_GT(outcome.chunks_expected, 0u);
  EXPECT_EQ(outcome.run.log.count(EventKind::kNodeCrash), 1u);
  EXPECT_EQ(outcome.run.log.count(EventKind::kReplanValidated), 1u);
}

TEST(RunScenario, SlowStragglerRackRecoversDespiteDrops) {
  const auto outcome = run_scenario(canned_scenario("slow-straggler-rack"));
  EXPECT_TRUE(outcome.bit_exact);
  EXPECT_GT(outcome.run.stats.drops, 0u);
  EXPECT_GT(outcome.run.stats.wasted_wire_bytes, 0u);
}

TEST(RunScenario, RrStrategyAlsoSurvivesTheCrash) {
  auto scenario = canned_scenario("mid-recovery-crash");
  scenario.strategy = recovery::Strategy::kRr;
  const auto outcome = run_scenario(scenario);
  EXPECT_TRUE(outcome.run.replanned);
  EXPECT_TRUE(executed_a_valid_arena(scenario, outcome));
  EXPECT_TRUE(outcome.bit_exact);
}

// The determinism satellite: same seed + same FaultPlan => byte-identical
// EventLog across two full runs (fresh cluster each time).
TEST(RunScenario, SameSeedRunsAreByteIdentical) {
  for (const auto& name : {"link-flap", "mid-recovery-crash"}) {
    const auto a = run_scenario(canned_scenario(name));
    const auto b = run_scenario(canned_scenario(name));
    EXPECT_EQ(a.run.log, b.run.log) << name;
    EXPECT_EQ(a.run.log.to_json(), b.run.log.to_json()) << name;
    EXPECT_EQ(a.run.report.wall_s, b.run.report.wall_s) << name;
    EXPECT_EQ(a.chunks_verified, b.chunks_verified) << name;
  }
}

// The metadata-mode differential: one spec run under data-mode real and
// data-mode metadata must produce byte-identical event logs and reports —
// payloads change what is *stored*, never what is *measured* — while the
// sampled stripes stay bit-exact.  (No corrupt faults here: their checksum
// detail needs payload bytes; see inject::DataPolicy.)
TEST(RunScenario, MetadataModeMatchesRealModeEventForEvent) {
  const std::string base = R"(name data-mode-diff
racks 3,3,3
k 3
m 2
stripes 10
chunk-kib 32
slice-kib 8
seed 21
strategy car
node-mbps 200
oversub 4
timeout 0.5
max-attempts 6
fault link side=rack-up id=1 start=0 end=0.2 factor=0.25
fault drop step=2 attempts=1 prob=1
)";
  const auto real = run_scenario(parse_scenario(base + "data-mode real\n"));
  const auto metadata = run_scenario(
      parse_scenario(base + "data-mode metadata\nsample 3\n"));

  EXPECT_EQ(real.run.log, metadata.run.log);
  EXPECT_EQ(real.run.log.to_json(), metadata.run.log.to_json());
  EXPECT_EQ(real.run.report.wall_s, metadata.run.report.wall_s);
  EXPECT_EQ(real.run.report.cross_rack_bytes,
            metadata.run.report.cross_rack_bytes);
  EXPECT_EQ(real.run.report.intra_rack_bytes,
            metadata.run.report.intra_rack_bytes);
  EXPECT_EQ(real.run.stats.attempts, metadata.run.stats.attempts);
  EXPECT_EQ(real.run.stats.wasted_wire_bytes,
            metadata.run.stats.wasted_wire_bytes);

  // Every materialised stripe is verified bit-exactly in both modes; the
  // metadata run materialises only the sampled subset.
  EXPECT_TRUE(real.bit_exact);
  EXPECT_TRUE(metadata.bit_exact);
  EXPECT_EQ(real.stripes_materialised, 10u);
  EXPECT_GE(metadata.stripes_materialised, 1u);
  EXPECT_LE(metadata.stripes_materialised, 3u);
  EXPECT_GT(real.chunks_expected, metadata.chunks_expected);
  EXPECT_GT(metadata.chunks_expected, 0u);
}

TEST(RunScenario, DifferentSeedsDiverge) {
  auto scenario = canned_scenario("slow-straggler-rack");
  const auto a = run_scenario(scenario);
  scenario.seed += 1;
  const auto b = run_scenario(scenario);
  EXPECT_TRUE(a.bit_exact);
  EXPECT_TRUE(b.bit_exact);
  EXPECT_NE(a.run.log.to_json(), b.run.log.to_json());
}

}  // namespace
}  // namespace car::inject
