// End-to-end rolling-failure rebuild runs (the `carctl rebuild-run` core).
//
// run_rebuild_scenario reuses the inject::Scenario spec grammar — the
// rolling failures are the spec's repeatable `crash node=N at=T` lines, and
// the rebuild control plane's knobs are `batch-stripes` / `concurrency` —
// but executes through the RebuildCoordinator instead of the single-plan
// resilient runtime: every crash is a membership event, affected stripes
// are scanned and prioritized by exposure, and batches overlap on one
// virtual timeline.
//
// It builds the same inject::Testbed as inject::run_scenario and takes the
// same Verdict; what it adds is the crash -> FailureEvent conversion, the
// completeness check, and the coordinator call.  Population always uses
// per-stripe seeds (inject::Testbed::materialise), so it can be sharded
// across `populate_shards` threads with byte-identical results — shard
// count never changes a single stored byte, a recovered byte, or an
// event-log byte.  Under `data-mode metadata` only the first `sample`
// affected stripes are materialised; all other recoveries are measured,
// not materialised.
//
// Canned scenarios:
//   rolling-two-rack — RS(4,2), two failures in two different racks, the
//                      second landing mid-rebuild (the acceptance case);
//   rolling-triple   — RS(4,3), three rolling failures across three racks.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "inject/scenario.h"
#include "rebuild/coordinator.h"
#include "util/attributes.h"

namespace car::rebuild {

struct RebuildScenarioOutcome : inject::Verdict {
  RebuildResult result;
};

/// Build the testbed, populate it (`populate_shards` threads over disjoint
/// stripe sets), run the coordinator over the spec's crashes as failure
/// events, check that every lost chunk was recovered, and byte-verify every
/// materialised recovered chunk.  The scenario must contain at least one
/// node crash and every crash must use an `at=` time (util::CheckError
/// otherwise).  Deterministic: the same scenario yields
/// the same outcome — including a byte-identical EventLog — for any
/// populate_shards >= 1.
RebuildScenarioOutcome run_rebuild_scenario(const inject::Scenario& scenario,
                                            std::size_t populate_shards = 1)
    CAR_BOUNDARY;

/// Names of the embedded rolling-failure scenarios, in listing order.
[[nodiscard]] std::vector<std::string> canned_rebuild_scenario_names();

/// Fetch an embedded rolling-failure scenario by name (throws
/// std::invalid_argument for unknown names).  The spec text round-trips
/// through inject::parse_scenario, so the `crash` grammar is exercised by
/// every caller.
inject::Scenario canned_rebuild_scenario(const std::string& name);

}  // namespace car::rebuild
