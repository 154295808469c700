// Degraded reads — serving a read for a chunk whose host is unavailable.
//
// In erasure-coded CFSes the single-failure machinery also serves *degraded
// reads*: a client (the "reader" node) needs chunk X while X's host is down,
// so the chunk is reconstructed on the fly from k survivors.  CAR's rack
// selection and partial decoding apply unchanged, with the reader's rack
// taking the role of the failed rack: survivors in the reader's own rack are
// free, and each other contributing rack ships one partially decoded chunk.
#pragma once

#include <cstdint>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "rs/code.h"
#include "util/rng.h"

namespace car::recovery {

struct DegradedReadRequest {
  cluster::StripeId stripe = 0;
  std::size_t chunk_index = 0;   // the unavailable chunk being read
  cluster::NodeId reader = 0;    // node that must end up with the bytes
};

/// Rack-level view of a degraded read: the census of the one-node failure
/// of the read chunk's host, with the reader as replacement — survivors
/// counted per rack, anchored at the reader's rack.  Throws
/// std::invalid_argument on an out-of-range stripe, chunk or reader.
MultiStripeCensus build_degraded_census(const cluster::Placement& placement,
                                        const DegradedReadRequest& request);

/// CAR-style degraded read: minimum racks + partial decoding, reconstructing
/// at the reader — the chunk picks are materialize_multi's default solution
/// for the census above.  Cross-rack traffic = number of non-reader racks
/// accessed: unlike a rebuild plan, a reader that aggregates its own rack
/// ships nothing to itself.
RecoveryPlan plan_degraded_read_car(const cluster::Placement& placement,
                                    const rs::Code& code,
                                    const DegradedReadRequest& request,
                                    std::uint64_t chunk_size);

/// Baseline degraded read: fetch k random survivors straight to the reader.
RecoveryPlan plan_degraded_read_direct(const cluster::Placement& placement,
                                       const rs::Code& code,
                                       const DegradedReadRequest& request,
                                       std::uint64_t chunk_size,
                                       util::Rng& rng);

}  // namespace car::recovery
