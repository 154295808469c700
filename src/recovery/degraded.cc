#include "recovery/degraded.h"

#include <algorithm>

#include "util/check.h"

namespace car::recovery {

MultiStripeCensus build_degraded_census(const cluster::Placement& placement,
                                        const DegradedReadRequest& request) {
  CAR_CHECK_LT(request.chunk_index, placement.chunks_per_stripe(),
               "degraded read: chunk index out of range");
  const cluster::NodeId host =
      placement.node_of(request.stripe, request.chunk_index);
  auto censuses = build_multi_censuses(
      placement, make_multi_failure_onto(placement, {host}, request.reader),
      std::span<const cluster::StripeId>(&request.stripe, 1));
  return std::move(censuses.front());
}

namespace {

/// Shared plan assembly over the k survivors `chunks` (positional repair
/// coefficients): each of `picks` aggregates its range of `chunks` into
/// one partial on the host of its first chunk and ships it to the reader;
/// with no picks, every survivor is fetched straight to the reader.
RecoveryPlan assemble(const cluster::Placement& placement, const rs::Code& code,
                      const DegradedReadRequest& request,
                      std::uint64_t chunk_size,
                      std::span<const std::size_t> chunks,
                      std::span<const PickRange> picks) {
  PlanBuilder b{{}, placement.topology()};
  b.plan.replacement = request.reader;
  b.plan.replacement_rack = placement.topology().rack_of(request.reader);
  b.plan.chunk_size = chunk_size;
  const cluster::StripeId stripe = request.stripe;
  const auto y = code.repair_vector(request.chunk_index, chunks);

  std::vector<ComputeInput> final_inputs;
  std::vector<std::size_t> final_deps;
  for (const PickRange& pick : picks) {
    const cluster::NodeId aggregator =
        placement.node_of(stripe, chunks[pick.first]);
    std::vector<std::size_t> deps;
    std::vector<ComputeInput> inputs;
    for (std::size_t pos = pick.first; pos < pick.first + pick.count; ++pos) {
      const auto host = placement.node_of(stripe, chunks[pos]);
      const auto buf = BufferRef::chunk(stripe, chunks[pos]);
      if (host != aggregator) {
        deps.push_back(b.add_transfer(stripe, host, aggregator, buf, {}));
      }
      inputs.push_back({buf, y[pos]});
    }
    const std::size_t partial =
        b.add_compute(stripe, aggregator, std::move(inputs), std::move(deps));
    if (aggregator == request.reader) {
      // The reader itself aggregates its rack — no shipment needed.
      final_deps.push_back(partial);
    } else {
      final_deps.push_back(b.add_transfer(stripe, aggregator, request.reader,
                                          BufferRef::step(partial),
                                          {partial}));
    }
    final_inputs.push_back({BufferRef::step(partial), 1});
  }
  if (picks.empty()) {
    for (std::size_t pos = 0; pos < chunks.size(); ++pos) {
      const auto host = placement.node_of(stripe, chunks[pos]);
      const auto buf = BufferRef::chunk(stripe, chunks[pos]);
      if (host != request.reader) {
        final_deps.push_back(
            b.add_transfer(stripe, host, request.reader, buf, {}));
      }
      final_inputs.push_back({buf, y[pos]});
    }
  }
  const std::size_t final_step = b.add_compute(
      stripe, request.reader, std::move(final_inputs), std::move(final_deps));
  b.plan.outputs.push_back({stripe, request.chunk_index, final_step});
  return std::move(b.plan);
}

}  // namespace

RecoveryPlan plan_degraded_read_car(const cluster::Placement& placement,
                                    const rs::Code& code,
                                    const DegradedReadRequest& request,
                                    std::uint64_t chunk_size) {
  CAR_CHECK(chunk_size > 0, "degraded read: chunk_size must be > 0");
  const MultiStripeCensus census = build_degraded_census(placement, request);
  const MultiStripeSolution solution = materialize_multi(
      placement, census,
      default_rack_set(census.k, census.replacement_rack,
                       census.surviving.ranked()));
  return assemble(placement, code, request, chunk_size, solution.chunks,
                  solution.picks);
}

RecoveryPlan plan_degraded_read_direct(const cluster::Placement& placement,
                                       const rs::Code& code,
                                       const DegradedReadRequest& request,
                                       std::uint64_t chunk_size,
                                       util::Rng& rng) {
  CAR_CHECK(chunk_size > 0, "degraded read: chunk_size must be > 0");
  std::vector<std::size_t> survivors;
  for (std::size_t c = 0; c < placement.chunks_per_stripe(); ++c) {
    if (c != request.chunk_index) survivors.push_back(c);
  }
  rng.shuffle(survivors);
  survivors.resize(placement.k());
  std::sort(survivors.begin(), survivors.end());
  return assemble(placement, code, request, chunk_size, survivors, {});
}

}  // namespace car::recovery
