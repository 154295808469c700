// The per-stripe plan builders: the oracle the plan templates must equal.
//
// recovery::build_multi_car_plan / build_multi_rr_plan instantiate one plan
// template per structural signature (recovery/plan_template.h).  This
// header keeps the builders they replaced, which spell each stripe's
// repair out directly through PlanBuilder: per pick, gathers onto the
// aggregator, one partial per lost chunk shipped to the replacement, and
// one final sum per lost chunk (CAR); or fetch k survivors and decode on
// the replacement (RR).  The differential tests compare the two field for
// field, and bench/micro_recovery times this builder as the classic plan
// path its template-cache speedup is measured against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "rs/code.h"
#include "util/check.h"

namespace car::reference {

using recovery::BufferRef;
using recovery::ComputeInput;
using recovery::MultiRrSolution;
using recovery::MultiStripeSolution;
using recovery::PickRange;
using recovery::PlanBuilder;
using recovery::RecoveryPlan;
using recovery::RepairMemo;

inline RecoveryPlan build_multi_car_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    cluster::NodeId replacement) {
  CAR_CHECK(chunk_size > 0, "build_multi_car_plan: chunk_size must be > 0");
  const auto& topology = placement.topology();
  PlanBuilder b{{}, topology};
  b.plan.replacement = replacement;
  b.plan.replacement_rack = topology.rack_of(replacement);
  b.plan.chunk_size = chunk_size;

  // repair_vector solves a k x k system; at scale most stripes share the
  // same (lost chunk, survivor set) shape, so memoise on a packed integer
  // key and read coefficients canonically by chunk index.
  RepairMemo repair_memo;

  for (const auto& solution : solutions) {
    const std::span<const std::size_t> survivors = solution.chunks;
    // One canonical coefficient table per lost chunk; the spans survive
    // later coeffs() inserts because unordered_map rehashing never moves
    // mapped values.
    std::vector<std::span<const std::uint8_t>> ys;
    ys.reserve(solution.lost_chunks.size());
    for (std::size_t lost : solution.lost_chunks) {
      ys.push_back(repair_memo.coeffs(code, lost, survivors));
    }

    // final_inputs[l] / final_deps[l]: partials for lost chunk l.
    std::vector<std::vector<ComputeInput>> final_inputs(ys.size());
    std::vector<std::vector<std::size_t>> final_deps(ys.size());

    for (const PickRange& pick : solution.picks) {
      const auto chunks = solution.chunks_of(pick);
      const cluster::NodeId aggregator =
          placement.node_of(solution.stripe, chunks.front());
      std::vector<std::size_t> gather_deps;
      for (std::size_t chunk : chunks) {
        const cluster::NodeId host = placement.node_of(solution.stripe, chunk);
        if (host != aggregator) {
          gather_deps.push_back(
              b.add_transfer(solution.stripe, host, aggregator,
                             BufferRef::chunk(solution.stripe, chunk), {}));
        }
      }
      for (std::size_t l = 0; l < ys.size(); ++l) {
        std::vector<ComputeInput> inputs;
        inputs.reserve(chunks.size());
        for (std::size_t chunk : chunks) {
          inputs.push_back(
              {BufferRef::chunk(solution.stripe, chunk), ys[l][chunk]});
        }
        const std::size_t partial = b.add_compute(
            solution.stripe, aggregator, std::move(inputs), gather_deps);
        const std::size_t ship =
            b.add_transfer(solution.stripe, aggregator, replacement,
                           BufferRef::step(partial), {partial});
        final_inputs[l].push_back({BufferRef::step(partial), 1});
        final_deps[l].push_back(ship);
      }
    }

    for (std::size_t l = 0; l < ys.size(); ++l) {
      const std::size_t final_step = b.add_compute(
          solution.stripe, replacement, std::move(final_inputs[l]),
          std::move(final_deps[l]));
      b.plan.outputs.push_back(
          {solution.stripe, solution.lost_chunks[l], final_step});
    }
  }
  return std::move(b.plan);
}

inline RecoveryPlan build_multi_rr_plan(const cluster::Placement& placement,
                                 const rs::Code& code,
                                 std::span<const MultiRrSolution> solutions,
                                 std::uint64_t chunk_size,
                                 cluster::NodeId replacement) {
  CAR_CHECK(chunk_size > 0, "build_multi_rr_plan: chunk_size must be > 0");
  const auto& topology = placement.topology();
  PlanBuilder b{{}, topology};
  b.plan.replacement = replacement;
  b.plan.replacement_rack = topology.rack_of(replacement);
  b.plan.chunk_size = chunk_size;

  RepairMemo repair_memo;
  for (const auto& solution : solutions) {
    std::vector<std::size_t> deps;
    for (std::size_t chunk : solution.chunk_indices) {
      const cluster::NodeId host = placement.node_of(solution.stripe, chunk);
      if (host == replacement) continue;
      deps.push_back(b.add_transfer(solution.stripe, host, replacement,
                                    BufferRef::chunk(solution.stripe, chunk),
                                    {}));
    }
    for (std::size_t lost : solution.lost_chunks) {
      const auto y = repair_memo.coeffs(code, lost, solution.chunk_indices);
      std::vector<ComputeInput> inputs;
      inputs.reserve(solution.chunk_indices.size());
      for (std::size_t chunk : solution.chunk_indices) {
        inputs.push_back({BufferRef::chunk(solution.stripe, chunk), y[chunk]});
      }
      b.plan.outputs.push_back(
          {solution.stripe, lost,
           b.add_compute(solution.stripe, replacement, std::move(inputs),
                         deps)});
    }
  }
  return std::move(b.plan);
}

}  // namespace car::reference
