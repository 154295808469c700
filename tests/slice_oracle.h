// Materialised slice lowering: the oracle PlanArena must equal.
//
// recovery::PlanArena computes the slice dimension of a lowered plan by
// index arithmetic.  This header spells the same lowering out the long
// way, one PlanStep per slice with its own deps vector:
//
//   sliced id of (base step x, slice s) = x * num_slices + s
//   deps of (x, s)                      = { (d, s) : d in x.deps }
//   bytes of (x, s)                     = slice length (x length * |inputs|
//                                         for computes)
//
// slice_plan() lowers a RecoveryPlan directly; to_slice_plan() reads the
// same form back out of an arena through its public accessors.  The
// differential tests compare the two field for field, and the reference
// timing replay (reference_replay.h) walks to_slice_plan()'s steps.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "cluster/types.h"
#include "recovery/plan.h"
#include "recovery/plan_arena.h"
#include "util/check.h"

namespace car::reference {

/// Where a sliced step came from: its base step, slice index, and the byte
/// range it covers within the chunk.
struct SliceInfo {
  std::size_t base_step = 0;
  std::size_t slice = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const SliceInfo&, const SliceInfo&) = default;
};

/// A lowered plan: base steps split into per-slice steps on a uniform grid.
struct SlicePlan {
  cluster::NodeId replacement = 0;
  cluster::RackId replacement_rack = 0;
  std::uint64_t chunk_size = 0;
  /// Effective slice size: min(requested, chunk_size).  The final slice of
  /// each step may be shorter when chunk_size % slice_size != 0.
  std::uint64_t slice_size = 0;
  std::size_t num_slices = 1;
  std::size_t num_base_steps = 0;

  /// Sliced steps, ids dense in [0, num_base_steps * num_slices).  Buffer
  /// references (payload, inputs, step-output ids) are BASE-plan
  /// references; info[] maps each step to its byte range.
  std::vector<recovery::PlanStep> steps;
  std::vector<SliceInfo> info;  // parallel to steps

  /// Reconstruction outputs, step_id referring to BASE step ids.
  std::vector<recovery::RecoveryPlan::Output> outputs;

  [[nodiscard]] std::uint64_t sliced_id(std::uint64_t base_step,
                                        std::uint64_t slice) const {
    return recovery::sliced_id(base_step,
                               static_cast<std::uint64_t>(num_slices), slice);
  }

  [[nodiscard]] std::uint64_t cross_rack_bytes() const noexcept {
    return recovery::cross_rack_bytes(steps);
  }
  [[nodiscard]] std::uint64_t intra_rack_bytes() const noexcept {
    return recovery::intra_rack_bytes(steps);
  }
  [[nodiscard]] std::uint64_t compute_bytes() const noexcept {
    return recovery::compute_bytes(steps);
  }
  [[nodiscard]] std::vector<std::uint64_t> per_rack_cross_bytes(
      const cluster::Topology& topology) const {
    return recovery::per_rack_cross_bytes(steps, topology);
  }
};

/// Lower `plan` onto a slice grid of `slice_size` bytes (clamped to
/// chunk_size; ceil(chunk_size / slice_size) slices per step).  Throws
/// util::CheckError when slice_size == 0, when a non-empty plan has
/// chunk_size == 0, or when a step's declared bytes violate the plan
/// contract (transfers move chunk_size, computes touch
/// chunk_size * |inputs|).
inline SlicePlan slice_plan(const recovery::RecoveryPlan& plan,
                            std::uint64_t slice_size) {
  CAR_CHECK(slice_size > 0, "slice_plan: slice_size must be > 0");

  SlicePlan sliced;
  sliced.replacement = plan.replacement;
  sliced.replacement_rack = plan.replacement_rack;
  sliced.chunk_size = plan.chunk_size;
  sliced.outputs = plan.outputs;
  sliced.num_base_steps = plan.steps.size();
  if (plan.steps.empty()) {
    sliced.slice_size = std::min(slice_size, plan.chunk_size);
    sliced.num_slices = 1;
    return sliced;
  }

  CAR_CHECK(plan.chunk_size > 0,
            "slice_plan: non-empty plan with chunk_size == 0");
  const std::uint64_t effective = std::min(slice_size, plan.chunk_size);
  const std::size_t num_slices =
      static_cast<std::size_t>((plan.chunk_size + effective - 1) / effective);
  sliced.slice_size = effective;
  sliced.num_slices = num_slices;

  sliced.steps.reserve(plan.steps.size() * num_slices);
  sliced.info.reserve(plan.steps.size() * num_slices);
  for (std::size_t index = 0; index < plan.steps.size(); ++index) {
    const recovery::PlanStep& base = plan.steps[index];
    CAR_CHECK(base.id == index, "slice_plan: step ids must be dense");
    if (base.kind == recovery::StepKind::kTransfer) {
      CAR_CHECK(base.bytes == plan.chunk_size,
                "slice_plan: transfer step bytes != chunk_size");
    } else {
      CAR_CHECK(base.bytes == plan.chunk_size * base.inputs.size(),
                "slice_plan: compute step bytes != chunk_size * |inputs|");
    }
    for (std::size_t s = 0; s < num_slices; ++s) {
      const std::uint64_t offset = static_cast<std::uint64_t>(s) * effective;
      const std::uint64_t length =
          std::min(effective, plan.chunk_size - offset);

      recovery::PlanStep step = base;
      step.id = static_cast<std::size_t>(sliced.sliced_id(base.id, s));
      step.deps.clear();
      step.deps.reserve(base.deps.size());
      for (const std::size_t dep : base.deps) {
        step.deps.push_back(static_cast<std::size_t>(sliced.sliced_id(dep, s)));
      }
      step.bytes = base.kind == recovery::StepKind::kTransfer
                       ? length
                       : length * static_cast<std::uint64_t>(
                                      base.inputs.size());
      sliced.steps.push_back(std::move(step));
      sliced.info.push_back(SliceInfo{base.id, s, offset, length});
    }
  }
  return sliced;
}

/// Field-for-field equality of two sliced steps (PlanStep has no
/// operator==), reporting `id` on a mismatch.
inline void expect_step_equal(const recovery::PlanStep& a,
                              const recovery::PlanStep& b,
                              std::uint64_t id) {
  EXPECT_EQ(a.id, b.id) << "step " << id;
  EXPECT_EQ(a.kind, b.kind) << "step " << id;
  EXPECT_EQ(a.stripe, b.stripe) << "step " << id;
  EXPECT_EQ(a.deps, b.deps) << "step " << id;
  EXPECT_EQ(a.src, b.src) << "step " << id;
  EXPECT_EQ(a.dst, b.dst) << "step " << id;
  EXPECT_EQ(a.payload, b.payload) << "step " << id;
  EXPECT_EQ(a.cross_rack, b.cross_rack) << "step " << id;
  EXPECT_EQ(a.node, b.node) << "step " << id;
  EXPECT_EQ(a.bytes, b.bytes) << "step " << id;
  ASSERT_EQ(a.inputs.size(), b.inputs.size()) << "step " << id;
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    EXPECT_EQ(a.inputs[i].buffer, b.inputs[i].buffer) << "step " << id;
    EXPECT_EQ(a.inputs[i].coeff, b.inputs[i].coeff) << "step " << id;
  }
}

/// The PlanStep for one sliced id of `arena`, bit-equal to the matching
/// entry of slice_plan(plan, slice_size).
inline recovery::PlanStep step(const recovery::PlanArena& arena,
                               std::uint64_t sliced) {
  const std::uint64_t base = sliced / arena.num_slices();
  const std::uint64_t slice = sliced % arena.num_slices();
  recovery::PlanStep out;
  out.id = static_cast<std::size_t>(sliced);
  out.kind = arena.kind(base);
  out.stripe = arena.stripe(base);
  out.deps.reserve(arena.deps(base).size());
  for (const std::uint64_t dep : arena.deps(base)) {
    out.deps.push_back(static_cast<std::size_t>(arena.sliced_id(dep, slice)));
  }
  out.cross_rack = arena.cross_rack(base);
  if (out.kind == recovery::StepKind::kTransfer) {
    out.src = arena.src(base);
    out.dst = arena.dst(base);
    out.payload = arena.payload(base);
  } else {
    out.node = arena.node(base);
    out.inputs.reserve(arena.num_inputs(base));
    for (std::size_t i = 0; i < arena.num_inputs(base); ++i) {
      out.inputs.push_back(arena.input(base, i));
    }
  }
  out.bytes = arena.step_bytes(base, slice);
  return out;
}

/// The SliceInfo for one sliced id of `arena`.
inline SliceInfo slice_info(const recovery::PlanArena& arena,
                            std::uint64_t sliced) {
  const std::uint64_t base = sliced / arena.num_slices();
  const std::uint64_t slice = sliced % arena.num_slices();
  return SliceInfo{static_cast<std::size_t>(base),
                   static_cast<std::size_t>(slice), arena.slice_offset(slice),
                   arena.slice_length(slice)};
}

/// The whole SlicePlan `arena` represents.
inline SlicePlan to_slice_plan(const recovery::PlanArena& arena) {
  SlicePlan out;
  out.replacement = arena.replacement();
  out.replacement_rack = arena.replacement_rack();
  out.chunk_size = arena.chunk_size();
  out.slice_size = arena.slice_size();
  out.num_slices = static_cast<std::size_t>(arena.num_slices());
  out.num_base_steps = static_cast<std::size_t>(arena.num_base_steps());
  out.outputs.assign(arena.outputs().begin(), arena.outputs().end());
  const std::uint64_t total = arena.num_sliced_steps();
  out.steps.reserve(total);
  out.info.reserve(total);
  for (std::uint64_t id = 0; id < total; ++id) {
    out.steps.push_back(step(arena, id));
    out.info.push_back(slice_info(arena, id));
  }
  return out;
}

}  // namespace car::reference
