// Slice-level lowering of recovery plans.
//
// A RecoveryPlan moves whole chunks: an aggregator's partial decode cannot
// start until every input chunk has fully arrived, and the replacement's
// final combine waits on whole partially-decoded chunks — transfer and GF
// compute serialize per stripe even though the arithmetic itself streams.
// slice_plan() splits every step into ceil(chunk_size / slice_size) slice
// steps on one uniform byte grid, with per-slice dependencies: slice s of a
// partial decode depends only on slice s of its inputs, so cross-rack
// shipping of slice s overlaps aggregation of slice s+1 and the stripe's
// makespan drops toward max(transfer, compute) instead of their sum.
//
// The lowering is a pure renumbering on a grid:
//
//   sliced id of (base step x, slice s) = x * num_slices + s
//   deps of (x, s)                      = { (d, s) : d in x.deps }
//   bytes of (x, s)                     = slice length (x length * |inputs|
//                                         for computes)
//
// Degenerate case: slice_size >= chunk_size yields exactly one slice per
// step with identical ids, deps, and bytes — the *same computation* as the
// base plan.  Slicing never changes what moves where: per-link and
// cross-rack byte totals are bit-identical to the base plan
// (recovery::validate_sliced_plan checks this statically, the differential
// tests check it dynamically).
//
// Executors do not walk a SlicePlan: both (emul::Cluster and the inject
// BatchDriver) lower every plan, chunk-granular ones degenerately, into the
// columnar PlanArena on this same grid (recovery/plan_arena.h), so each has
// one core.  The materialised SlicePlan is for the validator's sliced mode
// and for tests, whose reference replay walks PlanArena::to_slice_plan().
//
// Slice steps carry base-plan buffer references: a sliced transfer writes
// bytes [offset, offset+length) of the *whole* destination buffer, and a
// sliced compute writes the same range of its base step's output buffer.
// Executors therefore need ranged buffer writes (emul::Cluster::
// write_buffer_range) backed by full-chunk buffers, or shared whole
// buffers (the arena executor's transfers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cluster/topology.h"
#include "cluster/types.h"
#include "recovery/plan.h"
#include "util/check.h"

namespace car::recovery {

/// The sliced-step id of (base_step, slice) on a grid of num_slices slices
/// per base step, computed in 64-bit with an overflow check: a wrap would
/// silently alias two different slices onto one id, so it is a hard error
/// (util::CheckError) instead.  Every consumer of the grid — executors,
/// validators, the fault-injection runtime — goes through this helper (or
/// SlicePlan::sliced_id / PlanArena::sliced_id, which share the check)
/// rather than writing `base * num_slices + slice` by hand; the car-tidy
/// check car-no-raw-virtual-time-arithmetic enforces that.
[[nodiscard]] inline std::uint64_t sliced_id(std::uint64_t base_step,
                                             std::uint64_t num_slices,
                                             std::uint64_t slice) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  CAR_CHECK(num_slices == 0 || base_step <= (kMax - slice) / num_slices,
            "sliced_id: base_step * num_slices + slice overflows uint64_t");
  return base_step * num_slices + slice;
}

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
  std::vector<PlanStep> steps;
  std::vector<SliceInfo> info;  // parallel to steps

  /// Reconstruction outputs, step_id referring to BASE step ids (the
  /// output buffer is assembled from all of that step's slices).
  std::vector<RecoveryPlan::Output> outputs;

  /// The id of (base step, slice) on the grid, computed in 64-bit: a
  /// million-step plan sliced 4096 ways overflows 32-bit arithmetic, and
  /// even size_t can wrap on adversarial inputs — that wrap would silently
  /// alias two different slices onto one id, so it is a hard error instead.
  /// Throws util::CheckError when base_step * num_slices + slice does not
  /// fit in uint64_t.
  [[nodiscard]] std::uint64_t sliced_id(std::uint64_t base_step,
                                        std::uint64_t slice) const {
    return recovery::sliced_id(base_step,
                               static_cast<std::uint64_t>(num_slices), slice);
  }

  [[nodiscard]] std::uint64_t cross_rack_bytes() const noexcept {
    return recovery::cross_rack_bytes(std::span<const PlanStep>(steps));
  }
  [[nodiscard]] std::uint64_t intra_rack_bytes() const noexcept {
    return recovery::intra_rack_bytes(std::span<const PlanStep>(steps));
  }
  [[nodiscard]] std::uint64_t compute_bytes() const noexcept {
    return recovery::compute_bytes(std::span<const PlanStep>(steps));
  }
  [[nodiscard]] std::vector<std::uint64_t> per_rack_cross_bytes(
      const cluster::Topology& topology) const {
    return recovery::per_rack_cross_bytes(std::span<const PlanStep>(steps),
                                          topology);
  }
};

/// Recommended default slice size (see EXPERIMENTS.md: large enough that
/// per-slice event overhead is negligible, small enough that pipelining
/// approaches the max(transfer, compute) bound for multi-MiB chunks).
inline constexpr std::uint64_t kDefaultSliceBytes = 64 * 1024;

/// Lower `plan` onto a slice grid of `slice_size` bytes (clamped to
/// chunk_size; ceil(chunk_size / slice_size) slices per step).  Throws
/// util::CheckError when slice_size == 0, when a non-empty plan has
/// chunk_size == 0, or when a step's declared bytes violate the plan
/// contract (transfers move chunk_size, computes touch
/// chunk_size * |inputs|).
SlicePlan slice_plan(const RecoveryPlan& plan, std::uint64_t slice_size);

}  // namespace car::recovery
