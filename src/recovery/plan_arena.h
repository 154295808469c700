// Columnar (structure-of-arrays) slice lowering of a recovery plan: the
// one sliced plan form the executors run.
//
// A RecoveryPlan moves whole chunks, so an aggregator's partial decode
// cannot start until every input chunk has fully arrived.  The arena puts
// every step on a uniform grid of ceil(chunk_size / slice_size) slices:
// slice s of a step depends only on slice s of its dependencies, so
// cross-rack shipping of slice s overlaps aggregation of slice s+1 and a
// stripe's makespan drops toward max(transfer, compute) instead of their
// sum.  Slicing never changes what moves where: the byte totals equal the
// base plan's.  slice_size >= chunk_size is the degenerate one-slice grid,
// the same computation as the base plan.
//
// Storage is flat 64-bit-indexed arrays, never one object per slice:
//
//   * one row of columnar step state per BASE step (kind/stripe/endpoints/
//     payload), since every slice of a step shares them;
//   * dependencies and compute inputs in CSR form (one offsets array, one
//     flat entries array), again per base step — the slice dimension is
//     pure index arithmetic (slice s of step x depends on slice s of x's
//     deps; its byte range is s * slice_size onward), so it is *computed*
//     on access rather than stored;
//   * 64-bit sliced ids base * num_slices + slice, overflow-checked
//     (sliced_id below).
//
// emul::Cluster (execute and execute_arena) and inject::BatchDriver read
// the columns directly.  Sliced steps carry base-plan buffer references: a
// sliced transfer moves bytes [offset, offset+length) of the whole
// destination buffer, and a sliced compute writes the same range of its
// base step's output buffer.  The tests keep a materialised
// one-PlanStep-per-slice lowering as the oracle this arena must equal
// (tests/slice_oracle.h).
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
#include "util/default_init_allocator.h"

namespace car::cluster {
class Placement;
}  // namespace car::cluster

namespace car::recovery {

struct PlanTemplate;   // recovery/plan_template.h
struct StripeBinding;  // recovery/plan_template.h

/// The sliced-step id of (base_step, slice) on a grid of num_slices slices
/// per base step, computed in 64-bit with an overflow check: a million-step
/// plan sliced 4096 ways overflows 32-bit arithmetic, and a wrap would
/// silently alias two different slices onto one id, so it is a hard error
/// (util::CheckError) instead.  Every consumer of the grid goes through
/// this helper or PlanArena::sliced_id rather than writing
/// `base * num_slices + slice` by hand; the car-tidy check
/// car-no-raw-virtual-time-arithmetic enforces that.
[[nodiscard]] inline std::uint64_t sliced_id(std::uint64_t base_step,
                                             std::uint64_t num_slices,
                                             std::uint64_t slice) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  CAR_CHECK(num_slices == 0 || base_step <= (kMax - slice) / num_slices,
            "sliced_id: base_step * num_slices + slice overflows uint64_t");
  return base_step * num_slices + slice;
}

class PlanArena {
 public:
  /// Build the arena from a chunk-granular plan on a slice grid of
  /// `slice_size` bytes (clamped to chunk_size).  Checks the plan's byte
  /// contract (dense ids, transfer bytes == chunk_size, compute bytes ==
  /// chunk_size * |inputs|), without which the computed slice lengths
  /// would be skewed, and requires forward dependencies (every dep id <
  /// step id — true of every plan the builders emit), which is what lets
  /// executors walk the arena in id order without a scheduling heap.
  /// Throws util::CheckError on violations, and std::out_of_range when a
  /// node id does not fit the 32-bit endpoint columns.
  static PlanArena build(const RecoveryPlan& plan, std::uint64_t slice_size);

  // --- incremental template-instantiation construction ----------------
  //
  // The scale planner (recovery/plan_template.h) skips the chunk-granular
  // RecoveryPlan entirely: create() an empty arena, append_instantiated()
  // once per stripe (remapping a cached template's symbolic endpoints and
  // local step ids straight into the columns), then finalize() to build
  // the reverse-dependency CSR and check the id grid.  Reading an arena
  // before finalize() is undefined.

  /// Empty arena on the given slice grid, ready for append_instantiated.
  static PlanArena create(cluster::NodeId replacement,
                          cluster::RackId replacement_rack,
                          std::uint64_t chunk_size, std::uint64_t slice_size);

  /// Append one stripe's instantiation of `tmpl`: survivor-position
  /// symbols resolve through the binding and placement (or to the
  /// replacement), step refs and deps are offset by the current base-step
  /// count, chunk refs and the stripe column get stamped with the
  /// binding's stripe, coefficients come from the binding's canonical
  /// decode tables, and cross-rack flags are recomputed from the resolved
  /// endpoint racks.  Defined in plan_template.cc.
  void append_instantiated(const PlanTemplate& tmpl,
                           const StripeBinding& binding,
                           const cluster::Placement& placement);

  /// Size the columns for exactly `steps` base steps with `deps` total
  /// dependency edges, `inputs` total compute inputs, and `outputs`
  /// outputs.  Callers that know the totals up front (template
  /// instantiation sums them over its work list) get the fast append
  /// path: the columns are resized once and append_instantiated() writes
  /// through raw cursors instead of per-element push_back — no capacity
  /// checks, no growth reallocations of multi-hundred-MB columns.  Must
  /// run before the first append; finalize() verifies the appended
  /// extents landed exactly on these totals.  Appending without a
  /// reserve() pass still works (the columns grow geometrically).
  void reserve(std::uint64_t steps, std::uint64_t deps, std::uint64_t inputs,
               std::uint64_t outputs);

  /// Seal an incrementally built arena: reverse-dependency CSR plus the
  /// same sliced-id overflow check build() performs.
  void finalize();

  // --- grid -----------------------------------------------------------

  [[nodiscard]] std::uint64_t chunk_size() const noexcept {
    return chunk_size_;
  }
  [[nodiscard]] std::uint64_t slice_size() const noexcept {
    return slice_size_;
  }
  [[nodiscard]] std::uint64_t num_slices() const noexcept {
    return num_slices_;
  }
  [[nodiscard]] std::uint64_t num_base_steps() const noexcept {
    return static_cast<std::uint64_t>(flags_.size());
  }
  /// Base steps appended so far.  After reserve(), num_base_steps() is
  /// already the final extent while this cursor trails the appends — it is
  /// the streaming build's publish watermark (plan_template.h), and the
  /// two agree exactly once finalize() has checked the totals.
  [[nodiscard]] std::uint64_t appended_base_steps() const noexcept {
    return cur_steps_;
  }
  [[nodiscard]] std::uint64_t num_sliced_steps() const noexcept {
    return num_base_steps() * num_slices_;
  }

  /// recovery::sliced_id on this arena's grid.
  [[nodiscard]] std::uint64_t sliced_id(std::uint64_t base,
                                        std::uint64_t slice) const {
    return recovery::sliced_id(base, num_slices_, slice);
  }

  [[nodiscard]] std::uint64_t slice_offset(std::uint64_t slice) const noexcept {
    return slice * slice_size_;
  }
  [[nodiscard]] std::uint64_t slice_length(std::uint64_t slice) const noexcept {
    const std::uint64_t offset = slice_offset(slice);
    const std::uint64_t rest = chunk_size_ - offset;
    return rest < slice_size_ ? rest : slice_size_;
  }

  // --- per base-step columns ------------------------------------------

  [[nodiscard]] StepKind kind(std::uint64_t base) const noexcept {
    return (flags_[base] & kComputeFlag) != 0 ? StepKind::kCompute
                                              : StepKind::kTransfer;
  }
  [[nodiscard]] bool cross_rack(std::uint64_t base) const noexcept {
    return (flags_[base] & kCrossRackFlag) != 0;
  }
  [[nodiscard]] cluster::StripeId stripe(std::uint64_t base) const noexcept {
    return static_cast<cluster::StripeId>(stripe_[base]);
  }
  [[nodiscard]] cluster::NodeId src(std::uint64_t base) const noexcept {
    return static_cast<cluster::NodeId>(endpoint_a_[base]);
  }
  [[nodiscard]] cluster::NodeId dst(std::uint64_t base) const noexcept {
    return static_cast<cluster::NodeId>(endpoint_b_[base]);
  }
  [[nodiscard]] cluster::NodeId node(std::uint64_t base) const noexcept {
    return static_cast<cluster::NodeId>(endpoint_a_[base]);
  }
  [[nodiscard]] BufferRef payload(std::uint64_t base) const noexcept {
    return unpack_ref(payload_a_[base], payload_b_[base]);
  }

  /// Dependencies / dependents as BASE step ids; the sliced image of
  /// (base, s) is { sliced_id(d, s) : d in deps(base) }.
  [[nodiscard]] std::span<const std::uint64_t> deps(std::uint64_t base) const {
    return {dep_entries_.data() + dep_off_[base],
            dep_off_[base + 1] - dep_off_[base]};
  }
  [[nodiscard]] std::span<const std::uint64_t> dependents(
      std::uint64_t base) const {
    return {rdep_entries_.data() + rdep_off_[base],
            rdep_off_[base + 1] - rdep_off_[base]};
  }

  [[nodiscard]] std::size_t num_inputs(std::uint64_t base) const noexcept {
    return static_cast<std::size_t>(in_off_[base + 1] - in_off_[base]);
  }
  [[nodiscard]] ComputeInput input(std::uint64_t base, std::size_t i) const {
    const std::uint64_t at = in_off_[base] + i;
    return {unpack_ref(in_ref_a_[at], in_ref_b_[at]), in_coeff_[at]};
  }

  /// Declared bytes of the sliced step (base, slice): the slice length for
  /// transfers, length * |inputs| for computes.
  [[nodiscard]] std::uint64_t step_bytes(std::uint64_t base,
                                         std::uint64_t slice) const noexcept {
    const std::uint64_t length = slice_length(slice);
    return kind(base) == StepKind::kTransfer
               ? length
               : length * static_cast<std::uint64_t>(num_inputs(base));
  }

  [[nodiscard]] cluster::NodeId replacement() const noexcept {
    return replacement_;
  }
  [[nodiscard]] cluster::RackId replacement_rack() const noexcept {
    return replacement_rack_;
  }
  [[nodiscard]] std::span<const RecoveryPlan::Output> outputs()
      const noexcept {
    return outputs_;
  }

  /// True when every dependency stays within its step's stripe — the
  /// property that makes stripes independent sub-DAGs, which the sharded
  /// executor requires.  Raw builder plans are stripe-closed; windowed
  /// schedules (recovery/scheduler.h) add cross-stripe lane deps and are
  /// not.
  [[nodiscard]] bool stripe_closed() const noexcept { return stripe_closed_; }

  // --- byte accounting (equal to the base plan's) ---------------------

  [[nodiscard]] std::uint64_t cross_rack_bytes() const noexcept;
  [[nodiscard]] std::uint64_t intra_rack_bytes() const noexcept;
  [[nodiscard]] std::uint64_t compute_bytes() const noexcept;
  [[nodiscard]] std::vector<std::uint64_t> per_rack_cross_bytes(
      const cluster::Topology& topology) const;

 private:
  /// Reaches the columns to build malformed arenas for the arena
  /// validator's tests (tests/validate_test.cc); src/ never uses it.
  friend struct PlanArenaTestPeer;

  void build_reverse_deps();

  static constexpr std::uint8_t kComputeFlag = 1;
  static constexpr std::uint8_t kCrossRackFlag = 2;
  /// Tag bit in the second ref word: set = step-output ref, clear = chunk.
  static constexpr std::uint32_t kStepRefBit = 1U << 31;

  static std::pair<std::uint64_t, std::uint32_t> pack_ref(
      const BufferRef& ref);
  static BufferRef unpack_ref(std::uint64_t a, std::uint32_t b) noexcept {
    if ((b & kStepRefBit) != 0) {
      return BufferRef::step(static_cast<std::size_t>(a));
    }
    return BufferRef::chunk(static_cast<cluster::StripeId>(a),
                            static_cast<std::size_t>(b));
  }

  cluster::NodeId replacement_ = 0;
  cluster::RackId replacement_rack_ = 0;
  std::uint64_t chunk_size_ = 0;
  std::uint64_t slice_size_ = 0;
  std::uint64_t num_slices_ = 1;
  bool stripe_closed_ = true;

  // Column storage default-initialises on resize (every element is
  // overwritten through exact-size cursors right after), so sizing the
  // columns never memsets hundreds of megabytes.
  template <typename T>
  using Column = std::vector<T, util::DefaultInitAllocator<T>>;

  // One entry per base step.
  Column<std::uint8_t> flags_;
  Column<std::uint64_t> stripe_;
  Column<std::uint32_t> endpoint_a_;  // transfer src / compute node
  Column<std::uint32_t> endpoint_b_;  // transfer dst / 0
  Column<std::uint64_t> payload_a_;   // chunk stripe / output step id
  Column<std::uint32_t> payload_b_;   // chunk index | kStepRefBit

  // CSR dependency structure over base steps (entries are base ids).
  Column<std::uint64_t> dep_off_;   // size num_base_steps + 1
  Column<std::uint64_t> dep_entries_;
  Column<std::uint64_t> rdep_off_;  // reverse edges (dependents)
  Column<std::uint64_t> rdep_entries_;

  // CSR compute inputs over base steps.
  Column<std::uint64_t> in_off_;    // size num_base_steps + 1
  Column<std::uint64_t> in_ref_a_;
  Column<std::uint32_t> in_ref_b_;
  Column<std::uint8_t> in_coeff_;

  std::vector<RecoveryPlan::Output> outputs_;

  // Incremental-append cursors: append_instantiated() writes the columns
  // through these offsets (the columns are pre-sized, either exactly by
  // reserve() or geometrically per append), so num_base_steps() is only
  // meaningful once finalize() has checked the cursors against the column
  // extents.
  std::uint64_t cur_steps_ = 0;
  std::uint64_t cur_deps_ = 0;
  std::uint64_t cur_inputs_ = 0;
  std::uint64_t cur_outputs_ = 0;
  bool sized_ = false;  // reserve() ran: extents are exact, not grown
};

}  // namespace car::recovery
