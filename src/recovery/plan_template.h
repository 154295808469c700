// Plan templates: the one definition of a CAR or RR repair DAG.
//
// A stripe's CAR repair has a fixed shape (Theorem 1 plus partial
// decoding): in each contributing rack, every picked survivor but the
// first is gathered onto the first (the rack's aggregator), which decodes
// one partial per lost chunk and ships each to the replacement; there one
// final compute per lost chunk sums that chunk's partials.  The RR shape
// fetches every survivor not already on the replacement and decodes each
// lost chunk there.  build_car_template / build_rr_template (the .cc) lay
// those shapes out with survivor positions as symbols, and every plan the
// library builds for a node failure is an instantiation of one: the
// RecoveryPlans of build_multi_car_plan / build_multi_rr_plan
// (recovery/multi.h, defined here) and the arenas of the arena builders
// below.
//
// The shape is a pure function of a tiny structural signature — how many
// chunks were lost and how the chosen survivor picks group by size
// (recovery/multi.h).  Two stripes sharing that signature get plans that
// differ only in concrete node ids (resolved through the placement), the
// stripe id stamped on buffer refs, the concrete chunk indices behind each
// survivor position, the decode coefficients, and step-id offsets.  The
// step topology, dependency structure, and byte contract are identical,
// because:
//
//   * every pick's aggregator is the host of its first chunk and all
//     chunks of a stripe live on distinct nodes, so gather transfers are
//     exactly "every pick position but the first, to the first" regardless
//     of which chunks or nodes those are;
//   * decode coefficients depend only on (lost chunk index, survivor chunk
//     index set) and are memoised canonically by chunk index in a
//     RepairMemo, so they resolve per stripe with two array lookups — they
//     do not need to be baked into the template;
//   * cross-rack flags are recomputed from the resolved endpoints at
//     instantiation time, so signatures encode neither rack identity nor
//     node identity (the home pick of one stripe may be a remote pick of
//     another, and recovered-onto-replacement chunks in the rebuild
//     control plane's batches resolve to the replacement node without a
//     cache miss).
//
// The CAR signature is therefore just (lost count, pick size sequence) —
// a few dozen distinct values at datacenter scale — and the RR signature
// (lost count, fetch count, skip-position mask).  A PlanTemplateCache runs
// the structural planner once per signature and instantiates every other
// stripe by remapping ids — either straight into the columnar PlanArena
// (PlanArena::append_instantiated, zero per-stripe heap RecoveryPlan
// objects: the scale path, the rebuild control plane's per-batch re-plans,
// and the fault-injection runtime's initial plan and crash escalations) or
// into a RecoveryPlan through PlanBuilder, which checks every step as it
// lands (carctl, workload/trace, cfs and the figure benches, each off a
// fresh cache).
//
// When must a stripe MISS the cache?  Exactly when its signature differs:
// a different lost-chunk count, a different pick-size profile (e.g.
// partial salvage after a prior batch recovered some chunks, which
// regroups survivors), or — RR only — a different set of fetch positions
// already hosted on the replacement (those skip their transfer entirely,
// changing the step topology, so the RR signature includes that mask).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"
#include "recovery/multi.h"
#include "recovery/plan.h"
#include "recovery/plan_arena.h"
#include "rs/code.h"

namespace car::recovery {

/// One symbolic step of a plan template.  Endpoints name either "the host
/// of the survivor at position p of the instantiated stripe's solution"
/// or "the replacement node"; buffer refs name either "the chunk at
/// survivor position p" or "the output of local step i of this template".
struct TemplateStep {
  /// Endpoint symbol: survivor position, or kReplacementSym.
  static constexpr std::uint32_t kReplacementSym = 0xFFFFFFFFu;
  /// coeff_lost value for steps whose inputs are all unit-coefficient.
  static constexpr std::uint32_t kNoCoeff = 0xFFFFFFFFu;

  StepKind kind = StepKind::kTransfer;
  std::uint32_t src_sym = 0;  // transfer src / compute node
  std::uint32_t dst_sym = 0;  // transfer dst / unused
  bool payload_is_step = false;
  std::uint32_t payload_ref = 0;  // survivor position / local step id
  /// Lost position whose decode coefficients weight this step's chunk
  /// inputs (partial and final decodes), or kNoCoeff (unit coefficients).
  std::uint32_t coeff_lost = kNoCoeff;
  std::vector<std::uint32_t> deps;  // local step ids, forward (dep < step)
  struct Input {
    bool is_step = false;
    std::uint32_t ref = 0;  // survivor position / local step id
  };
  std::vector<Input> inputs;
};

/// A structural plan signature's worth of steps plus its outputs.
struct PlanTemplate {
  std::vector<TemplateStep> steps;
  struct Output {
    std::uint32_t lost_pos = 0;    // index into the stripe's lost_chunks
    std::uint32_t final_step = 0;  // local step id
  };
  std::vector<Output> outputs;
  /// Totals for arena pre-reservation.
  std::size_t num_deps = 0;
  std::size_t num_inputs = 0;
  /// Template-local reverse-dependency CSR (dependents by local step id),
  /// computed once per signature by the template builders.  Deps are
  /// stripe-local, so the arena's reverse CSR is just each stripe's copy
  /// offset by its base step — instantiation writes it directly and
  /// finalize() skips the counting sort over the forward edges.
  std::vector<std::uint32_t> rdep_off;      // size steps + 1
  std::vector<std::uint32_t> rdep_entries;  // size num_deps
};

/// Everything stripe-specific a template instantiation needs: which
/// stripe, the concrete chunk index behind each survivor position, the
/// concrete lost chunks, and one canonical coefficient table (indexed by
/// chunk index — RepairMemo::coeffs) per lost position.
struct StripeBinding {
  cluster::StripeId stripe = 0;
  std::span<const std::size_t> survivors;
  std::span<const std::size_t> lost_chunks;
  std::span<const std::span<const std::uint8_t>> coeffs;
};

struct TemplateStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Signature-keyed cache of plan templates plus the shared decode-
/// coefficient memo.  One cache serves both strategies (keys are
/// strategy-tagged) and is reusable across batches/epochs: the rebuild
/// control plane keeps one per run so re-plans after rolling failures hit
/// the warm cache.
class PlanTemplateCache {
 public:
  /// Template for a CAR multi-failure solution's signature
  /// (lost count, pick size sequence), built on miss.  Templates stay
  /// sealed (reverse CSR included) for the cache's lifetime, so a warm
  /// cache serves every later build without redoing any per-signature
  /// work.
  const PlanTemplate& car(const MultiStripeSolution& solution);

  /// Template for an RR signature.  `skip_position_mask` is a bitmask (by
  /// fetch POSITION, not chunk index) of survivors already hosted on the
  /// replacement — they skip their transfer, so they are part of the
  /// signature.
  const PlanTemplate& rr(std::size_t num_lost, std::size_t num_chunks,
                         std::uint64_t skip_position_mask);

  /// Decode-coefficient memo shared by every instantiation off this cache.
  [[nodiscard]] RepairMemo& repair_memo() noexcept { return repair_memo_; }

  [[nodiscard]] const TemplateStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return cache_.size(); }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
    std::size_t operator()(const std::string& s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, PlanTemplate, StringHash, std::equal_to<>>
      cache_;
  std::string scratch_;  // key bytes, reused across lookups
  RepairMemo repair_memo_;
  TemplateStats stats_;
};

/// Arena builders: lower every solution straight into a columnar PlanArena
/// without materialising a single per-stripe PlanStep.  Bit-identical to
/// PlanArena::build(build_multi_*_plan(...), slice_size) — the planner of
/// the scale path and of every rebuild batch (recovery/replan.h).
PlanArena build_multi_car_arena(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache);
PlanArena build_multi_rr_arena(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiRrSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache);

/// Two-phase streaming form of the arena builders, for overlapping
/// lowering with the virtual-clock replay (Cluster::
/// execute_arena_streaming):
///
///   1. reserve_multi_*_arena resolves every solution's template and sizes
///      the arena columns to their exact final extents — after it returns,
///      num_base_steps() is final and no column ever reallocates, so the
///      executor may attach to `arena` before a single stripe lands;
///   2. stream_multi_*_arena appends in solution order, invoking
///      `publish(rows)` with the monotone count of fully appended base
///      steps after each stripe (every published prefix is stripe-closed),
///      and finalizes the arena.
///
/// build_multi_*_arena is exactly phase 1 + phase 2 with no publisher, so
/// the streamed arena is the barrier build's bit for bit.
struct ArenaStreamBuild {
  PlanArena arena;
  /// Cache-owned template per solution, resolved by the reserve pass.
  std::vector<const PlanTemplate*> templates;
};
ArenaStreamBuild reserve_multi_car_arena(
    const cluster::Placement& placement,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache);
ArenaStreamBuild reserve_multi_rr_arena(
    const cluster::Placement& placement,
    std::span<const MultiRrSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache);
void stream_multi_car_arena(
    ArenaStreamBuild& build, const cluster::Placement& placement,
    const rs::Code& code, std::span<const MultiStripeSolution> solutions,
    PlanTemplateCache& cache,
    const std::function<void(std::uint64_t)>& publish);
void stream_multi_rr_arena(
    ArenaStreamBuild& build, const cluster::Placement& placement,
    const rs::Code& code, std::span<const MultiRrSolution> solutions,
    PlanTemplateCache& cache,
    const std::function<void(std::uint64_t)>& publish);

}  // namespace car::recovery
