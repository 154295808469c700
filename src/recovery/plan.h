// Executable recovery plans.
//
// A RecoveryPlan is a DAG of transfer and compute steps that fully describes
// a multi-stripe recovery — which node sends which buffer to whom, and which
// linear combinations are evaluated where.  The planners compile into it:
// build_multi_car_plan and build_multi_rr_plan (recovery/multi.h), which
// instantiate the plan templates of recovery/plan_template.h, for node
// failures, and the degraded-read builders (recovery/degraded.h) for reads.
// Each appends its steps through PlanBuilder, which checks every step as it
// is added.  The same plan is consumed by three back-ends:
//   * byte accounting (cross_rack_bytes and friends below),
//   * simnet::simulate_plan (flow-level timing model),
//   * emul::Cluster::execute (real bytes through rate-limited links).
// Keeping one artifact guarantees the back-ends agree on *what* happens.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/placement.h"
#include "cluster/types.h"

namespace car::recovery {

/// Identifies a byte buffer: either an original chunk or the output of a
/// compute step (e.g. a partially decoded chunk).
struct BufferRef {
  enum class Kind { kChunk, kStepOutput };
  Kind kind = Kind::kChunk;
  cluster::StripeId stripe = 0;  // kChunk
  std::size_t chunk_index = 0;   // kChunk
  std::size_t step_id = 0;       // kStepOutput

  static BufferRef chunk(cluster::StripeId s, std::size_t c) {
    return {Kind::kChunk, s, c, 0};
  }
  static BufferRef step(std::size_t id) {
    return {Kind::kStepOutput, 0, 0, id};
  }
  friend bool operator==(const BufferRef&, const BufferRef&) = default;
};

/// One term of a linear combination: coeff * buffer.
struct ComputeInput {
  BufferRef buffer;
  std::uint8_t coeff = 1;
};

enum class StepKind { kTransfer, kCompute };

struct PlanStep {
  std::size_t id = 0;
  StepKind kind = StepKind::kTransfer;
  cluster::StripeId stripe = 0;
  std::vector<std::size_t> deps;  // step ids that must complete first

  // --- transfer fields ---
  cluster::NodeId src = 0;
  cluster::NodeId dst = 0;
  BufferRef payload;
  bool cross_rack = false;

  // --- compute fields ---
  cluster::NodeId node = 0;           // where the combination is evaluated
  std::vector<ComputeInput> inputs;   // output = sum coeff_i * buffer_i

  std::uint64_t bytes = 0;  // transfer: payload size; compute: bytes touched
};

struct RecoveryPlan {
  cluster::NodeId replacement = 0;
  cluster::RackId replacement_rack = 0;
  std::uint64_t chunk_size = 0;
  std::vector<PlanStep> steps;

  /// Final reconstruction outputs: the compute step whose result is the
  /// recovered chunk, one per lost chunk.
  struct Output {
    cluster::StripeId stripe = 0;
    std::size_t chunk_index = 0;
    std::size_t step_id = 0;
  };
  std::vector<Output> outputs;

  [[nodiscard]] std::size_t num_transfers() const noexcept;
  [[nodiscard]] std::size_t num_computes() const noexcept;
  [[nodiscard]] std::uint64_t cross_rack_bytes() const noexcept;
  [[nodiscard]] std::uint64_t intra_rack_bytes() const noexcept;
  /// Bytes sent across the core by each rack (indexed by rack id).
  [[nodiscard]] std::vector<std::uint64_t> per_rack_cross_bytes(
      const cluster::Topology& topology) const;
  /// Total bytes processed by GF/XOR compute steps.
  [[nodiscard]] std::uint64_t compute_bytes() const noexcept;
};

/// Byte-total accounting over any step sequence — RecoveryPlan's totals
/// are these over its steps, so any other step list (such as a
/// materialised slice lowering) is summed by the same code and can be
/// compared with a plan bit-for-bit.
[[nodiscard]] std::uint64_t cross_rack_bytes(
    std::span<const PlanStep> steps) noexcept;
[[nodiscard]] std::uint64_t intra_rack_bytes(
    std::span<const PlanStep> steps) noexcept;
[[nodiscard]] std::uint64_t compute_bytes(
    std::span<const PlanStep> steps) noexcept;
[[nodiscard]] std::vector<std::uint64_t> per_rack_cross_bytes(
    std::span<const PlanStep> steps, const cluster::Topology& topology);

/// Appends checked steps to `plan`: ids are dense, a step depends only on
/// steps already appended (so the DAG is acyclic by construction), node ids
/// are in range, and a compute has at least one input.  A transfer moves
/// plan.chunk_size bytes; a compute touches chunk_size per input.  Set
/// plan.chunk_size before adding steps.
struct PlanBuilder {
  RecoveryPlan plan;
  const cluster::Topology& topology;

  std::size_t add_transfer(cluster::StripeId stripe, cluster::NodeId src,
                           cluster::NodeId dst, BufferRef payload,
                           std::vector<std::size_t> deps);
  std::size_t add_compute(cluster::StripeId stripe, cluster::NodeId node,
                          std::vector<ComputeInput> inputs,
                          std::vector<std::size_t> deps);
};

}  // namespace car::recovery
