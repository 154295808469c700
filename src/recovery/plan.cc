#include "recovery/plan.h"

#include "util/check.h"

namespace car::recovery {

std::size_t RecoveryPlan::num_transfers() const noexcept {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.kind == StepKind::kTransfer;
  return n;
}

std::size_t RecoveryPlan::num_computes() const noexcept {
  std::size_t n = 0;
  for (const auto& s : steps) n += s.kind == StepKind::kCompute;
  return n;
}

std::uint64_t cross_rack_bytes(std::span<const PlanStep> steps) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : steps) {
    if (s.kind == StepKind::kTransfer && s.cross_rack) total += s.bytes;
  }
  return total;
}

std::uint64_t intra_rack_bytes(std::span<const PlanStep> steps) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : steps) {
    // Loopback moves (src == dst) never leave the node, so they are not
    // network traffic — mirrored by the emulator, which reserves no link
    // capacity for them.
    if (s.kind == StepKind::kTransfer && !s.cross_rack && s.src != s.dst) {
      total += s.bytes;
    }
  }
  return total;
}

std::vector<std::uint64_t> per_rack_cross_bytes(
    std::span<const PlanStep> steps, const cluster::Topology& topology) {
  std::vector<std::uint64_t> per_rack(topology.num_racks(), 0);
  for (const auto& s : steps) {
    if (s.kind == StepKind::kTransfer && s.cross_rack) {
      per_rack[topology.rack_of(s.src)] += s.bytes;
    }
  }
  return per_rack;
}

std::uint64_t compute_bytes(std::span<const PlanStep> steps) noexcept {
  std::uint64_t total = 0;
  for (const auto& s : steps) {
    if (s.kind == StepKind::kCompute) total += s.bytes;
  }
  return total;
}

std::uint64_t RecoveryPlan::cross_rack_bytes() const noexcept {
  return recovery::cross_rack_bytes(std::span<const PlanStep>(steps));
}

std::uint64_t RecoveryPlan::intra_rack_bytes() const noexcept {
  return recovery::intra_rack_bytes(std::span<const PlanStep>(steps));
}

std::vector<std::uint64_t> RecoveryPlan::per_rack_cross_bytes(
    const cluster::Topology& topology) const {
  return recovery::per_rack_cross_bytes(std::span<const PlanStep>(steps),
                                        topology);
}

std::uint64_t RecoveryPlan::compute_bytes() const noexcept {
  return recovery::compute_bytes(std::span<const PlanStep>(steps));
}

namespace {

// Plan-DAG well-formedness: every appended step may only depend on steps
// that already exist, which keeps the DAG acyclic by construction.
void check_deps(std::size_t id, const std::vector<std::size_t>& deps) {
  for (const std::size_t dep : deps) {
    CAR_CHECK_LT(dep, id, "PlanBuilder: dependency on a future step");
  }
}

}  // namespace

std::size_t PlanBuilder::add_transfer(cluster::StripeId stripe,
                                      cluster::NodeId src, cluster::NodeId dst,
                                      BufferRef payload,
                                      std::vector<std::size_t> deps) {
  CAR_CHECK_LT(src, topology.num_nodes(), "PlanBuilder: bad src node");
  CAR_CHECK_LT(dst, topology.num_nodes(), "PlanBuilder: bad dst node");
  PlanStep step;
  step.id = plan.steps.size();
  check_deps(step.id, deps);
  step.kind = StepKind::kTransfer;
  step.stripe = stripe;
  step.src = src;
  step.dst = dst;
  step.payload = payload;
  step.cross_rack = topology.rack_of(src) != topology.rack_of(dst);
  step.bytes = plan.chunk_size;
  step.deps = std::move(deps);
  plan.steps.push_back(std::move(step));
  return plan.steps.back().id;
}

std::size_t PlanBuilder::add_compute(cluster::StripeId stripe,
                                     cluster::NodeId node,
                                     std::vector<ComputeInput> inputs,
                                     std::vector<std::size_t> deps) {
  CAR_CHECK_LT(node, topology.num_nodes(), "PlanBuilder: bad compute node");
  CAR_CHECK(!inputs.empty(), "PlanBuilder: compute without inputs");
  PlanStep step;
  step.id = plan.steps.size();
  check_deps(step.id, deps);
  step.kind = StepKind::kCompute;
  step.stripe = stripe;
  step.node = node;
  step.bytes = plan.chunk_size * inputs.size();
  step.inputs = std::move(inputs);
  step.deps = std::move(deps);
  plan.steps.push_back(std::move(step));
  return plan.steps.back().id;
}

}  // namespace car::recovery
