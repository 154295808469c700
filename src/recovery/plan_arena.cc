#include "recovery/plan_arena.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace car::recovery {

namespace {

std::uint32_t narrow_node(cluster::NodeId node, const char* what) {
  if (static_cast<std::uint64_t>(node) >
      std::numeric_limits<std::uint32_t>::max()) {
    throw std::out_of_range(std::string("PlanArena: ") + what +
                            " id does not fit the 32-bit endpoint column");
  }
  return static_cast<std::uint32_t>(node);
}

}  // namespace

std::pair<std::uint64_t, std::uint32_t> PlanArena::pack_ref(
    const BufferRef& ref) {
  if (ref.kind == BufferRef::Kind::kStepOutput) {
    return {static_cast<std::uint64_t>(ref.step_id), kStepRefBit};
  }
  if (static_cast<std::uint64_t>(ref.chunk_index) >= kStepRefBit) {
    throw std::out_of_range(
        "PlanArena: chunk index does not fit the 31-bit ref column");
  }
  return {static_cast<std::uint64_t>(ref.stripe),
          static_cast<std::uint32_t>(ref.chunk_index)};
}

PlanArena PlanArena::build(const RecoveryPlan& plan,
                           std::uint64_t slice_size) {
  CAR_CHECK(slice_size > 0, "PlanArena: slice_size must be > 0");

  PlanArena arena;
  arena.replacement_ = plan.replacement;
  arena.replacement_rack_ = plan.replacement_rack;
  arena.chunk_size_ = plan.chunk_size;
  arena.outputs_ = plan.outputs;

  const std::size_t n = plan.steps.size();
  if (n == 0) {
    arena.slice_size_ = std::min(slice_size, plan.chunk_size);
    arena.num_slices_ = 1;
    arena.dep_off_.assign(1, 0);
    arena.rdep_off_.assign(1, 0);
    arena.in_off_.assign(1, 0);
    return arena;
  }

  CAR_CHECK(plan.chunk_size > 0,
            "PlanArena: non-empty plan with chunk_size == 0");
  arena.slice_size_ = std::min(slice_size, plan.chunk_size);
  arena.num_slices_ =
      (plan.chunk_size + arena.slice_size_ - 1) / arena.slice_size_;

  arena.flags_.reserve(n);
  arena.stripe_.reserve(n);
  arena.endpoint_a_.reserve(n);
  arena.endpoint_b_.reserve(n);
  arena.payload_a_.reserve(n);
  arena.payload_b_.reserve(n);
  arena.dep_off_.reserve(n + 1);
  arena.in_off_.reserve(n + 1);
  arena.dep_off_.push_back(0);
  arena.in_off_.push_back(0);

  for (std::size_t index = 0; index < n; ++index) {
    const PlanStep& step = plan.steps[index];
    CAR_CHECK(step.id == index, "PlanArena: step ids must be dense");
    // The byte contract: a violation would skew every computed slice
    // length downstream.
    if (step.kind == StepKind::kTransfer) {
      CAR_CHECK(step.bytes == plan.chunk_size,
                "PlanArena: transfer step bytes != chunk_size");
    } else {
      CAR_CHECK(step.bytes == plan.chunk_size * step.inputs.size(),
                "PlanArena: compute step bytes != chunk_size * |inputs|");
    }

    std::uint8_t flags = 0;
    if (step.kind == StepKind::kCompute) flags |= kComputeFlag;
    if (step.cross_rack) flags |= kCrossRackFlag;
    arena.flags_.push_back(flags);
    arena.stripe_.push_back(static_cast<std::uint64_t>(step.stripe));
    if (step.kind == StepKind::kTransfer) {
      arena.endpoint_a_.push_back(narrow_node(step.src, "transfer src"));
      arena.endpoint_b_.push_back(narrow_node(step.dst, "transfer dst"));
      const auto [pa, pb] = pack_ref(step.payload);
      arena.payload_a_.push_back(pa);
      arena.payload_b_.push_back(pb);
    } else {
      arena.endpoint_a_.push_back(narrow_node(step.node, "compute node"));
      arena.endpoint_b_.push_back(0);
      arena.payload_a_.push_back(0);
      arena.payload_b_.push_back(0);
    }

    for (const std::size_t dep : step.deps) {
      // Forward edges are what let executors drain the arena in id order
      // with no heap; every builder (and schedule_windowed) emits them.
      CAR_CHECK(dep < index, "PlanArena: dependency ids must be forward "
                             "(dep < step)");
      arena.dep_entries_.push_back(static_cast<std::uint64_t>(dep));
      if (plan.steps[dep].stripe != step.stripe) {
        arena.stripe_closed_ = false;
      }
    }
    arena.dep_off_.push_back(
        static_cast<std::uint64_t>(arena.dep_entries_.size()));

    for (const ComputeInput& in : step.inputs) {
      const auto [ra, rb] = pack_ref(in.buffer);
      arena.in_ref_a_.push_back(ra);
      arena.in_ref_b_.push_back(rb);
      arena.in_coeff_.push_back(in.coeff);
    }
    arena.in_off_.push_back(static_cast<std::uint64_t>(arena.in_ref_a_.size()));
  }

  arena.build_reverse_deps();

  // The id grid must be representable: the overflow check in sliced_id
  // would otherwise fire mid-execution instead of at build time.
  (void)arena.sliced_id(arena.num_base_steps() - 1, arena.num_slices_ - 1);
  return arena;
}

void PlanArena::build_reverse_deps() {
  // Reverse CSR (dependents) via counting sort over the forward edges.
  const std::size_t n = flags_.size();
  rdep_off_.assign(n + 1, 0);
  for (const std::uint64_t dep : dep_entries_) {
    ++rdep_off_[dep + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    rdep_off_[i + 1] += rdep_off_[i];
  }
  rdep_entries_.resize(dep_entries_.size());
  std::vector<std::uint64_t> cursor(rdep_off_.begin(), rdep_off_.end() - 1);
  for (std::size_t step = 0; step < n; ++step) {
    for (std::uint64_t at = dep_off_[step]; at < dep_off_[step + 1]; ++at) {
      const std::uint64_t dep = dep_entries_[at];
      rdep_entries_[cursor[dep]++] = static_cast<std::uint64_t>(step);
    }
  }
}

PlanArena PlanArena::create(cluster::NodeId replacement,
                            cluster::RackId replacement_rack,
                            std::uint64_t chunk_size,
                            std::uint64_t slice_size) {
  CAR_CHECK(chunk_size > 0, "PlanArena: chunk_size must be > 0");
  CAR_CHECK(slice_size > 0, "PlanArena: slice_size must be > 0");
  PlanArena arena;
  arena.replacement_ = replacement;
  arena.replacement_rack_ = replacement_rack;
  arena.chunk_size_ = chunk_size;
  arena.slice_size_ = std::min(slice_size, chunk_size);
  arena.num_slices_ = (chunk_size + arena.slice_size_ - 1) / arena.slice_size_;
  arena.dep_off_.push_back(0);
  arena.rdep_off_.push_back(0);
  arena.in_off_.push_back(0);
  return arena;
}

void PlanArena::reserve(std::uint64_t steps, std::uint64_t deps,
                        std::uint64_t inputs, std::uint64_t outputs) {
  CAR_CHECK(cur_steps_ == 0 && flags_.empty(),
            "PlanArena::reserve must run before the first append");
  flags_.resize(steps);
  stripe_.resize(steps);
  endpoint_a_.resize(steps);
  endpoint_b_.resize(steps);
  payload_a_.resize(steps);
  payload_b_.resize(steps);
  dep_off_.resize(steps + 1);
  dep_entries_.resize(deps);
  rdep_off_.resize(steps + 1);
  rdep_entries_.resize(deps);
  in_off_.resize(steps + 1);
  in_ref_a_.resize(inputs);
  in_ref_b_.resize(inputs);
  in_coeff_.resize(inputs);
  outputs_.resize(outputs);
  sized_ = true;
}

void PlanArena::finalize() {
  // An exact reserve() that overcounted would leave trailing
  // value-initialised steps; undercounts are caught per append.
  CAR_CHECK(cur_steps_ == flags_.size() && cur_deps_ == dep_entries_.size() &&
                cur_inputs_ == in_ref_a_.size() &&
                cur_outputs_ == outputs_.size(),
            "PlanArena::finalize: reserve() totals do not match the "
            "appended extents");
  // No counting sort here: append_instantiated() already materialised the
  // reverse CSR from each template's local one (deps are stripe-local, so
  // the global reverse CSR is the per-stripe concatenation).
  if (num_base_steps() > 0) {
    (void)sliced_id(num_base_steps() - 1, num_slices_ - 1);
  }
}

std::uint64_t PlanArena::cross_rack_bytes() const noexcept {
  // Each transfer's slices sum to exactly chunk_size, so the totals are
  // per-base-step arithmetic — no walk over the slice dimension.
  std::uint64_t total = 0;
  for (std::uint64_t base = 0; base < num_base_steps(); ++base) {
    if (kind(base) == StepKind::kTransfer && cross_rack(base) &&
        src(base) != dst(base)) {
      total += chunk_size_;
    }
  }
  return total;
}

std::uint64_t PlanArena::intra_rack_bytes() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t base = 0; base < num_base_steps(); ++base) {
    if (kind(base) == StepKind::kTransfer && !cross_rack(base) &&
        src(base) != dst(base)) {
      total += chunk_size_;
    }
  }
  return total;
}

std::uint64_t PlanArena::compute_bytes() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t base = 0; base < num_base_steps(); ++base) {
    if (kind(base) == StepKind::kCompute) {
      total += chunk_size_ * static_cast<std::uint64_t>(num_inputs(base));
    }
  }
  return total;
}

std::vector<std::uint64_t> PlanArena::per_rack_cross_bytes(
    const cluster::Topology& topology) const {
  std::vector<std::uint64_t> out(topology.num_racks(), 0);
  for (std::uint64_t base = 0; base < num_base_steps(); ++base) {
    if (kind(base) == StepKind::kTransfer && cross_rack(base) &&
        src(base) != dst(base)) {
      out[topology.rack_of(src(base))] += chunk_size_;
    }
  }
  return out;
}

}  // namespace car::recovery
