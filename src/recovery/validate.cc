#include "recovery/validate.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <numeric>
#include <sstream>
#include <tuple>
#include <utility>

namespace car::recovery {

namespace {

std::string step_label(std::uint64_t id, StepKind kind,
                       cluster::StripeId stripe) {
  std::ostringstream os;
  os << "step " << id
     << (kind == StepKind::kTransfer ? " (transfer" : " (compute")
     << ", stripe " << stripe << ')';
  return os.str();
}

std::string step_label(const PlanArena& arena, std::uint64_t row) {
  return step_label(row, arena.kind(row), arena.stripe(row));
}

std::string buffer_label(const BufferRef& ref) {
  std::ostringstream os;
  if (ref.kind == BufferRef::Kind::kStepOutput) {
    os << "output of step " << ref.step_id;
  } else {
    os << "chunk (stripe " << ref.stripe << ", index " << ref.chunk_index
       << ')';
  }
  return os.str();
}

/// A maximal range [begin, end) of consecutive rows of one stripe.
struct StripeRows {
  cluster::StripeId stripe = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

std::vector<StripeRows> stripe_rows(const PlanArena& arena) {
  std::vector<StripeRows> runs;
  for (std::uint64_t row = 0; row < arena.num_base_steps(); ++row) {
    if (runs.empty() || runs.back().stripe != arena.stripe(row)) {
      runs.push_back({arena.stripe(row), row, row + 1});
    } else {
      runs.back().end = row + 1;
    }
  }
  return runs;
}

/// A buffer placed on a node by a row (a transfer's destination, or a
/// compute's own node), packed so entries sort as plain integers.
struct Placed {
  static constexpr std::uint64_t kStepTag = std::uint64_t{1} << 63;

  std::uint64_t ref = 0;    // step id, or chunk stripe
  std::uint64_t where = 0;  // kStepTag | node, or chunk index << 32 | node
  std::uint64_t row = 0;

  static Placed of(const BufferRef& ref, cluster::NodeId node,
                   std::uint64_t row) {
    const auto n = static_cast<std::uint64_t>(node) & 0xFFFFFFFFu;
    if (ref.kind == BufferRef::Kind::kStepOutput) {
      return {ref.step_id, kStepTag | n, row};
    }
    return {ref.stripe, (static_cast<std::uint64_t>(ref.chunk_index) << 32) | n,
            row};
  }
  friend bool operator<(const Placed& a, const Placed& b) noexcept {
    return std::tie(a.ref, a.where, a.row) < std::tie(b.ref, b.where, b.row);
  }
};

/// The data-flow pass over one stripe's rows: grow-only ancestor bitsets
/// over the rows' own dependency edges, filled in row order (deps are
/// forward), and the sorted list of what each row places where.  Scratch
/// storage is reused from stripe to stripe.
class StripeFlow {
 public:
  StripeFlow(const PlanArena& arena, const cluster::Placement& placement,
             ValidationReport& report)
      : arena_(arena), placement_(placement), report_(report) {}

  void check(const StripeRows& rows) {
    begin_ = rows.begin;
    const std::uint64_t n = rows.end - rows.begin;
    words_ = (n + 63) / 64;
    ancestors_.assign(n * words_, 0);
    placed_.clear();
    for (std::uint64_t row = rows.begin; row < rows.end; ++row) {
      if (arena_.kind(row) == StepKind::kTransfer) {
        const BufferRef payload = arena_.payload(row);
        if (payload_stripe_ok(payload)) {
          placed_.push_back(Placed::of(payload, arena_.dst(row), row));
        }
      } else {
        placed_.push_back(Placed::of(BufferRef::step(row), arena_.node(row),
                                     row));
      }
    }
    std::sort(placed_.begin(), placed_.end());

    for (std::uint64_t row = rows.begin; row < rows.end; ++row) {
      for (const std::uint64_t dep : arena_.deps(row)) {
        if (dep >= rows.begin && dep < row) absorb(row, dep);
      }
      if (arena_.kind(row) == StepKind::kTransfer) {
        const BufferRef payload = arena_.payload(row);
        if (!payload_stripe_ok(payload)) {
          error(step_label(arena_, row) + ": payload stripe out of range");
        } else if (!available(row, payload, arena_.src(row))) {
          error(step_label(arena_, row) + ": payload " +
                buffer_label(payload) + " is not on source node " +
                std::to_string(arena_.src(row)) + " when the step may run");
        }
      } else {
        for (std::size_t i = 0; i < arena_.num_inputs(row); ++i) {
          const BufferRef input = arena_.input(row, i).buffer;
          if (!available(row, input, arena_.node(row))) {
            error(step_label(arena_, row) + ": input " + buffer_label(input) +
                  " is not on node " + std::to_string(arena_.node(row)) +
                  " when the step may run");
          }
        }
      }
    }
  }

 private:
  void error(std::string message) {
    report_.errors.push_back(std::move(message));
  }

  [[nodiscard]] bool payload_stripe_ok(const BufferRef& ref) const {
    return ref.kind == BufferRef::Kind::kStepOutput ||
           ref.stripe < placement_.num_stripes();
  }

  std::uint64_t* bits(std::uint64_t row) {
    return ancestors_.data() + (row - begin_) * words_;
  }

  void absorb(std::uint64_t row, std::uint64_t dep) {
    std::uint64_t* mine = bits(row);
    const std::uint64_t* theirs = bits(dep);
    for (std::uint64_t w = 0; w < words_; ++w) mine[w] |= theirs[w];
    const std::uint64_t local = dep - begin_;
    mine[local / 64] |= std::uint64_t{1} << (local % 64);
  }

  /// `ref` is on `node` when `row` may run: it lives there from the start,
  /// or a dependency ancestor of `row` placed it there.
  bool available(std::uint64_t row, const BufferRef& ref,
                 cluster::NodeId node) {
    if (ref.kind == BufferRef::Kind::kChunk &&
        ref.stripe < placement_.num_stripes()) {
      const auto hosts = placement_.stripe(ref.stripe);
      if (ref.chunk_index < hosts.size() && hosts[ref.chunk_index] == node) {
        return true;
      }
    }
    const Placed key = Placed::of(ref, node, 0);
    const std::uint64_t* mine = bits(row);
    for (auto it = std::lower_bound(placed_.begin(), placed_.end(), key);
         it != placed_.end() && it->ref == key.ref && it->where == key.where;
         ++it) {
      const std::uint64_t local = it->row - begin_;
      if (((mine[local / 64] >> (local % 64)) & 1U) != 0) return true;
    }
    return false;
  }

  const PlanArena& arena_;
  const cluster::Placement& placement_;
  ValidationReport& report_;
  std::uint64_t begin_ = 0;
  std::uint64_t words_ = 0;
  std::vector<std::uint64_t> ancestors_;
  std::vector<Placed> placed_;
};

/// Grid, replacement and per-row structure: everything a RecoveryPlan
/// cannot get wrong once PlanArena::build has accepted it, it can only
/// carry into the arena.
void check_rows(const PlanArena& arena, const cluster::Topology& topology,
                ValidationReport& report) {
  auto error = [&report](std::string message) {
    report.errors.push_back(std::move(message));
  };
  const std::uint64_t n = arena.num_base_steps();
  const std::uint64_t chunk = arena.chunk_size();
  const std::uint64_t slice = arena.slice_size();
  if (chunk == 0) {
    error("chunk_size must be > 0 for a non-empty plan");
  } else if (slice == 0 || slice > chunk ||
             arena.num_slices() != (chunk + slice - 1) / slice) {
    error("slice grid of " + std::to_string(arena.num_slices()) + " x " +
          std::to_string(slice) + " bytes does not tile chunk_size " +
          std::to_string(chunk) +
          ": transfers would not move chunk_size bytes");
  }
  if (arena.replacement() >= topology.num_nodes()) {
    error("replacement node id out of range");
  } else if (topology.rack_of(arena.replacement()) !=
             arena.replacement_rack()) {
    error("replacement_rack does not match the replacement node's rack");
  }

  for (std::uint64_t row = 0; row < n; ++row) {
    for (const std::uint64_t dep : arena.deps(row)) {
      if (dep >= row) {
        error(step_label(arena, row) + ": depends on step " +
              std::to_string(dep) +
              ", which is not an earlier step (a back edge: executors run "
              "steps in id order)");
      }
    }
    if (arena.kind(row) == StepKind::kTransfer) {
      const cluster::NodeId src = arena.src(row);
      const cluster::NodeId dst = arena.dst(row);
      if (src >= topology.num_nodes() || dst >= topology.num_nodes()) {
        error(step_label(arena, row) + ": node id out of range");
        continue;
      }
      const bool crosses = topology.rack_of(src) != topology.rack_of(dst);
      if (arena.cross_rack(row) != crosses) {
        error(step_label(arena, row) + ": cross_rack flag is " +
              (arena.cross_rack(row) ? "true" : "false") +
              " but the endpoints say otherwise");
      }
      continue;
    }
    if (arena.node(row) >= topology.num_nodes()) {
      error(step_label(arena, row) + ": node id out of range");
      continue;
    }
    if (arena.num_inputs(row) == 0) {
      error(step_label(arena, row) + ": compute has no inputs");
      continue;
    }
    for (std::size_t i = 0; i < arena.num_inputs(row); ++i) {
      const BufferRef in = arena.input(row, i).buffer;
      if (in.kind != BufferRef::Kind::kStepOutput) continue;
      if (in.step_id >= n) {
        error(step_label(arena, row) + ": input references unknown step " +
              std::to_string(in.step_id));
      } else if (arena.kind(in.step_id) != StepKind::kCompute) {
        error(step_label(arena, row) + ": input references step " +
              std::to_string(in.step_id) + " which is not a compute step");
      }
    }
  }
}

/// Outputs, per-stripe data flow, aggregators and the cross-rack claim.
void check_flow(const PlanArena& arena, const cluster::Topology& topology,
                const ValidateOptions& options, ValidationReport& report) {
  auto error = [&report](std::string message) {
    report.errors.push_back(std::move(message));
  };
  const std::uint64_t n = arena.num_base_steps();

  // --- outputs ------------------------------------------------------------
  std::vector<std::pair<cluster::StripeId, std::size_t>> declared;
  declared.reserve(arena.outputs().size());
  for (const RecoveryPlan::Output& out : arena.outputs()) {
    declared.emplace_back(out.stripe, out.chunk_index);
    const std::string who = "output for stripe " + std::to_string(out.stripe);
    if (out.step_id >= n) {
      error(who + " references unknown step " + std::to_string(out.step_id));
      continue;
    }
    if (arena.kind(out.step_id) != StepKind::kCompute) {
      error(who + " references step " + std::to_string(out.step_id) +
            " which is not a compute step");
    }
    if (arena.stripe(out.step_id) != out.stripe) {
      error(who + " references step " + std::to_string(out.step_id) +
            " of stripe " + std::to_string(arena.stripe(out.step_id)));
    }
  }
  // Builders emit outputs in (stripe, chunk) order, so the sort is a
  // no-op pass for them.
  if (!std::is_sorted(declared.begin(), declared.end())) {
    std::sort(declared.begin(), declared.end());
  }
  for (std::size_t i = 1; i < declared.size(); ++i) {
    if (declared[i] == declared[i - 1]) {
      error("duplicate output for stripe " +
            std::to_string(declared[i].first) + ", chunk " +
            std::to_string(declared[i].second));
    }
  }

  const std::vector<StripeRows> runs = stripe_rows(arena);

  // --- data flow ------------------------------------------------------------
  if (options.placement == nullptr) {
    report.notes.push_back(
        "data-flow checks skipped: no placement supplied");
  } else {
    StripeFlow flow(arena, *options.placement, report);
    bool skipped = false;
    for (const StripeRows& rows : runs) {
      if (rows.end - rows.begin > options.max_flow_analysis_steps) {
        skipped = true;
        continue;
      }
      flow.check(rows);
    }
    if (skipped) {
      report.notes.push_back(
          "data-flow checks skipped for stripes whose rows exceed "
          "max_flow_analysis_steps");
    }

    // Every declared output must end up on the replacement node: computed
    // there, or shipped there by some transfer.
    std::vector<char> on_replacement(n, 0);
    for (std::uint64_t row = 0; row < n; ++row) {
      if (arena.kind(row) == StepKind::kCompute) {
        if (arena.node(row) == arena.replacement()) on_replacement[row] = 1;
        continue;
      }
      const BufferRef payload = arena.payload(row);
      if (payload.kind == BufferRef::Kind::kStepOutput &&
          payload.step_id < n && arena.dst(row) == arena.replacement()) {
        on_replacement[payload.step_id] = 1;
      }
    }
    for (const RecoveryPlan::Output& out : arena.outputs()) {
      if (out.step_id >= n || on_replacement[out.step_id] != 0) continue;
      error("output for stripe " + std::to_string(out.stripe) + ", chunk " +
            std::to_string(out.chunk_index) + " (step " +
            std::to_string(out.step_id) +
            ") never reaches the replacement node");
    }
  }

  // --- one aggregator per rack per stripe ---------------------------------
  // CAR's partial decoding funnels each contributing rack through a single
  // aggregator; two distinct non-replacement compute nodes in one rack for
  // the same stripe means the plan split a rack's partial sum.  RR plans
  // compute only on the replacement, so they pass vacuously.  A stripe
  // whose rows are not contiguous is checked as one group: its runs are
  // visited in stripe order (already the case for every builder arena).
  std::vector<std::size_t> order(runs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto by_stripe = [&runs](std::size_t a, std::size_t b) {
    return runs[a].stripe < runs[b].stripe;
  };
  if (!std::is_sorted(order.begin(), order.end(), by_stripe)) {
    std::stable_sort(order.begin(), order.end(), by_stripe);
  }
  std::vector<std::pair<cluster::RackId, cluster::NodeId>> aggregators;
  for (std::size_t g = 0; g < order.size();) {
    const cluster::StripeId stripe = runs[order[g]].stripe;
    aggregators.clear();
    for (; g < order.size() && runs[order[g]].stripe == stripe; ++g) {
      for (std::uint64_t row = runs[order[g]].begin; row < runs[order[g]].end;
           ++row) {
        if (arena.kind(row) != StepKind::kCompute) continue;
        const cluster::NodeId node = arena.node(row);
        if (node == arena.replacement()) continue;
        if (node >= topology.num_nodes()) continue;  // already reported
        aggregators.emplace_back(topology.rack_of(node), node);
      }
    }
    std::sort(aggregators.begin(), aggregators.end());
    aggregators.erase(std::unique(aggregators.begin(), aggregators.end()),
                      aggregators.end());
    for (std::size_t i = 0; i < aggregators.size();) {
      std::size_t j = i;
      while (j < aggregators.size() &&
             aggregators[j].first == aggregators[i].first) {
        ++j;
      }
      if (j - i > 1) {
        error("stripe " + std::to_string(stripe) + ": rack " +
              std::to_string(aggregators[i].first) + " has " +
              std::to_string(j - i) +
              " aggregator nodes, expected exactly one");
      }
      i = j;
    }
  }

  // --- cross-rack traffic vs the planner's claim --------------------------
  if (options.expected_cross_rack_chunks.has_value() &&
      arena.chunk_size() > 0) {
    const std::uint64_t expected =
        *options.expected_cross_rack_chunks * arena.chunk_size();
    const std::uint64_t actual = arena.cross_rack_bytes();
    if (actual != expected) {
      error("cross-rack bytes " + std::to_string(actual) +
            " do not match the planner's claim of " +
            std::to_string(*options.expected_cross_rack_chunks) +
            " chunk units (" + std::to_string(expected) + " bytes)");
    }
  }
}

}  // namespace

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& e : errors) os << "error: " << e << '\n';
  for (const auto& n : notes) os << "note: " << n << '\n';
  return os.str();
}

ValidationReport validate_arena(const PlanArena& arena,
                                const cluster::Topology& topology,
                                const ValidateOptions& options) {
  ValidationReport report;
  if (arena.num_base_steps() == 0) {
    if (!arena.outputs().empty()) {
      report.errors.push_back("plan has outputs but no steps");
    }
    return report;
  }
  check_rows(arena, topology, report);
  check_flow(arena, topology, options, report);
  return report;
}

ValidationReport validate_plan(const RecoveryPlan& plan,
                               const cluster::Topology& topology,
                               const ValidateOptions& options) {
  ValidationReport report;
  auto error = [&report](const std::string& message) {
    report.errors.push_back(message);
  };
  const std::size_t n = plan.steps.size();
  if (n == 0) {
    if (!plan.outputs.empty()) error("plan has outputs but no steps");
    return report;
  }
  if (plan.chunk_size == 0) {
    error("chunk_size must be > 0 for a non-empty plan");
  }

  // What PlanArena::build requires: dense ids, forward dependencies, and
  // the byte contract.  Each defect is reported here with the step's own
  // fields, since the arena cannot represent it.
  for (std::size_t i = 0; i < n; ++i) {
    const PlanStep& step = plan.steps[i];
    if (step.id != i) {
      error(step_label(step.id, step.kind, step.stripe) +
            ": id does not equal its index " + std::to_string(i));
    }
  }
  if (!report.ok()) return report;  // dependency ids mean nothing yet
  for (const PlanStep& step : plan.steps) {
    const std::string label = step_label(step.id, step.kind, step.stripe);
    for (const std::size_t dep : step.deps) {
      if (dep >= n) {
        error(label + ": dangling dependency id " + std::to_string(dep));
      } else if (dep == step.id) {
        error(label + ": depends on itself");
      } else if (dep > step.id) {
        error(label + ": depends on later step " + std::to_string(dep) +
              " (a back edge, which a dependency cycle needs; executors run "
              "steps in id order)");
      }
    }
    const std::uint64_t expected =
        step.kind == StepKind::kTransfer
            ? plan.chunk_size
            : plan.chunk_size * step.inputs.size();
    if (step.bytes != expected) {
      error(label +
            (step.kind == StepKind::kTransfer
                 ? ": transfer moves " + std::to_string(step.bytes) +
                       " bytes, expected chunk_size " +
                       std::to_string(plan.chunk_size)
                 : ": compute touches " + std::to_string(step.bytes) +
                       " bytes, expected chunk_size * " +
                       std::to_string(step.inputs.size())));
    }
  }
  if (!report.ok()) {
    report.notes.push_back(
        "remaining checks skipped: the plan cannot be lowered to an arena");
    return report;
  }

  try {
    return validate_arena(PlanArena::build(plan, plan.chunk_size), topology,
                          options);
  } catch (const std::exception& e) {
    error(std::string("the plan cannot be lowered to an arena: ") + e.what());
    return report;
  }
}

std::uint64_t claimed_cross_rack_chunks(
    std::span<const MultiStripeSolution> solutions,
    cluster::RackId replacement_rack) {
  std::uint64_t total = 0;
  for (const MultiStripeSolution& solution : solutions) {
    std::uint64_t racks = 0;
    for (const cluster::RackId rack : solution.rack_set.racks) {
      racks += rack != replacement_rack;
    }
    total += racks * solution.lost_chunks.size();
  }
  return total;
}

}  // namespace car::recovery
