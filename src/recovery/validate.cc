#include "recovery/validate.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <queue>
#include <set>
#include <sstream>
#include <unordered_map>

#include "util/check.h"

namespace car::recovery {

namespace {

std::string step_label(const PlanStep& step) {
  std::ostringstream os;
  os << "step " << step.id
     << (step.kind == StepKind::kTransfer ? " (transfer" : " (compute")
     << ", stripe " << step.stripe << ')';
  return os.str();
}

/// Buffers are identified by (kind, stripe, chunk_index / step_id); a plan
/// may reference the same buffer on several nodes as transfers copy it.
struct BufferKey {
  bool is_step = false;
  cluster::StripeId stripe = 0;
  std::uint64_t index = 0;  // chunk_index or step_id

  static BufferKey of(const BufferRef& ref) {
    if (ref.kind == BufferRef::Kind::kStepOutput) {
      return {true, 0, ref.step_id};
    }
    return {false, ref.stripe, ref.chunk_index};
  }
  friend auto operator<=>(const BufferKey&, const BufferKey&) = default;
};

std::string buffer_label(const BufferKey& key) {
  std::ostringstream os;
  if (key.is_step) {
    os << "output of step " << key.index;
  } else {
    os << "chunk (stripe " << key.stripe << ", index " << key.index << ')';
  }
  return os.str();
}

/// Grow-only ancestor bitsets over the dependency DAG, filled in topological
/// order: ancestors(s) = union over deps d of ancestors(d) ∪ {d}.
class AncestorSets {
 public:
  explicit AncestorSets(std::size_t n)
      : n_(n), words_((n + 63) / 64), bits_(n_ * words_, 0) {}

  void absorb(std::size_t step, std::size_t dep) {
    std::uint64_t* mine = row(step);
    const std::uint64_t* theirs = row(dep);
    for (std::size_t w = 0; w < words_; ++w) mine[w] |= theirs[w];
    mine[dep / 64] |= 1ULL << (dep % 64);
  }

  [[nodiscard]] bool contains(std::size_t step, std::size_t maybe_ancestor)
      const {
    return (row(step)[maybe_ancestor / 64] >>
            (maybe_ancestor % 64)) & 1ULL;
  }

 private:
  std::uint64_t* row(std::size_t step) { return bits_.data() + step * words_; }
  [[nodiscard]] const std::uint64_t* row(std::size_t step) const {
    return bits_.data() + step * words_;
  }

  std::size_t n_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  for (const auto& e : errors) os << "error: " << e << '\n';
  for (const auto& n : notes) os << "note: " << n << '\n';
  return os.str();
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
    if (!plan.outputs.empty()) {
      error("plan has outputs but no steps");
    }
    return report;
  }
  if (plan.chunk_size == 0) {
    error("chunk_size must be > 0 for a non-empty plan");
  }
  if (plan.replacement >= topology.num_nodes()) {
    error("replacement node id out of range");
  } else if (topology.rack_of(plan.replacement) != plan.replacement_rack) {
    error("replacement_rack does not match the replacement node's rack");
  }

  // --- per-step structural checks -----------------------------------------
  bool ids_dense = true;
  for (std::size_t i = 0; i < n; ++i) {
    const PlanStep& step = plan.steps[i];
    if (step.id != i) {
      error(step_label(step) + ": id does not equal its index " +
            std::to_string(i));
      ids_dense = false;
    }
  }
  if (!ids_dense) {
    // Dependency ids are meaningless without dense ids; stop here.
    return report;
  }

  bool deps_ok = true;
  for (const PlanStep& step : plan.steps) {
    for (const std::size_t dep : step.deps) {
      if (dep >= n) {
        error(step_label(step) + ": dangling dependency id " +
              std::to_string(dep));
        deps_ok = false;
      } else if (dep == step.id) {
        error(step_label(step) + ": depends on itself");
        deps_ok = false;
      }
    }
    if (step.kind == StepKind::kTransfer) {
      if (step.src >= topology.num_nodes() ||
          step.dst >= topology.num_nodes()) {
        error(step_label(step) + ": node id out of range");
        continue;
      }
      if (step.bytes != plan.chunk_size) {
        error(step_label(step) + ": transfer moves " +
              std::to_string(step.bytes) + " bytes, expected chunk_size " +
              std::to_string(plan.chunk_size));
      }
      const bool crosses =
          topology.rack_of(step.src) != topology.rack_of(step.dst);
      if (step.cross_rack != crosses) {
        error(step_label(step) + ": cross_rack flag is " +
              (step.cross_rack ? "true" : "false") +
              " but the endpoints say otherwise");
      }
    } else {
      if (step.node >= topology.num_nodes()) {
        error(step_label(step) + ": node id out of range");
        continue;
      }
      if (step.inputs.empty()) {
        error(step_label(step) + ": compute has no inputs");
        continue;
      }
      if (step.bytes != plan.chunk_size * step.inputs.size()) {
        error(step_label(step) + ": compute touches " +
              std::to_string(step.bytes) + " bytes, expected chunk_size * " +
              std::to_string(step.inputs.size()));
      }
      for (const ComputeInput& in : step.inputs) {
        if (in.buffer.kind != BufferRef::Kind::kStepOutput) continue;
        if (in.buffer.step_id >= n) {
          error(step_label(step) + ": input references unknown step " +
                std::to_string(in.buffer.step_id));
        } else if (plan.steps[in.buffer.step_id].kind != StepKind::kCompute) {
          error(step_label(step) + ": input references step " +
                std::to_string(in.buffer.step_id) +
                " which is not a compute step");
        }
      }
    }
  }

  // --- outputs ------------------------------------------------------------
  std::set<std::pair<cluster::StripeId, std::size_t>> seen_outputs;
  for (const RecoveryPlan::Output& out : plan.outputs) {
    if (out.step_id >= n) {
      error("output for stripe " + std::to_string(out.stripe) +
            " references unknown step " + std::to_string(out.step_id));
      continue;
    }
    if (plan.steps[out.step_id].kind != StepKind::kCompute) {
      error("output for stripe " + std::to_string(out.stripe) +
            " references step " + std::to_string(out.step_id) +
            " which is not a compute step");
    }
    if (!seen_outputs.emplace(out.stripe, out.chunk_index).second) {
      error("duplicate output for stripe " + std::to_string(out.stripe) +
            ", chunk " + std::to_string(out.chunk_index));
    }
  }

  // --- cycle detection (Kahn) ---------------------------------------------
  std::vector<std::size_t> topo_order;
  bool acyclic = false;
  if (deps_ok) {
    std::vector<std::size_t> indegree(n, 0);
    std::vector<std::vector<std::size_t>> dependents(n);
    for (const PlanStep& step : plan.steps) {
      indegree[step.id] = step.deps.size();
      for (const std::size_t dep : step.deps) {
        dependents[dep].push_back(step.id);
      }
    }
    std::queue<std::size_t> ready;
    for (std::size_t i = 0; i < n; ++i) {
      if (indegree[i] == 0) ready.push(i);
    }
    topo_order.reserve(n);
    while (!ready.empty()) {
      const std::size_t id = ready.front();
      ready.pop();
      topo_order.push_back(id);
      for (const std::size_t next : dependents[id]) {
        if (--indegree[next] == 0) ready.push(next);
      }
    }
    acyclic = topo_order.size() == n;
    if (!acyclic) {
      std::ostringstream os;
      os << "dependency cycle involving steps {";
      bool first = true;
      for (std::size_t i = 0; i < n && os.tellp() < 120; ++i) {
        if (indegree[i] == 0) continue;
        os << (first ? "" : ", ") << i;
        first = false;
      }
      os << '}';
      error(os.str());
    }
  }

  // --- data-flow analysis --------------------------------------------------
  // Walk steps in topological order; a buffer is usable by a step only when
  // the step that placed it on the node (a transfer in, a local compute, or
  // the initial placement for chunks) is a dependency ancestor — otherwise
  // the DAG permits an execution order where the step runs first.
  if (options.placement == nullptr) {
    report.notes.push_back(
        "data-flow checks skipped: no placement supplied");
  } else if (!acyclic || !deps_ok) {
    report.notes.push_back(
        "data-flow checks skipped: dependency graph is malformed");
  } else if (n > options.max_flow_analysis_steps) {
    report.notes.push_back(
        "data-flow checks skipped: plan exceeds max_flow_analysis_steps");
  } else {
    const cluster::Placement& placement = *options.placement;
    AncestorSets ancestors(n);
    // producers[(key, node)] -> steps that place the buffer on the node.
    std::map<std::pair<BufferKey, cluster::NodeId>, std::vector<std::size_t>>
        producers;

    auto initially_home = [&](const BufferKey& key,
                              cluster::NodeId node) -> bool {
      if (key.is_step) return false;
      if (key.stripe >= placement.num_stripes()) return false;
      const auto& stripe = placement.stripe(key.stripe);
      return key.index < stripe.size() && stripe[key.index] == node;
    };

    auto available = [&](std::size_t step_id, const BufferKey& key,
                         cluster::NodeId node) -> bool {
      if (initially_home(key, node)) return true;
      const auto it = producers.find({key, node});
      if (it == producers.end()) return false;
      return std::any_of(
          it->second.begin(), it->second.end(),
          [&](std::size_t p) { return ancestors.contains(step_id, p); });
    };

    for (const std::size_t id : topo_order) {
      const PlanStep& step = plan.steps[id];
      for (const std::size_t dep : step.deps) ancestors.absorb(id, dep);

      if (step.kind == StepKind::kTransfer) {
        const BufferKey key = BufferKey::of(step.payload);
        if (!key.is_step && key.stripe >= placement.num_stripes()) {
          error(step_label(step) + ": payload stripe out of range");
          continue;
        }
        if (!available(id, key, step.src)) {
          error(step_label(step) + ": payload " + buffer_label(key) +
                " is not on source node " + std::to_string(step.src) +
                " when the step may run");
        }
        producers[{key, step.dst}].push_back(id);
      } else {
        for (const ComputeInput& in : step.inputs) {
          const BufferKey key = BufferKey::of(in.buffer);
          if (!available(id, key, step.node)) {
            error(step_label(step) + ": input " + buffer_label(key) +
                  " is not on node " + std::to_string(step.node) +
                  " when the step may run");
          }
        }
        producers[{BufferKey{true, 0, id}, step.node}].push_back(id);
      }
    }

    // Every declared output must end up on the replacement node.
    for (const RecoveryPlan::Output& out : plan.outputs) {
      if (out.step_id >= n) continue;  // already reported
      const BufferKey key{true, 0, out.step_id};
      if (!initially_home(key, plan.replacement) &&
          producers.find({key, plan.replacement}) == producers.end()) {
        error("output for stripe " + std::to_string(out.stripe) + ", chunk " +
              std::to_string(out.chunk_index) + " (step " +
              std::to_string(out.step_id) +
              ") never reaches the replacement node");
      }
    }
  }

  // --- one aggregator per rack per stripe ---------------------------------
  // CAR's partial decoding funnels each contributing rack through a single
  // aggregator; two distinct non-replacement compute nodes in one rack for
  // the same stripe means the plan split a rack's partial sum.  RR plans
  // compute only on the replacement, so they pass vacuously.
  std::map<std::pair<cluster::StripeId, cluster::RackId>,
           std::set<cluster::NodeId>>
      aggregators;
  for (const PlanStep& step : plan.steps) {
    if (step.kind != StepKind::kCompute) continue;
    if (step.node == plan.replacement) continue;
    if (step.node >= topology.num_nodes()) continue;  // already reported
    aggregators[{step.stripe, topology.rack_of(step.node)}].insert(step.node);
  }
  for (const auto& [key, nodes] : aggregators) {
    if (nodes.size() > 1) {
      error("stripe " + std::to_string(key.first) + ": rack " +
            std::to_string(key.second) + " has " +
            std::to_string(nodes.size()) +
            " aggregator nodes, expected exactly one");
    }
  }

  // --- cross-rack traffic vs the planner's claim --------------------------
  if (options.expected_cross_rack_chunks.has_value() &&
      plan.chunk_size > 0) {
    const std::uint64_t expected =
        *options.expected_cross_rack_chunks * plan.chunk_size;
    const std::uint64_t actual = plan.cross_rack_bytes();
    if (actual != expected) {
      error("cross-rack bytes " + std::to_string(actual) +
            " do not match the planner's claim of " +
            std::to_string(*options.expected_cross_rack_chunks) +
            " chunk units (" + std::to_string(expected) + " bytes)");
    }
  }

  return report;
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
