#include "recovery/plan_template.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace car::recovery {

namespace {

constexpr char kCarTag = 'C';
constexpr char kRrTag = 'R';

void append_token(std::string& key, std::size_t value) {
  CAR_CHECK_LT(value, std::size_t{255},
               "PlanTemplateCache: signature token exceeds one byte");
  key.push_back(static_cast<char>(value));
}

/// CAR signature: lost count plus the pick size sequence.  Neither chunk
/// indices nor rack/node identity appear — see plan_template.h.
void build_car_key(std::string& key, const MultiStripeSolution& solution) {
  key.clear();
  key.push_back(kCarTag);
  append_token(key, solution.lost_chunks.size());
  append_token(key, solution.picks.size());
  for (const PickRange& pick : solution.picks) append_token(key, pick.count);
}

/// RR signature: lost count, fetch count, and the mask of fetch positions
/// already hosted on the replacement (they skip their transfer, which
/// changes the step topology).
void build_rr_key(std::string& key, std::size_t num_lost,
                  std::size_t num_chunks, std::uint64_t skip_position_mask) {
  key.clear();
  key.push_back(kRrTag);
  append_token(key, num_lost);
  append_token(key, num_chunks);
  for (std::size_t b = 0; b < 8; ++b) {
    key.push_back(static_cast<char>((skip_position_mask >> (8 * b)) & 0xFF));
  }
}

/// Fill a finished template's local reverse-dependency CSR (same counting
/// sort as PlanArena::build_reverse_deps, but it runs once per signature
/// instead of once per arena).
void seal_template(PlanTemplate& tmpl) {
  const std::size_t n = tmpl.steps.size();
  tmpl.rdep_off.assign(n + 1, 0);
  for (const TemplateStep& ts : tmpl.steps) {
    for (const std::uint32_t dep : ts.deps) ++tmpl.rdep_off[dep + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    tmpl.rdep_off[i + 1] += tmpl.rdep_off[i];
  }
  tmpl.rdep_entries.resize(tmpl.num_deps);
  std::vector<std::uint32_t> cursor(tmpl.rdep_off.begin(),
                                    tmpl.rdep_off.end() - 1);
  for (std::size_t step = 0; step < n; ++step) {
    for (const std::uint32_t dep : tmpl.steps[step].deps) {
      tmpl.rdep_entries[cursor[dep]++] = static_cast<std::uint32_t>(step);
    }
  }
}

/// The CAR repair of one stripe, with survivor positions as symbols: per
/// pick, gathers onto its aggregator, one partial per lost chunk and its
/// ship to the replacement; then one final sum per lost chunk.
PlanTemplate build_car_template(std::size_t num_lost,
                                std::span<const std::size_t> pick_sizes) {
  PlanTemplate tmpl;
  auto add_step = [&tmpl](TemplateStep step) {
    tmpl.num_deps += step.deps.size();
    tmpl.num_inputs += step.inputs.size();
    tmpl.steps.push_back(std::move(step));
    return static_cast<std::uint32_t>(tmpl.steps.size() - 1);
  };

  std::vector<std::vector<TemplateStep::Input>> final_inputs(num_lost);
  std::vector<std::vector<std::uint32_t>> final_deps(num_lost);

  std::size_t position = 0;
  for (const std::size_t pick_size : pick_sizes) {
    // The aggregator hosts the pick's first survivor; every other pick
    // survivor lives on a different node (placement invariant), so each
    // needs a gather transfer.
    const auto aggregator_sym = static_cast<std::uint32_t>(position);
    std::vector<std::uint32_t> gather_deps;
    for (std::size_t i = 1; i < pick_size; ++i) {
      TemplateStep gather;
      gather.kind = StepKind::kTransfer;
      gather.src_sym = static_cast<std::uint32_t>(position + i);
      gather.dst_sym = aggregator_sym;
      gather.payload_is_step = false;
      gather.payload_ref = static_cast<std::uint32_t>(position + i);
      gather_deps.push_back(add_step(std::move(gather)));
    }
    for (std::size_t l = 0; l < num_lost; ++l) {
      TemplateStep partial;
      partial.kind = StepKind::kCompute;
      partial.src_sym = aggregator_sym;
      partial.coeff_lost = static_cast<std::uint32_t>(l);
      partial.inputs.reserve(pick_size);
      for (std::size_t i = 0; i < pick_size; ++i) {
        partial.inputs.push_back(
            {false, static_cast<std::uint32_t>(position + i)});
      }
      partial.deps = gather_deps;
      const std::uint32_t partial_id = add_step(std::move(partial));

      TemplateStep ship;
      ship.kind = StepKind::kTransfer;
      ship.src_sym = aggregator_sym;
      ship.dst_sym = TemplateStep::kReplacementSym;
      ship.payload_is_step = true;
      ship.payload_ref = partial_id;
      ship.deps = {partial_id};
      const std::uint32_t ship_id = add_step(std::move(ship));

      final_inputs[l].push_back({true, partial_id});
      final_deps[l].push_back(ship_id);
    }
    position += pick_size;
  }

  for (std::size_t l = 0; l < num_lost; ++l) {
    TemplateStep final_step;
    final_step.kind = StepKind::kCompute;
    final_step.src_sym = TemplateStep::kReplacementSym;
    final_step.inputs = std::move(final_inputs[l]);
    final_step.deps = std::move(final_deps[l]);
    const std::uint32_t final_id = add_step(std::move(final_step));
    tmpl.outputs.push_back({static_cast<std::uint32_t>(l), final_id});
  }
  seal_template(tmpl);
  return tmpl;
}

/// The RR repair of one stripe: fetch every survivor the replacement does
/// not already host, then decode each lost chunk there.
PlanTemplate build_rr_template(std::size_t num_lost, std::size_t num_chunks,
                               std::uint64_t skip_position_mask) {
  PlanTemplate tmpl;
  auto add_step = [&tmpl](TemplateStep step) {
    tmpl.num_deps += step.deps.size();
    tmpl.num_inputs += step.inputs.size();
    tmpl.steps.push_back(std::move(step));
    return static_cast<std::uint32_t>(tmpl.steps.size() - 1);
  };

  std::vector<std::uint32_t> deps;
  for (std::size_t pos = 0; pos < num_chunks; ++pos) {
    if (((skip_position_mask >> pos) & 1) != 0) continue;
    TemplateStep fetch;
    fetch.kind = StepKind::kTransfer;
    fetch.src_sym = static_cast<std::uint32_t>(pos);
    fetch.dst_sym = TemplateStep::kReplacementSym;
    fetch.payload_is_step = false;
    fetch.payload_ref = static_cast<std::uint32_t>(pos);
    deps.push_back(add_step(std::move(fetch)));
  }
  for (std::size_t l = 0; l < num_lost; ++l) {
    TemplateStep decode;
    decode.kind = StepKind::kCompute;
    decode.src_sym = TemplateStep::kReplacementSym;
    decode.coeff_lost = static_cast<std::uint32_t>(l);
    decode.inputs.reserve(num_chunks);
    for (std::size_t pos = 0; pos < num_chunks; ++pos) {
      decode.inputs.push_back({false, static_cast<std::uint32_t>(pos)});
    }
    decode.deps = deps;
    const std::uint32_t decode_id = add_step(std::move(decode));
    tmpl.outputs.push_back({static_cast<std::uint32_t>(l), decode_id});
  }
  seal_template(tmpl);
  return tmpl;
}

std::uint64_t skip_mask(const cluster::Placement& placement,
                        const MultiRrSolution& solution,
                        cluster::NodeId replacement) {
  std::uint64_t mask = 0;
  const auto hosts = placement.stripe(solution.stripe);
  for (std::size_t pos = 0; pos < solution.chunk_indices.size(); ++pos) {
    if (hosts[solution.chunk_indices[pos]] != replacement) {
      continue;
    }
    CAR_CHECK_LT(pos, std::size_t{64},
                 "plan_template: fetch position does not fit the 64-bit RR "
                 "signature mask");
    mask |= std::uint64_t{1} << pos;
  }
  return mask;
}

/// Per-stripe instantiation scratch, reused across every stripe of a
/// build_multi_*_plan / build_multi_*_arena call.
struct BindingScratch {
  std::vector<std::span<const std::uint8_t>> coeffs;

  StripeBinding bind_car(const rs::Code& code,
                         const MultiStripeSolution& solution,
                         RepairMemo& memo) {
    coeffs.clear();
    for (const std::size_t lost : solution.lost_chunks) {
      coeffs.push_back(memo.coeffs(code, lost, solution.chunks));
    }
    return {solution.stripe, solution.chunks, solution.lost_chunks, coeffs};
  }

  StripeBinding bind_rr(const rs::Code& code, const MultiRrSolution& solution,
                        RepairMemo& memo) {
    coeffs.clear();
    for (const std::size_t lost : solution.lost_chunks) {
      coeffs.push_back(memo.coeffs(code, lost, solution.chunk_indices));
    }
    return {solution.stripe, solution.chunk_indices, solution.lost_chunks,
            coeffs};
  }
};

}  // namespace

const PlanTemplate& PlanTemplateCache::car(
    const MultiStripeSolution& solution) {
  build_car_key(scratch_, solution);
  if (cache_.empty()) cache_.reserve(256);
  const auto it = cache_.find(std::string_view(scratch_));
  if (it != cache_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  std::vector<std::size_t> pick_sizes;
  pick_sizes.reserve(solution.picks.size());
  for (const PickRange& pick : solution.picks) {
    pick_sizes.push_back(pick.count);
  }
  return cache_
      .emplace(scratch_,
               build_car_template(solution.lost_chunks.size(), pick_sizes))
      .first->second;
}

const PlanTemplate& PlanTemplateCache::rr(std::size_t num_lost,
                                          std::size_t num_chunks,
                                          std::uint64_t skip_position_mask) {
  build_rr_key(scratch_, num_lost, num_chunks, skip_position_mask);
  if (cache_.empty()) cache_.reserve(256);
  const auto it = cache_.find(std::string_view(scratch_));
  if (it != cache_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  return cache_
      .emplace(scratch_,
               build_rr_template(num_lost, num_chunks, skip_position_mask))
      .first->second;
}

namespace {

/// Append one instantiated template to the plan `builder` holds, through
/// PlanBuilder's per-step checks.
void append_instantiated(PlanBuilder& builder, const PlanTemplate& tmpl,
                         const StripeBinding& binding,
                         const cluster::Placement& placement) {
  const cluster::StripeId stripe = binding.stripe;
  const auto hosts = placement.stripe(stripe);
  const std::size_t base = builder.plan.steps.size();
  auto resolve = [&](std::uint32_t sym) {
    return sym == TemplateStep::kReplacementSym
               ? builder.plan.replacement
               : hosts[binding.survivors[sym]];
  };
  auto chunk = [&](std::uint32_t position) {
    return BufferRef::chunk(stripe, binding.survivors[position]);
  };
  for (const TemplateStep& ts : tmpl.steps) {
    std::vector<std::size_t> deps;
    deps.reserve(ts.deps.size());
    for (const std::uint32_t dep : ts.deps) deps.push_back(base + dep);
    if (ts.kind == StepKind::kTransfer) {
      builder.add_transfer(stripe, resolve(ts.src_sym), resolve(ts.dst_sym),
                           ts.payload_is_step
                               ? BufferRef::step(base + ts.payload_ref)
                               : chunk(ts.payload_ref),
                           std::move(deps));
    } else {
      std::vector<ComputeInput> inputs;
      inputs.reserve(ts.inputs.size());
      for (const TemplateStep::Input& in : ts.inputs) {
        if (in.is_step) {
          inputs.push_back({BufferRef::step(base + in.ref), 1});
        } else {
          inputs.push_back(
              {chunk(in.ref),
               binding.coeffs[ts.coeff_lost][binding.survivors[in.ref]]});
        }
      }
      builder.add_compute(stripe, resolve(ts.src_sym), std::move(inputs),
                          std::move(deps));
    }
  }
  for (const PlanTemplate::Output& out : tmpl.outputs) {
    builder.plan.outputs.push_back(
        {stripe, binding.lost_chunks[out.lost_pos], base + out.final_step});
  }
}

PlanBuilder plan_builder(const cluster::Placement& placement,
                         std::uint64_t chunk_size,
                         cluster::NodeId replacement, const char* who) {
  CAR_CHECK(chunk_size > 0, std::string(who) + ": chunk_size must be > 0");
  const auto& topology = placement.topology();
  PlanBuilder builder{{}, topology};
  builder.plan.replacement = replacement;
  builder.plan.replacement_rack = topology.rack_of(replacement);
  builder.plan.chunk_size = chunk_size;
  return builder;
}

}  // namespace

RecoveryPlan build_multi_car_plan(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    cluster::NodeId replacement) {
  PlanBuilder builder = plan_builder(placement, chunk_size, replacement,
                                     "build_multi_car_plan");
  PlanTemplateCache cache;
  BindingScratch scratch;
  for (const MultiStripeSolution& solution : solutions) {
    const PlanTemplate& tmpl = cache.car(solution);
    append_instantiated(builder, tmpl,
                        scratch.bind_car(code, solution, cache.repair_memo()),
                        placement);
  }
  return std::move(builder.plan);
}

RecoveryPlan build_multi_rr_plan(const cluster::Placement& placement,
                                 const rs::Code& code,
                                 std::span<const MultiRrSolution> solutions,
                                 std::uint64_t chunk_size,
                                 cluster::NodeId replacement) {
  PlanBuilder builder = plan_builder(placement, chunk_size, replacement,
                                     "build_multi_rr_plan");
  PlanTemplateCache cache;
  BindingScratch scratch;
  for (const MultiRrSolution& solution : solutions) {
    const PlanTemplate& tmpl =
        cache.rr(solution.lost_chunks.size(), solution.chunk_indices.size(),
                 skip_mask(placement, solution, replacement));
    append_instantiated(builder, tmpl,
                        scratch.bind_rr(code, solution, cache.repair_memo()),
                        placement);
  }
  return std::move(builder.plan);
}

// --- arena instantiation (defined here so plan_arena.cc need not know the
// template types; PlanArena declares this member in its own header) -------

namespace {

/// Geometric exact-extent growth for the unreserved append path: small
/// callers (tests, single-stripe experiments) append without a reserve()
/// pass, and per-append exact resizes would reallocate every call.
template <typename Vec>
void grow_column(Vec& vec, std::size_t add) {
  const std::size_t need = vec.size() + add;
  if (vec.capacity() < need) vec.reserve(std::max(need, vec.size() * 2));
  vec.resize(need);
}

}  // namespace

void PlanArena::append_instantiated(const PlanTemplate& tmpl,
                                    const StripeBinding& binding,
                                    const cluster::Placement& placement) {
  const auto& topology = placement.topology();
  const cluster::StripeId stripe = binding.stripe;
  const auto hosts = placement.stripe(stripe);
  const std::uint64_t base = cur_steps_;
  const std::size_t nsteps = tmpl.steps.size();
  if (!sized_) {
    grow_column(flags_, nsteps);
    grow_column(stripe_, nsteps);
    grow_column(endpoint_a_, nsteps);
    grow_column(endpoint_b_, nsteps);
    grow_column(payload_a_, nsteps);
    grow_column(payload_b_, nsteps);
    grow_column(dep_off_, nsteps);
    grow_column(in_off_, nsteps);
    grow_column(dep_entries_, tmpl.num_deps);
    grow_column(rdep_off_, nsteps);
    grow_column(rdep_entries_, tmpl.num_deps);
    grow_column(in_ref_a_, tmpl.num_inputs);
    grow_column(in_ref_b_, tmpl.num_inputs);
    grow_column(in_coeff_, tmpl.num_inputs);
    grow_column(outputs_, tmpl.outputs.size());
  }
  CAR_CHECK(base + nsteps <= flags_.size() &&
                cur_deps_ + tmpl.num_deps <= dep_entries_.size() &&
                cur_inputs_ + tmpl.num_inputs <= in_ref_a_.size() &&
                cur_outputs_ + tmpl.outputs.size() <= outputs_.size(),
            "PlanArena::append_instantiated: reserve() undercounted the "
            "column extents");
  auto resolve = [&](std::uint32_t sym) {
    return sym == TemplateStep::kReplacementSym
               ? replacement_
               : hosts[binding.survivors[sym]];
  };
  // Raw cursor writes into the pre-sized columns: this loop runs once per
  // affected stripe at million-stripe scale, and per-element push_back
  // capacity checks across nine columns were the dominant build cost.
  std::uint8_t* const flags = flags_.data() + base;
  std::uint64_t* const stripes = stripe_.data() + base;
  std::uint32_t* const src_col = endpoint_a_.data() + base;
  std::uint32_t* const dst_col = endpoint_b_.data() + base;
  std::uint64_t* const pay_a = payload_a_.data() + base;
  std::uint32_t* const pay_b = payload_b_.data() + base;
  std::uint64_t* const dep_off = dep_off_.data() + base + 1;
  std::uint64_t* const in_off = in_off_.data() + base + 1;
  std::uint64_t* const deps = dep_entries_.data();
  std::uint64_t* const in_a = in_ref_a_.data();
  std::uint32_t* const in_b = in_ref_b_.data();
  std::uint8_t* const in_c = in_coeff_.data();
  std::uint64_t dep_at = cur_deps_;
  std::uint64_t in_at = cur_inputs_;
  for (std::size_t i = 0; i < nsteps; ++i) {
    const TemplateStep& ts = tmpl.steps[i];
    stripes[i] = static_cast<std::uint64_t>(stripe);
    if (ts.kind == StepKind::kTransfer) {
      const cluster::NodeId src = resolve(ts.src_sym);
      const cluster::NodeId dst = resolve(ts.dst_sym);
      flags[i] = topology.rack_of(src) != topology.rack_of(dst)
                     ? kCrossRackFlag
                     : std::uint8_t{0};
      src_col[i] = static_cast<std::uint32_t>(src);
      dst_col[i] = static_cast<std::uint32_t>(dst);
      if (ts.payload_is_step) {
        pay_a[i] = base + ts.payload_ref;
        pay_b[i] = kStepRefBit;
      } else {
        pay_a[i] = static_cast<std::uint64_t>(stripe);
        pay_b[i] = static_cast<std::uint32_t>(binding.survivors[ts.payload_ref]);
      }
    } else {
      flags[i] = kComputeFlag;
      src_col[i] = static_cast<std::uint32_t>(resolve(ts.src_sym));
      dst_col[i] = 0;
      pay_a[i] = 0;
      pay_b[i] = 0;
    }
    for (const std::uint32_t dep : ts.deps) deps[dep_at++] = base + dep;
    dep_off[i] = dep_at;
    for (const TemplateStep::Input& in : ts.inputs) {
      if (in.is_step) {
        in_a[in_at] = base + in.ref;
        in_b[in_at] = kStepRefBit;
        in_c[in_at] = 1;
      } else {
        const std::size_t chunk = binding.survivors[in.ref];
        in_a[in_at] = static_cast<std::uint64_t>(stripe);
        in_b[in_at] = static_cast<std::uint32_t>(chunk);
        in_c[in_at] = binding.coeffs[ts.coeff_lost][chunk];
      }
      ++in_at;
    }
    in_off[i] = in_at;
  }
  // Reverse CSR straight from the template's local one: forward and
  // reverse edge totals are identical, so cur_deps_ doubles as the
  // reverse-entry cursor.
  std::uint64_t* const rdep_off = rdep_off_.data() + base + 1;
  std::uint64_t* const rdeps = rdep_entries_.data();
  for (std::size_t j = 0; j < tmpl.rdep_entries.size(); ++j) {
    rdeps[cur_deps_ + j] = base + tmpl.rdep_entries[j];
  }
  for (std::size_t i = 0; i < nsteps; ++i) {
    rdep_off[i] = cur_deps_ + tmpl.rdep_off[i + 1];
  }
  for (const PlanTemplate::Output& out : tmpl.outputs) {
    outputs_[cur_outputs_++] = {stripe, binding.lost_chunks[out.lost_pos],
                                static_cast<std::size_t>(base + out.final_step)};
  }
  cur_steps_ = base + nsteps;
  cur_deps_ = dep_at;
  cur_inputs_ = in_at;
  // Template deps are local to the instantiated stripe by construction, so
  // appending never breaks stripe closure.
}

namespace {

/// Shared reserve pass: resolve one template per solution (hitting the
/// warm cache) and size the arena columns to their exact final extents so
/// appends never reallocate — which is also what lets the streaming
/// executor attach to the arena before the first stripe lands.
template <typename Resolve>
ArenaStreamBuild reserve_arena(const cluster::Placement& placement,
                               std::size_t num_solutions,
                               std::uint64_t chunk_size,
                               std::uint64_t slice_size,
                               cluster::NodeId replacement,
                               Resolve&& resolve) {
  ArenaStreamBuild build;
  build.arena = PlanArena::create(
      replacement, placement.topology().rack_of(replacement), chunk_size,
      slice_size);
  build.templates.reserve(num_solutions);
  std::uint64_t steps = 0, deps = 0, inputs = 0, outputs = 0;
  for (std::size_t i = 0; i < num_solutions; ++i) {
    const PlanTemplate& tmpl = resolve(i);
    build.templates.push_back(&tmpl);
    steps += tmpl.steps.size();
    deps += tmpl.num_deps;
    inputs += tmpl.num_inputs;
    outputs += tmpl.outputs.size();
  }
  build.arena.reserve(steps, deps, inputs, outputs);
  return build;
}

/// Shared append pass: instantiate in solution order and publish the
/// stripe-closed row watermark after each append.
template <typename Bind>
void stream_arena(ArenaStreamBuild& build, std::size_t num_solutions,
                  const cluster::Placement& placement, Bind&& bind,
                  const std::function<void(std::uint64_t)>& publish) {
  CAR_CHECK(build.templates.size() == num_solutions,
            "stream_multi_*_arena: the reserve pass saw a different "
            "solution list");
  for (std::size_t i = 0; i < num_solutions; ++i) {
    build.arena.append_instantiated(*build.templates[i], bind(i), placement);
    if (publish) publish(build.arena.appended_base_steps());
  }
  build.arena.finalize();
}

}  // namespace

ArenaStreamBuild reserve_multi_car_arena(
    const cluster::Placement& placement,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache) {
  return reserve_arena(placement, solutions.size(), chunk_size, slice_size,
                       replacement,
                       [&](std::size_t i) -> const PlanTemplate& {
                         return cache.car(solutions[i]);
                       });
}

ArenaStreamBuild reserve_multi_rr_arena(
    const cluster::Placement& placement,
    std::span<const MultiRrSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache) {
  return reserve_arena(
      placement, solutions.size(), chunk_size, slice_size, replacement,
      [&](std::size_t i) -> const PlanTemplate& {
        return cache.rr(solutions[i].lost_chunks.size(),
                        solutions[i].chunk_indices.size(),
                        skip_mask(placement, solutions[i], replacement));
      });
}

void stream_multi_car_arena(
    ArenaStreamBuild& build, const cluster::Placement& placement,
    const rs::Code& code, std::span<const MultiStripeSolution> solutions,
    PlanTemplateCache& cache,
    const std::function<void(std::uint64_t)>& publish) {
  BindingScratch scratch;
  stream_arena(build, solutions.size(), placement,
               [&](std::size_t i) {
                 return scratch.bind_car(code, solutions[i],
                                         cache.repair_memo());
               },
               publish);
}

void stream_multi_rr_arena(
    ArenaStreamBuild& build, const cluster::Placement& placement,
    const rs::Code& code, std::span<const MultiRrSolution> solutions,
    PlanTemplateCache& cache,
    const std::function<void(std::uint64_t)>& publish) {
  BindingScratch scratch;
  stream_arena(build, solutions.size(), placement,
               [&](std::size_t i) {
                 return scratch.bind_rr(code, solutions[i],
                                        cache.repair_memo());
               },
               publish);
}

PlanArena build_multi_car_arena(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiStripeSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache) {
  ArenaStreamBuild build = reserve_multi_car_arena(
      placement, solutions, chunk_size, slice_size, replacement, cache);
  stream_multi_car_arena(build, placement, code, solutions, cache, {});
  return std::move(build.arena);
}

PlanArena build_multi_rr_arena(
    const cluster::Placement& placement, const rs::Code& code,
    std::span<const MultiRrSolution> solutions, std::uint64_t chunk_size,
    std::uint64_t slice_size, cluster::NodeId replacement,
    PlanTemplateCache& cache) {
  ArenaStreamBuild build = reserve_multi_rr_arena(
      placement, solutions, chunk_size, slice_size, replacement, cache);
  stream_multi_rr_arena(build, placement, code, solutions, cache, {});
  return std::move(build.arena);
}

}  // namespace car::recovery
