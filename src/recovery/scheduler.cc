#include "recovery/scheduler.h"

#include <algorithm>
#include <map>
#include <vector>

#include "util/check.h"

namespace car::recovery {

namespace {

/// Stripes in first-appearance order plus each stripe's first/last step ids.
struct StripeSpans {
  std::vector<cluster::StripeId> order;
  std::map<cluster::StripeId, std::pair<std::size_t, std::size_t>> span;
};

StripeSpans stripe_spans(const RecoveryPlan& plan) {
  StripeSpans out;
  for (const auto& step : plan.steps) {
    auto [it, inserted] =
        out.span.try_emplace(step.stripe, step.id, step.id);
    if (inserted) {
      out.order.push_back(step.stripe);
    } else {
      it->second.second = std::max(it->second.second, step.id);
    }
  }
  return out;
}

}  // namespace

RecoveryPlan schedule_windowed(const RecoveryPlan& plan, std::size_t window) {
  CAR_CHECK_GE(window, std::size_t{1}, "schedule_windowed");
  RecoveryPlan scheduled = plan;
  const auto spans = stripe_spans(plan);
  if (spans.order.size() <= window) return scheduled;

  // Lane l recovers stripes l, l+window, l+2*window, ...; each stripe's
  // root steps (those with no deps) additionally wait for the lane
  // predecessor's final step.
  for (std::size_t i = window; i < spans.order.size(); ++i) {
    const auto predecessor = spans.order[i - window];
    const auto current = spans.order[i];
    const std::size_t gate = spans.span.at(predecessor).second;
    const auto [first, last] = spans.span.at(current);
    for (std::size_t id = first; id <= last; ++id) {
      auto& step = scheduled.steps[id];
      if (step.stripe == current && step.deps.empty()) {
        step.deps.push_back(gate);
      }
    }
  }
  return scheduled;
}

std::size_t max_inflight_stripes(const RecoveryPlan& plan) {
  const auto spans = stripe_spans(plan);
  if (spans.order.empty()) return 0;

  // A stripe is "gated" when one of its steps depends on another stripe's
  // step; ungated stripes can all be in flight together, and each gated
  // stripe chains behind exactly one predecessor (lane structure), so the
  // bound is the number of ungated (lane-head) stripes.
  std::map<cluster::StripeId, bool> gated;
  for (const auto stripe : spans.order) gated[stripe] = false;
  for (const auto& step : plan.steps) {
    for (const std::size_t dep : step.deps) {
      if (plan.steps[dep].stripe != step.stripe) {
        gated[step.stripe] = true;
      }
    }
  }
  std::size_t heads = 0;
  for (const auto& [stripe, is_gated] : gated) heads += !is_gated;
  return heads;
}

}  // namespace car::recovery
