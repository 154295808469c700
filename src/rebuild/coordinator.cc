#include "rebuild/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "recovery/multi.h"
#include "util/check.h"

namespace car::rebuild {

namespace {

using inject::BatchDriver;
using inject::EventKind;
using inject::PublishedChunk;

/// Host seconds since `since` (planning-path instrumentation only; every
/// scheduling decision stays on the virtual clock).
double host_seconds_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

std::string join_nodes(const std::vector<cluster::NodeId>& nodes) {
  std::string out;
  for (const cluster::NodeId node : nodes) {
    if (!out.empty()) out += ' ';
    out += std::to_string(node);
  }
  return out;
}

}  // namespace

RebuildCoordinator::RebuildCoordinator(emul::Cluster& cluster,
                                       const cluster::Placement& placement,
                                       const rs::Code& code,
                                       RebuildOptions options)
    : cluster_(cluster),
      placement_(placement),
      code_(code),
      options_(std::move(options)),
      rr_rng_(options_.seed ^ 0x9e3779b97f4a7c15ULL) {}

RebuildResult RebuildCoordinator::run(std::span<const FailureEvent> events) {
  CAR_CHECK_STATE(!ran_, "RebuildCoordinator::run: one-shot — construct a "
                         "fresh coordinator per failure schedule");
  CAR_CHECK(!events.empty(), "RebuildCoordinator::run: no failure events");
  CAR_CHECK_GT(options_.batch_stripes, std::size_t{0},
               "RebuildCoordinator::run: batch_stripes must be >= 1");
  CAR_CHECK_GT(options_.max_inflight, std::size_t{0},
               "RebuildCoordinator::run: max_inflight must be >= 1");
  CAR_CHECK_GT(options_.chunk_bytes, std::uint64_t{0},
               "RebuildCoordinator::run: chunk_bytes must be > 0");
  const std::size_t num_nodes = placement_.topology().num_nodes();
  for (std::size_t i = 0; i < events.size(); ++i) {
    CAR_CHECK_LT(events[i].node, num_nodes,
                 "RebuildCoordinator::run: failure event names an unknown "
                 "node");
    // A non-finite time would put every later batch at t = inf, where the
    // calendar queue can never bucket an event (inf - inf is NaN).
    CAR_CHECK(std::isfinite(events[i].at_s),
              "RebuildCoordinator::run: failure event " + std::to_string(i) +
                  " has a non-finite time " + std::to_string(events[i].at_s));
    CAR_CHECK_GE(events[i].at_s, 0.0,
                 "RebuildCoordinator::run: failure time must be >= 0");
    if (i > 0) {
      CAR_CHECK_GE(events[i].at_s, events[i - 1].at_s,
                   "RebuildCoordinator::run: failure events must be "
                   "time-ordered");
      for (std::size_t j = 0; j < i; ++j) {
        CAR_CHECK_NE(events[i].node, events[j].node,
                     "RebuildCoordinator::run: a node cannot fail twice");
      }
    }
  }
  ran_ = true;

  replacement_ = events.front().node;
  const double t0 = cluster_.clock().now();

  BatchDriver driver(cluster_, options_.faults, options_.retry, options_.seed,
                     options_.data, result_.log);

  for (std::size_t i = 0; i < events.size(); ++i) {
    const FailureEvent& event = events[i];
    const double when = t0 + event.at_s;
    // Run whatever is in flight up to the instant the failure lands.
    pump(driver, when);
    driver.advance_to(when);

    std::string detail = "epoch " + std::to_string(i + 1) + ": node " +
                         std::to_string(event.node) + " down";
    if (i == 0) {
      cluster_.erase_node(event.node);
      const std::uint64_t generation =
          cluster_.add_replacement_guard(event.node);
      detail += " — designated replacement (slot wiped, guard generation " +
                std::to_string(generation) + ")";
    } else {
      // Satellite: dropping the guarded replacement — of any generation —
      // raises the cluster's CAR_CHECK diagnostic and aborts the run.
      cluster_.drop_node(event.node);
      detail += " — cancelling in-flight batches for re-plan";
    }
    result_.log.record(when, EventKind::kMembershipChange,
                       static_cast<std::int64_t>(i + 1), -1,
                       static_cast<std::int64_t>(event.node), 0, detail);
    failed_.push_back(event.node);

    const auto cancelled = driver.cancel_all();
    std::size_t requeued = 0;
    for (const inject::CancelledBatch& batch : cancelled) {
      const auto it = inflight_batches_.find(batch.batch);
      CAR_CHECK_STATE(it != inflight_batches_.end(),
                      "rebuild: cancelled batch was never dispatched");
      {
        util::MutexLock lock(state_mu_);
        for (const PublishedChunk& chunk : batch.published) {
          if (!recovered_.contains(chunk.stripe, chunk.chunk_index)) {
            recovered_.mark(chunk.stripe, chunk.chunk_index);
            result_.recovered.push_back(chunk);
          }
        }
        close_windows(it->second.stripes, when);
      }
      result_.batches[it->second.record_index].cancelled = true;
      ++result_.metrics.batches_cancelled;
      requeued += batch.unfinished_stripes.size();
      result_.log.record(
          when, EventKind::kBatchCancelled,
          static_cast<std::int64_t>(batch.batch), -1,
          static_cast<std::int64_t>(replacement_), 0,
          "batch " + std::to_string(batch.batch) + ": " +
              std::to_string(batch.published.size()) + " chunks salvaged, " +
              std::to_string(batch.unfinished_stripes.size()) +
              " stripes need re-planning");
      inflight_batches_.erase(it);
    }
    if (requeued > 0) {
      result_.metrics.stripes_requeued += requeued;
      result_.log.record(when, EventKind::kStripesRequeued,
                         static_cast<std::int64_t>(i + 1), -1, -1, 0,
                         std::to_string(requeued) + " stripes from " +
                             std::to_string(cancelled.size()) +
                             " cancelled batches re-enter the queue at "
                             "epoch " +
                             std::to_string(i + 1));
    }

    scan_epoch(i + 1);
  }

  pump(driver, std::nullopt);
  CAR_CHECK_STATE(queue_.empty() && driver.inflight() == 0,
                  "rebuild: run drained with work outstanding");
  {
    util::MutexLock lock(state_mu_);
    CAR_CHECK_STATE(exposure_since_.empty() && at_risk_since_.empty(),
                    "rebuild: exposure windows left open after the rebuild "
                    "completed");
  }

  result_.replacement = replacement_;
  result_.failed_nodes = failed_;
  result_.report = driver.report();
  result_.stats = driver.stats();
  result_.metrics.makespan_s = driver.now() - (t0 + events.front().at_s);
  result_.metrics.template_cache_hits = template_cache_.stats().hits;
  result_.metrics.template_cache_misses = template_cache_.stats().misses;
  std::sort(result_.recovered.begin(), result_.recovered.end(),
            [](const PublishedChunk& a, const PublishedChunk& b) {
              return a.stripe != b.stripe ? a.stripe < b.stripe
                                          : a.chunk_index < b.chunk_index;
            });
  result_.log.record(driver.now(), EventKind::kRunComplete, -1, -1,
                     static_cast<std::int64_t>(replacement_),
                     static_cast<std::uint64_t>(result_.recovered.size()) *
                         options_.chunk_bytes,
                     std::to_string(result_.recovered.size()) +
                         " chunks rebuilt across " +
                         std::to_string(result_.metrics.batches_dispatched) +
                         " batches, " + std::to_string(failed_.size()) +
                         " failures");
  return std::move(result_);
}

void RebuildCoordinator::scan_epoch(std::size_t epoch) {
  const double now = cluster_.clock().now();
  std::vector<recovery::StripeExposure> census;
  std::size_t at_risk = 0;
  {
    util::MutexLock lock(state_mu_);
    const auto scan_start = std::chrono::steady_clock::now();
    census = recovery::build_exposure_census(
        placement_, failed_, replacement_, recovered_, options_.scan_shards);
    result_.metrics.scan_host_s += host_seconds_since(scan_start);
    for (const recovery::StripeExposure& entry : census) {
      if (!entry.exposed_chunks.empty() &&
          !exposure_since_.contains(entry.stripe)) {
        exposure_since_.emplace(entry.stripe, now);
      }
      if (entry.tolerance_left == 0) {
        ++at_risk;
        if (!at_risk_since_.contains(entry.stripe)) {
          at_risk_since_.emplace(entry.stripe, now);
        }
      }
    }
  }
  ++result_.metrics.scans;
  result_.log.record(now, EventKind::kScanComplete,
                     static_cast<std::int64_t>(epoch), -1, -1, 0,
                     "epoch " + std::to_string(epoch) + ": " +
                         std::to_string(census.size()) +
                         " stripes need rebuild, " + std::to_string(at_risk) +
                         " at tier 0 (most-exposed)");
  queue_.reset(std::move(census));
}

bool RebuildCoordinator::dispatch_one(BatchDriver& driver) {
  const std::vector<recovery::StripeExposure> batch =
      queue_.pop_batch(options_.batch_stripes);
  if (batch.empty()) return false;
  // The queue is sorted most-exposed first and pop_batch keeps queue
  // order, so the head entry carries the batch's exposure tier.
  const std::size_t tier = batch.front().tolerance_left;
  const std::vector<cluster::NodeId>& signature = batch.front().plan_hosts;

  // `stripes` stays in queue order: close_windows sums floating-point
  // exposure windows in that order.  The census takes the same stripes
  // sorted, and costs O(batch) — never a scan of the whole placement.
  std::vector<cluster::StripeId> stripes;
  std::vector<PublishedChunk> outputs;
  for (const recovery::StripeExposure& entry : batch) {
    stripes.push_back(entry.stripe);
  }
  std::vector<cluster::StripeId> sorted = stripes;
  std::sort(sorted.begin(), sorted.end());

  const recovery::MultiFailureScenario scenario =
      recovery::make_multi_failure_onto(placement_, signature, replacement_);
  const auto scan_start = std::chrono::steady_clock::now();
  const std::vector<recovery::MultiStripeCensus> censuses =
      recovery::build_multi_censuses(placement_, scenario, sorted);
  result_.metrics.scan_host_s += host_seconds_since(scan_start);
  CAR_CHECK_STATE(censuses.size() == batch.size(),
                  "rebuild: batch scan census does not cover every queued "
                  "stripe of the batch signature");

  // Solve, lower straight into the batch's arena from the template cache,
  // and gate it with validate_arena (plan_multi_failure_arena): no arena
  // reaches the driver unchecked.
  const auto plan_start = std::chrono::steady_clock::now();
  recovery::PlanArena arena = recovery::plan_multi_failure_arena(
      placement_, code_, censuses, options_.strategy, options_.chunk_bytes,
      options_.slice_bytes > 0 ? options_.slice_bytes : options_.chunk_bytes,
      replacement_, rr_rng_, template_cache_);
  result_.metrics.plan_host_s += host_seconds_since(plan_start);

  for (const auto& out : arena.outputs()) {
    outputs.push_back({out.stripe, out.chunk_index});
  }

  const std::size_t id = next_batch_id_++;
  BatchRecord record;
  record.id = id;
  record.stripes = stripes.size();
  record.tier = tier;
  record.dispatched_at = driver.now();
  inflight_batches_[id] =
      DispatchedBatch{std::move(stripes), result_.batches.size(), {}};
  result_.batches.push_back(record);
  ++result_.metrics.batches_dispatched;

  result_.log.record(
      driver.now(), EventKind::kBatchDispatched,
      static_cast<std::int64_t>(id), -1,
      static_cast<std::int64_t>(replacement_),
      static_cast<std::uint64_t>(outputs.size()) * options_.chunk_bytes,
      "batch " + std::to_string(id) + ": " + std::to_string(record.stripes) +
          " stripes, tier " + std::to_string(tier) + ", signature [" +
          join_nodes(signature) + "], strategy " +
          to_string(options_.strategy) + ", " +
          std::to_string(arena.num_base_steps()) + " steps");
  driver.admit(id, std::move(arena));
  inflight_batches_[id].outputs = std::move(outputs);
  return true;
}

void RebuildCoordinator::pump(BatchDriver& driver,
                              std::optional<double> deadline) {
  while (true) {
    while (driver.inflight() < options_.max_inflight && dispatch_one(driver)) {
    }
    const inject::RunOutcome outcome = driver.run_until(deadline);
    if (outcome.stop == inject::StopReason::kDeadline) return;
    for (const std::size_t id : outcome.finished) {
      on_batch_complete(driver, id);
    }
    if (outcome.stop == inject::StopReason::kBatchDone) continue;
    if (queue_.empty()) return;  // kIdle with nothing left to dispatch
  }
}

void RebuildCoordinator::on_batch_complete(const BatchDriver& driver,
                                           std::size_t batch_id) {
  const auto it = inflight_batches_.find(batch_id);
  CAR_CHECK_STATE(it != inflight_batches_.end(),
                  "rebuild: completed batch was never dispatched");
  const DispatchedBatch& batch = it->second;
  const double now = driver.now();
  {
    util::MutexLock lock(state_mu_);
    for (const PublishedChunk& chunk : batch.outputs) {
      if (!recovered_.contains(chunk.stripe, chunk.chunk_index)) {
        recovered_.mark(chunk.stripe, chunk.chunk_index);
        result_.recovered.push_back(chunk);
      }
    }
    close_windows(batch.stripes, now);
  }
  result_.batches[batch.record_index].completed_at = now;
  result_.log.record(
      now, EventKind::kBatchComplete, static_cast<std::int64_t>(batch_id), -1,
      static_cast<std::int64_t>(replacement_),
      static_cast<std::uint64_t>(batch.outputs.size()) * options_.chunk_bytes,
      "batch " + std::to_string(batch_id) + ": " +
          std::to_string(batch.stripes.size()) + " stripes, " +
          std::to_string(batch.outputs.size()) + " chunks recovered");
  inflight_batches_.erase(it);
}

void RebuildCoordinator::close_windows(
    std::span<const cluster::StripeId> stripes, double now) {
  for (const cluster::StripeId stripe : stripes) {
    if (!stripe_recovered(stripe)) continue;
    if (const auto it = exposure_since_.find(stripe);
        it != exposure_since_.end()) {
      const double window = now - it->second;
      result_.metrics.total_exposure_s += window;
      result_.metrics.max_exposure_s =
          std::max(result_.metrics.max_exposure_s, window);
      exposure_since_.erase(it);
    }
    if (const auto it = at_risk_since_.find(stripe);
        it != at_risk_since_.end()) {
      const double window = now - it->second;
      result_.metrics.total_at_risk_s += window;
      result_.metrics.max_at_risk_s =
          std::max(result_.metrics.max_at_risk_s, window);
      at_risk_since_.erase(it);
    }
  }
}

bool RebuildCoordinator::stripe_recovered(cluster::StripeId stripe) const {
  for (std::size_t chunk = 0; chunk < placement_.chunks_per_stripe();
       ++chunk) {
    const cluster::NodeId host = placement_.node_of(stripe, chunk);
    const bool failed =
        std::find(failed_.begin(), failed_.end(), host) != failed_.end();
    if (failed && !recovered_.contains(stripe, chunk)) return false;
  }
  return true;
}

}  // namespace car::rebuild
