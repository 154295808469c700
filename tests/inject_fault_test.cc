// Fault-model and event-log unit tests: FaultPlan and NodeCrash validation,
// the
// order-independent per-attempt fault decision, link-fault arming, and the
// canonical (byte-stable) EventLog JSON.
#include "inject/fault.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "cluster/topology.h"
#include "emul/cluster.h"
#include "inject/event_log.h"
#include "util/check.h"

namespace car::inject {
namespace {

using cluster::Topology;

const Topology& topo() {
  static const Topology t({4, 3, 3});
  return t;
}

TEST(FaultPlan, EmptyPlanIsValid) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.link_faults.empty() && plan.transfer_faults.empty());
  EXPECT_NO_THROW(plan.validate(topo()));
}

TEST(FaultPlan, RejectsOutOfRangeLinkIds) {
  FaultPlan plan;
  plan.link_faults.push_back({LinkSide::kNodeUp, 10, 0.0, 1.0, 0.5});
  EXPECT_THROW(plan.validate(topo()), util::CheckError);
  plan.link_faults.front() = {LinkSide::kRackUp, 3, 0.0, 1.0, 0.5};
  EXPECT_THROW(plan.validate(topo()), util::CheckError);
  plan.link_faults.front() = {LinkSide::kRackUp, 2, 0.0, 1.0, 0.5};
  EXPECT_NO_THROW(plan.validate(topo()));
}

TEST(FaultPlan, RejectsMalformedWindowsAndFactors) {
  FaultPlan plan;
  plan.link_faults.push_back({LinkSide::kRackUp, 0, 1.0, 1.0, 0.5});
  EXPECT_THROW(plan.validate(topo()), util::CheckError);  // start == end
  plan.link_faults.front().end_s = 2.0;
  plan.link_faults.front().factor = -0.5;
  EXPECT_THROW(plan.validate(topo()), util::CheckError);
  plan.link_faults.front().factor = std::numeric_limits<double>::infinity();
  EXPECT_THROW(plan.validate(topo()), util::CheckError);
  plan.link_faults.front().factor = 0.0;
  EXPECT_NO_THROW(plan.validate(topo()));
}

TEST(FaultPlan, RejectsBadTransferProbabilityAndAttempts) {
  FaultPlan plan;
  TransferFault fault;
  fault.probability = 0.0;
  plan.transfer_faults.push_back(fault);
  EXPECT_THROW(plan.validate(topo()), util::CheckError);
  plan.transfer_faults.front().probability = 0.5;
  plan.transfer_faults.front().attempts = {0};  // attempts are 1-based
  EXPECT_THROW(plan.validate(topo()), util::CheckError);
}

TEST(NodeCrash, RejectsBadTriggerOrNode) {
  NodeCrash crash;
  crash.node = 3;  // neither trigger set
  EXPECT_THROW(crash.validate(topo()), util::CheckError);
  crash.at_fraction = 0.5;
  crash.at_time_s = 1.0;  // both set
  EXPECT_THROW(crash.validate(topo()), util::CheckError);
  crash.at_time_s.reset();
  crash.at_fraction = 1.5;
  EXPECT_THROW(crash.validate(topo()), util::CheckError);
  crash.at_fraction = 0.5;
  crash.node = 10;  // out of range
  EXPECT_THROW(crash.validate(topo()), util::CheckError);
}

TEST(TransferFaultApplies, FiltersByStepAndAttempt) {
  TransferFault fault;
  fault.step = 3;
  fault.attempts = {1, 2};
  EXPECT_TRUE(transfer_fault_applies(fault, 0, 3, 1, 7));
  EXPECT_TRUE(transfer_fault_applies(fault, 0, 3, 2, 7));
  EXPECT_FALSE(transfer_fault_applies(fault, 0, 3, 3, 7));
  EXPECT_FALSE(transfer_fault_applies(fault, 0, 4, 1, 7));
  fault.step.reset();
  EXPECT_TRUE(transfer_fault_applies(fault, 0, 4, 1, 7));
}

TEST(TransferFaultApplies, ProbabilisticDecisionIsAPureFunction) {
  TransferFault fault;
  fault.probability = 0.5;
  std::size_t hits = 0;
  for (std::size_t step = 0; step < 200; ++step) {
    const bool a = transfer_fault_applies(fault, 1, step, 1, 42);
    const bool b = transfer_fault_applies(fault, 1, step, 1, 42);
    EXPECT_EQ(a, b);  // same inputs, same answer, any call order
    hits += a ? 1 : 0;
  }
  EXPECT_GT(hits, 50u);  // roughly half, generously bounded
  EXPECT_LT(hits, 150u);
  // A different seed flips at least one decision.
  bool any_differ = false;
  for (std::size_t step = 0; step < 200 && !any_differ; ++step) {
    any_differ = transfer_fault_applies(fault, 1, step, 1, 42) !=
                 transfer_fault_applies(fault, 1, step, 1, 43);
  }
  EXPECT_TRUE(any_differ);
}

TEST(ArmLinkFaults, InstallsRateWindowsOnTheRightLink) {
  emul::EmulConfig config;
  emul::Cluster cluster(topo(), config);
  FaultPlan plan;
  plan.link_faults.push_back({LinkSide::kRackUp, 1, 0.5, 1.5, 0.25});
  arm_link_faults(cluster, plan, 2.0);  // t0 shifts the window
  const emul::LinkTable& links = cluster.links();
  const emul::LinkId armed = cluster.rack_up_link(1);
  EXPECT_DOUBLE_EQ(links.rate_at(armed, 2.4), links.rate(armed));
  EXPECT_DOUBLE_EQ(links.rate_at(armed, 2.6), links.rate(armed) * 0.25);
  for (emul::LinkId link = 0; link < links.size(); ++link) {
    if (link == armed) continue;
    EXPECT_DOUBLE_EQ(links.rate_at(link, 2.6), links.rate(link)) << link;
  }
}

TEST(EventLog, RecordsSequencedEventsAndCounts) {
  EventLog log;
  log.record(0.0, EventKind::kRunStart);
  log.record(0.5, EventKind::kTransferAttempt, 3, 1, 2, 1024, "detail");
  log.record(0.9, EventKind::kTransferAttempt, 4, 1, 2, 1024);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_NE(log.to_json().find("{\"seq\":1,\"t\":\"0.500000000\""),
            std::string::npos);
  EXPECT_EQ(log.detail(log.events()[1]), "detail");
  EXPECT_EQ(log.detail(log.events()[2]), "");
  EXPECT_EQ(log.count(EventKind::kTransferAttempt), 2u);
  EXPECT_EQ(log.count(EventKind::kNodeCrash), 0u);
  EXPECT_NE(log.summary().find("transfer-attempt x2"), std::string::npos);
}

TEST(EventLog, JsonIsCanonicalAndEqualityHolds) {
  EventLog a, b;
  for (EventLog* log : {&a, &b}) {
    log->record(0.0, EventKind::kRunStart, -1, -1, -1, 0, "x \"quoted\"\n");
    log->record(1.0 / 3.0, EventKind::kTransferComplete, 1, 2, 3, 77);
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_json(), b.to_json());
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"kind\":\"run-start\""), std::string::npos);
  EXPECT_NE(json.find("\"t\":\"0.333333333\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\"\\n"), std::string::npos);
  b.record(2.0, EventKind::kRunComplete);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace car::inject
