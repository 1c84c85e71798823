// Tests for the single-CS harness over a one-resource sim LockSpace:
// lifecycle, grant/release bookkeeping, the driver-side event log,
// probes, and the delay analyses. The `Cluster` suite keeps the name of
// the single-resource harness these cases were written against.
#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "harness/delay_analysis.hpp"
#include "harness/probe.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::harness {
namespace {

using testsupport::kCs;

std::unique_ptr<service::LockSpace> line_space(int n, NodeId holder) {
  return testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"),
      testsupport::cs_config(n, topology::Tree::line(n)), holder);
}

TEST(Cluster, GrantCallbackFiresOnEntry) {
  const auto space = line_space(4, 1);
  bool entered = false;
  space->acquire(kCs, 1, [&](ResourceId r, NodeId v) {
    EXPECT_EQ(r, kCs);
    EXPECT_EQ(v, 1);
    entered = true;
  });
  EXPECT_TRUE(entered);  // holder enters synchronously
  EXPECT_TRUE(space->is_in_cs(kCs, 1));
  EXPECT_EQ(space->occupant(kCs), 1);
  space->release(kCs, 1);
  EXPECT_EQ(space->occupant(kCs), kNilNode);
}

TEST(Cluster, DoubleRequestQueuesBehindTheFirst) {
  const auto space = line_space(4, 1);
  const service::Ticket first = space->acquire(kCs, 2);
  const service::Ticket second = space->acquire(kCs, 2);
  space->run_to_quiescence();
  EXPECT_TRUE(first->granted);
  EXPECT_FALSE(second->granted);
  space->release(kCs, 2);
  EXPECT_TRUE(second->granted);
  EXPECT_EQ(space->occupant(kCs), 2);
}

TEST(Cluster, ReleaseByNonOccupantRejected) {
  const auto space = line_space(4, 1);
  space->acquire(kCs, 1);
  EXPECT_THROW(space->release(kCs, 2), std::logic_error);
}

TEST(Cluster, WaitingStateVisible) {
  const auto space = line_space(4, 1);
  space->acquire(kCs, 1);
  space->acquire(kCs, 3);
  EXPECT_TRUE(space->is_waiting(kCs, 3));
  EXPECT_FALSE(space->is_in_cs(kCs, 3));
  space->run_to_quiescence();
  EXPECT_TRUE(space->is_waiting(kCs, 3));  // token still held by node 1
  space->release(kCs, 1);
  space->run_to_quiescence();
  EXPECT_TRUE(space->is_in_cs(kCs, 3));
}

TEST(Cluster, HoldAndReleaseCompletesCycle) {
  const auto space = line_space(4, 1);
  bool released = false;
  hold_and_release(*space, kCs, 3, 5, [&](NodeId) { released = true; });
  space->run_to_quiescence();
  EXPECT_TRUE(released);
  EXPECT_EQ(space->total_entries(), 1u);
}

TEST(Cluster, EventLogRecordsLifecycle) {
  // The log is the driver's: run_workload records request/enter/exit
  // from its own acquire callback and release call.
  const auto space = line_space(3, 1);
  workload::WorkloadConfig wl;
  wl.target_entries = 1;
  wl.participants = {2};
  wl.hold_lo = wl.hold_hi = 4;
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);
  const auto& events = result.events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, CsEvent::Kind::kRequest);
  EXPECT_EQ(events[1].kind, CsEvent::Kind::kEnter);
  EXPECT_EQ(events[2].kind, CsEvent::Kind::kExit);
  EXPECT_EQ(events[2].at - events[1].at, 4);  // the hold duration
}

TEST(Cluster, EventLoggingCanBeDisabled) {
  // The space keeps no log of its own: a driver that records none (here
  // hold_and_release) leaves nothing behind but the entry count, and a
  // later workload's log covers only its own run.
  const auto space = line_space(3, 1);
  hold_and_release(*space, kCs, 2, 1);
  space->run_to_quiescence();
  EXPECT_EQ(space->entries(kCs), 1u);
  workload::WorkloadConfig wl;
  wl.target_entries = 1;
  wl.participants = {3};
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);
  ASSERT_EQ(result.events.size(), 3u);
  for (const CsEvent& event : result.events) EXPECT_EQ(event.node, 3);
}

TEST(Cluster, TreeRequiredForTreeAlgorithms) {
  // A tree algorithm given no tree runs over the star centred on node 1;
  // a tree of the wrong size is rejected.
  const auto star = testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"), testsupport::cs_config(3));
  hold_and_release(*star, kCs, 3, 0);
  star->run_to_quiescence();
  // REQUEST 3->1 and PRIVILEGE 1->3.
  EXPECT_EQ(star->network().stats().total_sent, 2u);
  const proto::Algorithm neilsen = baselines::algorithm_by_name("Neilsen");
  EXPECT_THROW(testsupport::single_cs(
                   neilsen, testsupport::cs_config(3, topology::Tree::line(4))),
               std::logic_error);
}

TEST(Probe, ParkTokenMovesToken) {
  const auto space = line_space(5, 1);
  park_token_at(*space, kCs, 4);
  EXPECT_TRUE(space->node(kCs, 4).has_token());
  EXPECT_FALSE(space->node(kCs, 1).has_token());
}

TEST(Probe, SingleEntryMeasuresTicksAndMessages) {
  const auto space = line_space(5, 1);
  const ProbeResult probe = single_entry_probe(*space, kCs, 5, /*hold=*/3);
  // 4 REQUEST hops + 1 PRIVILEGE, all at unit latency.
  EXPECT_EQ(probe.messages_total, 5u);
  EXPECT_EQ(probe.messages_to_enter, 5u);
  EXPECT_EQ(probe.ticks_to_enter, 5);
}

TEST(DelayAnalysis, WaitingTimes) {
  std::vector<CsEvent> events{
      {0, 1, CsEvent::Kind::kRequest},  {2, 1, CsEvent::Kind::kEnter},
      {5, 1, CsEvent::Kind::kExit},     {4, 2, CsEvent::Kind::kRequest},
      {10, 2, CsEvent::Kind::kEnter},   {11, 2, CsEvent::Kind::kExit},
  };
  const metrics::Summary waits = waiting_times(events);
  EXPECT_EQ(waits.count(), 2u);
  EXPECT_EQ(waits.min(), 2.0);
  EXPECT_EQ(waits.max(), 6.0);
}

TEST(DelayAnalysis, SyncDelayOnlyCountsBlockedSuccessors) {
  std::vector<CsEvent> events{
      {0, 1, CsEvent::Kind::kRequest},  {0, 1, CsEvent::Kind::kEnter},
      {1, 2, CsEvent::Kind::kRequest},  // blocked before exit below
      {5, 1, CsEvent::Kind::kExit},     {6, 2, CsEvent::Kind::kEnter},
      {7, 2, CsEvent::Kind::kExit},
      // Node 3 requests only after node 2 exited: not a sync-delay sample.
      {9, 3, CsEvent::Kind::kRequest},  {12, 3, CsEvent::Kind::kEnter},
  };
  const metrics::Summary delays = synchronization_delays(events);
  EXPECT_EQ(delays.count(), 1u);
  EXPECT_EQ(delays.mean(), 1.0);
}

TEST(DelayAnalysis, EmptyLogGivesEmptySummaries) {
  EXPECT_EQ(waiting_times({}).count(), 0u);
  EXPECT_EQ(synchronization_delays({}).count(), 0u);
}

}  // namespace
}  // namespace dmx::harness
