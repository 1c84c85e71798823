// Tests for the workload generator.
#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::workload {
namespace {

using testsupport::kCs;

std::unique_ptr<service::LockSpace> star_space(const char* algorithm, int n) {
  return testsupport::single_cs(
      baselines::algorithm_by_name(algorithm),
      testsupport::cs_config(n, topology::Tree::star(n, 1)));
}

TEST(Workload, CompletesTargetEntries) {
  const auto space = star_space("Neilsen", 6);
  WorkloadConfig wl;
  wl.target_entries = 100;
  wl.mean_think_ticks = 5.0;
  const WorkloadResult result = run_workload(*space, kCs, wl);
  EXPECT_GE(result.entries, 100u);
  EXPECT_GT(result.makespan, 0);
}

TEST(Workload, MessagesPerEntryConsistent) {
  const auto space = star_space("Neilsen", 6);
  WorkloadConfig wl;
  wl.target_entries = 50;
  const WorkloadResult result = run_workload(*space, kCs, wl);
  EXPECT_NEAR(result.messages_per_entry,
              static_cast<double>(result.messages) /
                  static_cast<double>(result.entries),
              1e-9);
}

TEST(Workload, ParticipantsSubsetOnlyThoseEnter) {
  const auto space = star_space("Neilsen", 6);
  WorkloadConfig wl;
  wl.target_entries = 40;
  wl.participants = {2, 5};
  const WorkloadResult result = run_workload(*space, kCs, wl);
  for (const auto& event : result.events) {
    EXPECT_TRUE(event.node == 2 || event.node == 5);
  }
}

TEST(Workload, HoldTimesRespected) {
  const auto space = star_space("Neilsen", 4);
  WorkloadConfig wl;
  wl.target_entries = 30;
  wl.hold_lo = 3;
  wl.hold_hi = 9;
  const WorkloadResult result = run_workload(*space, kCs, wl);
  Tick enter_at = -1;
  NodeId who = kNilNode;
  for (const auto& event : result.events) {
    if (event.kind == harness::CsEvent::Kind::kEnter) {
      enter_at = event.at;
      who = event.node;
    } else if (event.kind == harness::CsEvent::Kind::kExit) {
      ASSERT_EQ(event.node, who);
      const Tick held = event.at - enter_at;
      EXPECT_GE(held, 3);
      EXPECT_LE(held, 9);
    }
  }
}

TEST(Workload, NonParticipantsStillRelayOnPathTopologies) {
  // Participants at the two ends of a line: every request and every
  // PRIVILEGE hand-off must be relayed through the four silent middle
  // nodes. Completion proves the relays run the protocol; the message
  // bill shows the 5-hop path cost against the star's 1-hop cost for the
  // same two participants.
  const auto run_ends = [](topology::Tree tree) {
    const auto space =
        testsupport::single_cs(baselines::algorithm_by_name("Neilsen"),
                               testsupport::cs_config(6, std::move(tree)));
    WorkloadConfig wl;
    wl.target_entries = 40;
    wl.participants = {1, 6};
    // Light load (think >> path delay): the §6.2 regime where at most one
    // request is outstanding, so nearly every entry pays the full
    // requester->token->requester path.
    wl.mean_think_ticks = 40.0;
    const WorkloadResult result = run_workload(*space, kCs, wl);
    for (const auto& event : result.events) {
      EXPECT_TRUE(event.node == 1 || event.node == 6);
    }
    return result;
  };
  const WorkloadResult line = run_ends(topology::Tree::line(6));
  const WorkloadResult star = run_ends(topology::Tree::star(6, 1));
  EXPECT_GE(line.entries, 40u);
  EXPECT_GE(star.entries, 40u);
  // End-to-end on the line is 5 hops per REQUEST and per PRIVILEGE; a
  // topology where the participants were adjacent could never exceed 2
  // messages per entry, so anything above that proves middle-node relays.
  EXPECT_GT(line.messages_per_entry, 2.5);
  EXPECT_GT(line.messages_per_entry, star.messages_per_entry);
}

TEST(Workload, HoldWindowWidensHoldsWithoutBreakingSyncDelay) {
  // hold_lo < hold_hi draws per-entry holds uniformly from the window.
  // With every hold >= N under saturation the implicit queue stays
  // primed, so each hand-off remains exactly one PRIVILEGE hop while the
  // makespan stretches with the (deterministic per seed) longer holds.
  const auto run_with_window = [](Tick lo, Tick hi) {
    const auto space = star_space("Neilsen", 5);
    WorkloadConfig wl;
    wl.target_entries = 80;
    wl.mean_think_ticks = 0.0;
    wl.hold_lo = lo;
    wl.hold_hi = hi;
    wl.seed = 13;
    return run_workload(*space, kCs, wl);
  };
  const WorkloadResult fixed = run_with_window(5, 5);
  const WorkloadResult window = run_with_window(5, 13);
  ASSERT_GT(window.sync_delay_ticks.count(), 0u);
  EXPECT_EQ(window.sync_delay_ticks.mean(), 1.0);
  EXPECT_EQ(window.sync_delay_ticks.max(), 1.0);
  // Mean hold 9 vs 5: the same entry count takes measurably longer.
  EXPECT_GT(window.makespan, fixed.makespan);
}

TEST(Workload, DeterministicGivenSeed) {
  auto run_once = [] {
    const auto space = star_space("Suzuki-Kasami", 5);
    WorkloadConfig wl;
    wl.target_entries = 60;
    wl.mean_think_ticks = 4.0;
    wl.seed = 7;
    const WorkloadResult result = run_workload(*space, kCs, wl);
    return std::tuple{result.entries, result.messages, result.makespan};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Workload, SaturationKeepsPipelineBusy) {
  const auto space = star_space("Neilsen", 5);
  WorkloadConfig wl;
  wl.target_entries = 80;
  wl.mean_think_ticks = 0.0;
  // Hold each CS for >= N ticks so every in-flight request is absorbed
  // into the implicit queue before the holder exits — the scenario §6.3
  // defines synchronization delay for (successor already blocked).
  wl.hold_lo = 5;
  wl.hold_hi = 5;
  const WorkloadResult result = run_workload(*space, kCs, wl);
  // Every hand-off is then exactly one PRIVILEGE hop.
  ASSERT_GT(result.sync_delay_ticks.count(), 0u);
  EXPECT_EQ(result.sync_delay_ticks.mean(), 1.0);
  EXPECT_EQ(result.sync_delay_ticks.max(), 1.0);
}

}  // namespace
}  // namespace dmx::workload
