// Crash-fault tolerance of the sim LockSpace: failure detection, the
// runtimes' REPAIR/ACK ballot (quorum-elected token regeneration), epoch
// fencing of stale tokens, and structure repair over the compact survivor
// membership.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.hpp"
#include "fault/fault_plan.hpp"
#include "service/lock_space.hpp"

namespace dmx::service {
namespace {

LockSpaceConfig fault_config(int n, const std::string& algorithm = "Neilsen") {
  LockSpaceConfig config;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name(algorithm);
  config.seed = 1;
  return config;
}

/// Smallest live node after `crashed` went down — the election winner, so
/// also the regenerated token's holder.
NodeId smallest_survivor(int n, NodeId crashed) {
  for (NodeId v = 1; v <= n; ++v) {
    if (v != crashed) return v;
  }
  return kNilNode;
}

/// The epoch a repair installs: the runtimes' ballot, one round above the
/// highest fence `prev` the winner has seen, tagged with the winner's id.
Epoch ballot(Epoch prev, int n, NodeId winner) {
  const Epoch nodes = static_cast<Epoch>(n);
  return (prev / nodes + 1) * nodes + static_cast<Epoch>(winner);
}

TEST(LockSpaceFault, TokenHolderCrashRegeneratesAndServesWaiter) {
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  config.fault_plan.crash(10, home);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");
  const NodeId waiter = home == 5 ? 4 : 5;

  Ticket ticket;
  space.simulator().schedule_at(20, [&] {
    ticket = space.acquire(r, waiter, [&](ResourceId rr, NodeId v) {
      space.simulator().schedule_after(3, [&, rr, v] { space.release(rr, v); });
    });
  });
  space.run_to_quiescence();

  ASSERT_TRUE(ticket != nullptr);
  EXPECT_TRUE(ticket->granted);
  EXPECT_EQ(space.entries(r), 1u);
  EXPECT_EQ(space.epoch(r), ballot(0, 5, smallest_survivor(5, home)));
  EXPECT_FALSE(space.is_degraded(r));
  EXPECT_EQ(space.membership(r).size(), 4);
  EXPECT_FALSE(space.membership(r).contains(home));
  space.check_all_invariants();
}

TEST(LockSpaceFault, EveryAlgorithmSurvivesHomeCrash) {
  for (const proto::Algorithm& algorithm : baselines::all_algorithms()) {
    LockSpaceConfig config = fault_config(5, algorithm.name);
    LockSpace probe(fault_config(5, algorithm.name));
    const NodeId home = probe.home_node(probe.open("shard"));
    // Singhal pins the initial token to node 1 regardless of home; crash
    // the actual holder so token algorithms all face regeneration.
    const NodeId victim = algorithm.name == "Singhal" ? 1 : home;
    config.fault_plan.crash(10, victim);
    LockSpace space(std::move(config));
    const ResourceId r = space.open("shard");
    const NodeId waiter = victim == 5 ? 4 : 5;

    Ticket ticket;
    space.simulator().schedule_at(20, [&] {
      ticket = space.acquire(r, waiter, [&](ResourceId rr, NodeId v) {
        space.simulator().schedule_after(3,
                                         [&, rr, v] { space.release(rr, v); });
      });
    });
    space.run_to_quiescence();

    ASSERT_TRUE(ticket != nullptr) << algorithm.name;
    EXPECT_TRUE(ticket->granted) << algorithm.name;
    EXPECT_EQ(space.entries(r), 1u) << algorithm.name;
    EXPECT_EQ(space.epoch(r), ballot(0, 5, smallest_survivor(5, victim)))
        << algorithm.name;
    space.check_all_invariants();
  }
}

TEST(LockSpaceFault, TokenLossIsCaughtWhenRegenerationDisabled) {
  // The counterexample configuration: same crash, no repair. The
  // fault-aware uniqueness invariant must report the token as lost the
  // moment the holder dies instead of letting the space deadlock quietly.
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  config.recovery_enabled = false;
  config.fault_plan.crash(10, home);
  LockSpace space(std::move(config));
  space.open("shard");
  try {
    space.run_to_quiescence();
    FAIL() << "token loss went undetected with regeneration off";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("token count is 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(LockSpaceFault, InFlightStaleTokenIsFencedAfterRepair) {
  // Arrange a PRIVILEGE to still be in flight between two survivors when
  // a crash-repair bumps the epoch: the regenerated token and the stale
  // one briefly coexist on the wire, and the stale one must be fenced at
  // delivery, never granted. Latency far above the detection timeout
  // makes the overlap deterministic.
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  config.fixed_latency = 50;
  config.detect_after = 5;
  const NodeId bystander = [&] {
    for (NodeId v = 5; v >= 1; --v) {
      if (v != home) return v;
    }
    return kNilNode;
  }();
  config.fault_plan.crash(60, bystander);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");
  const NodeId requester = [&] {
    for (NodeId v = 1; v <= 5; ++v) {
      if (v != home && v != bystander) return v;
    }
    return kNilNode;
  }();

  // t=0: REQUEST requester->home (arrives 50); PRIVILEGE home->requester
  // departs at 50, due 100. The crash at 60 repairs at 65 — epoch 1 —
  // while the epoch-0 PRIVILEGE is mid-flight.
  Ticket ticket = space.acquire(r, requester, [&](ResourceId rr, NodeId v) {
    space.simulator().schedule_after(3, [&, rr, v] { space.release(rr, v); });
  });
  space.run_to_quiescence();

  EXPECT_TRUE(ticket->granted);
  EXPECT_EQ(space.epoch(r), ballot(0, 5, smallest_survivor(5, bystander)));
  // The runtimes fence stale frames at admission.
  EXPECT_GE(space.stale_frames(), 1u);
  EXPECT_EQ(space.entries(r), 1u);
  space.check_all_invariants();
}

TEST(LockSpaceFault, RecoveredNodeIsReintegratedAndCanLockAgain) {
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  config.fault_plan.crash(10, home).recover(100, home);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");

  std::vector<std::pair<NodeId, bool>> transitions;
  space.set_membership_hook(
      [&](NodeId v, bool up) { transitions.emplace_back(v, up); });

  Ticket ticket;
  space.simulator().schedule_at(200, [&] {
    ticket = space.acquire(r, home, [&](ResourceId rr, NodeId v) {
      space.simulator().schedule_after(3, [&, rr, v] { space.release(rr, v); });
    });
  });
  space.run_to_quiescence();

  // Crash repair (4 nodes) then rejoin repair (5 nodes), whose winner is
  // node 1. A home other than node 1 rejoins below node 1's first ballot;
  // node 1 as home rejoins fenced below the survivors, which ack it the
  // fence one above their world, and it announces above that.
  const Epoch first = ballot(0, 5, smallest_survivor(5, home));
  EXPECT_EQ(space.epoch(r), ballot(home == 1 ? first + 1 : first, 5, 1));
  EXPECT_EQ(space.membership(r).size(), 5);
  EXPECT_TRUE(space.membership(r).contains(home));
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], std::make_pair(home, false));
  EXPECT_EQ(transitions[1], std::make_pair(home, true));
  ASSERT_TRUE(ticket != nullptr);
  EXPECT_TRUE(ticket->granted);
  EXPECT_EQ(space.entries(r), 1u);
  space.check_all_invariants();
}

TEST(LockSpaceFault, NoLiveMajorityMeansNoRegeneration) {
  // 2 of 4 alive is not a strict majority: the survivors must refuse to
  // mint a token (the other half could otherwise mint one too).
  LockSpaceConfig config = fault_config(4);
  config.fault_plan.crash(10, 3).crash(12, 4);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");
  space.run_to_quiescence();
  // Node 3's crash is detected first: node 1 announces ballot 5 to a view
  // that still has node 4, which never acks. Node 4's detection then
  // leaves no majority and node 1 fences one up; no world is installed.
  EXPECT_EQ(space.epoch(r), ballot(0, 4, 1) + 1);
  EXPECT_TRUE(space.is_degraded(r));
  EXPECT_EQ(space.alive_count(), 2);

  // One node coming back restores the majority; the next repair runs.
  space.recover(4);
  space.run_to_quiescence();
  EXPECT_EQ(space.epoch(r), ballot(ballot(0, 4, 1) + 1, 4, 1));
  EXPECT_FALSE(space.is_degraded(r));
  EXPECT_EQ(space.membership(r).size(), 3);
  space.check_all_invariants();
}

TEST(LockSpaceFault, CrashInsideCriticalSectionFreesTheResource) {
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  config.fault_plan.crash(10, home);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");

  // The home acquires instantly (it holds the token) and never releases —
  // it dies inside the CS at t=10.
  Ticket held = space.acquire(r, home);
  ASSERT_TRUE(held->granted);
  EXPECT_EQ(space.occupant(r), home);

  const NodeId waiter = home == 5 ? 4 : 5;
  Ticket ticket;
  space.simulator().schedule_at(20, [&] {
    ticket = space.acquire(r, waiter, [&](ResourceId rr, NodeId v) {
      space.simulator().schedule_after(3, [&, rr, v] { space.release(rr, v); });
    });
  });
  space.run_to_quiescence();

  EXPECT_EQ(space.occupant(r), kNilNode);
  ASSERT_TRUE(ticket != nullptr);
  EXPECT_TRUE(ticket->granted);
  EXPECT_EQ(space.epoch(r), ballot(0, 5, smallest_survivor(5, home)));
  space.check_all_invariants();
}

TEST(LockSpaceFault, RepairDefersWhileSurvivorHoldsTheLock) {
  // A survivor sits in the CS when the repair fires: the repair must wait
  // for its release instead of revoking a held lock.
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const ResourceId pr = probe.open("shard");
  const NodeId home = probe.home_node(pr);
  const NodeId holder = smallest_survivor(5, home);
  config.fault_plan.crash(30, home);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");

  // Holder acquires early (token travels home -> holder) and holds the CS
  // far past crash + detection; its release triggers the deferred repair.
  Ticket ticket = space.acquire(r, holder, [&](ResourceId rr, NodeId v) {
    space.simulator().schedule_after(200,
                                     [&, rr, v] { space.release(rr, v); });
  });
  const NodeId waiter = [&] {
    for (NodeId v = 5; v >= 1; --v) {
      if (v != home && v != holder) return v;
    }
    return kNilNode;
  }();
  Ticket waiting;
  space.simulator().schedule_at(40, [&] {
    waiting = space.acquire(r, waiter, [&](ResourceId rr, NodeId v) {
      space.simulator().schedule_after(3, [&, rr, v] { space.release(rr, v); });
    });
  });
  space.run_to_quiescence();

  EXPECT_TRUE(ticket->granted);
  ASSERT_TRUE(waiting != nullptr);
  EXPECT_TRUE(waiting->granted);
  EXPECT_EQ(space.epoch(r), ballot(0, 5, holder));
  EXPECT_EQ(space.entries(r), 2u);
  space.check_all_invariants();
}

TEST(LockSpaceFault, AcquireOnDeadNodeReturnsDeadTicket) {
  LockSpaceConfig config = fault_config(4);
  config.fault_plan.crash(5, 2);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");
  Ticket ticket;
  space.simulator().schedule_at(10, [&] { ticket = space.acquire(r, 2); });
  space.run_to_quiescence();
  ASSERT_TRUE(ticket != nullptr);
  EXPECT_FALSE(ticket->granted);
  EXPECT_TRUE(space.is_idle(r, 2));
}

TEST(LockSpaceFault, WaitingNodeCrashVoidsItsTicket) {
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  const NodeId doomed = smallest_survivor(5, home);
  config.fault_plan.crash(10, doomed);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");

  // Home holds the CS so `doomed`'s request parks in the queue until its
  // crash voids it; home's release then finds no waiter resurrected.
  Ticket held = space.acquire(r, home);
  ASSERT_TRUE(held->granted);
  Ticket doomed_ticket = space.acquire(r, doomed);
  space.simulator().schedule_at(50, [&] { space.release(r, home); });
  space.run_to_quiescence();

  EXPECT_FALSE(doomed_ticket->granted);
  EXPECT_EQ(space.occupant(r), kNilNode);
  space.check_all_invariants();
}

TEST(LockSpaceFault, GrantCallbackReleasesInsideTheWinnersInstall) {
  // The winner waits when the home dies. For the token algorithms its
  // last ACK installs the world, whose re-request is granted on the spot;
  // the callback releases at once and so re-enters the runtime that is
  // completing the install.
  for (const proto::Algorithm& algorithm : baselines::all_algorithms()) {
    LockSpaceConfig config = fault_config(5, algorithm.name);
    LockSpace probe(fault_config(5, algorithm.name));
    const NodeId home = probe.home_node(probe.open("shard"));
    const NodeId victim = algorithm.name == "Singhal" ? 1 : home;
    const NodeId winner = smallest_survivor(5, victim);
    config.fault_plan.crash(10, victim);
    LockSpace space(std::move(config));
    const ResourceId r = space.open("shard");

    Ticket ticket;
    Ticket after;
    space.simulator().schedule_at(20, [&] {
      ticket = space.acquire(r, winner, [&](ResourceId rr, NodeId v) {
        space.release(rr, v);
        after = space.acquire(rr, v, [&](ResourceId rr2, NodeId v2) {
          space.release(rr2, v2);
        });
      });
    });
    space.run_to_quiescence();

    ASSERT_TRUE(ticket != nullptr) << algorithm.name;
    EXPECT_TRUE(ticket->granted) << algorithm.name;
    ASSERT_TRUE(after != nullptr) << algorithm.name;
    EXPECT_TRUE(after->granted) << algorithm.name;
    EXPECT_EQ(space.entries(r), 2u) << algorithm.name;
    EXPECT_EQ(space.epoch(r), ballot(0, 5, winner)) << algorithm.name;
    EXPECT_FALSE(space.is_degraded(r)) << algorithm.name;
    space.check_all_invariants();
  }
}

TEST(LockSpaceFault, GrantCallbackMayCrashTheWinnerInsideItsInstall) {
  // As above, but the callback kills the winner inside its first critical
  // section: the next survivor repairs again and serves another waiter.
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  const NodeId winner = smallest_survivor(5, home);
  NodeId next = winner + 1;
  if (next == home) ++next;
  const NodeId waiter = home == 5 || winner == 5 || next == 5 ? 4 : 5;
  config.fault_plan.crash(10, home);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");

  Ticket doomed;
  Ticket ticket;
  space.simulator().schedule_at(20, [&] {
    doomed = space.acquire(r, winner,
                           [&](ResourceId, NodeId v) { space.crash(v); });
  });
  space.simulator().schedule_at(60, [&] {
    ticket = space.acquire(r, waiter, [&](ResourceId rr, NodeId v) {
      space.release(rr, v);
    });
  });
  space.run_to_quiescence();

  ASSERT_TRUE(doomed != nullptr);
  EXPECT_TRUE(doomed->granted);
  EXPECT_FALSE(space.is_node_up(winner));
  ASSERT_TRUE(ticket != nullptr);
  EXPECT_TRUE(ticket->granted);
  EXPECT_EQ(space.entries(r), 2u);
  EXPECT_EQ(space.epoch(r), ballot(ballot(0, 5, winner), 5, next));
  EXPECT_FALSE(space.is_degraded(r));
  space.check_all_invariants();
}

TEST(LockSpaceFault, WithoutRecoveryOnlyAFencedResourceIsDegraded) {
  // Recovery off: a bystander's crash leaves the old world running, so
  // the resource is not degraded and the post-event hook keeps checking
  // it. Losing the majority fences it for good; only then is it degraded.
  LockSpaceConfig config = fault_config(5);
  LockSpace probe(fault_config(5));
  const NodeId home = probe.home_node(probe.open("shard"));
  std::vector<NodeId> bystanders;
  for (NodeId v = 1; v <= 5; ++v) {
    if (v != home) bystanders.push_back(v);
  }
  config.recovery_enabled = false;
  config.fault_plan.crash(10, bystanders[0])
      .crash(100, bystanders[1])
      .crash(101, bystanders[2]);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("shard");
  int checked = 0;
  space.set_post_event_hook([&](LockSpace& s, ResourceId rr) {
    if (!s.is_degraded(rr)) ++checked;
  });

  Ticket ticket;
  space.simulator().schedule_at(50, [&] {
    EXPECT_FALSE(space.is_degraded(r));
    const int before = checked;
    ticket = space.acquire(r, home, [&](ResourceId rr, NodeId v) {
      space.release(rr, v);
    });
    EXPECT_GT(checked, before);
  });
  space.run_to_quiescence();

  ASSERT_TRUE(ticket != nullptr);
  EXPECT_TRUE(ticket->granted);
  EXPECT_EQ(space.alive_count(), 2);
  EXPECT_TRUE(space.is_degraded(r));
}

}  // namespace
}  // namespace dmx::service
