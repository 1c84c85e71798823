// Behavioral unit tests for the baseline algorithms: the protocol paths
// that only fire under contention (deferred replies, token queues,
// quorum inquiries) and the variant knobs.
#include <gtest/gtest.h>

#include "../support/single_cs.hpp"
#include "baselines/carvalho_roucairol.hpp"
#include "baselines/lamport.hpp"
#include "baselines/maekawa.hpp"
#include "baselines/raymond.hpp"
#include "baselines/registry.hpp"
#include "baselines/singhal.hpp"
#include "baselines/suzuki_kasami.hpp"
#include "harness/probe.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::baselines {
namespace {

using testsupport::kCs;
using testsupport::node_as;

/// `algo` on the star centred on node 1, its token starting at `holder`.
std::unique_ptr<service::LockSpace> star_space(const proto::Algorithm& algo,
                                               int n, NodeId holder = 1) {
  return testsupport::single_cs(
      algo, testsupport::cs_config(n, topology::Tree::star(n, 1)), holder);
}

// --- Raymond -----------------------------------------------------------

TEST(RaymondBehavior, AskedFlagDedupesForwardedRequests) {
  // Two leaves request through the hub; the hub must forward only ONE
  // REQUEST toward the token holder (the ASKED flag).
  // A leaf (node 4) holds the token.
  const auto owned = star_space(make_raymond_algorithm(), 4, /*holder=*/4);
  service::LockSpace& space = *owned;

  space.acquire(kCs, 2);
  space.acquire(kCs, 3);
  // Deliver exactly the two leaf REQUESTs at the hub and the hub's single
  // forward at node 4 (stopping before the PRIVILEGE hand-back, which
  // would clear ASKED and trigger a follow-up request for node 3).
  space.simulator().run(3);
  EXPECT_EQ(space.network().stats().sent("REQUEST"), 3u);  // 2 + 1 fwd
  EXPECT_TRUE(node_as<RaymondNode>(space, 1).asked());
  EXPECT_EQ(node_as<RaymondNode>(space, 1).queue().size(), 2u);

  // Drain: both leaves get served in request order.
  space.run_to_quiescence();
  EXPECT_TRUE(space.is_in_cs(kCs, 2));
  space.release(kCs, 2);
  space.run_to_quiescence();
  EXPECT_TRUE(space.is_in_cs(kCs, 3));
  space.release(kCs, 3);
}

TEST(RaymondBehavior, TokenFollowsHolderPointers) {
  const auto owned = testsupport::single_cs(
      make_raymond_algorithm(),
      testsupport::cs_config(5, topology::Tree::line(5)));
  service::LockSpace& space = *owned;
  harness::park_token_at(space, kCs, 5);
  // Every HOLDER pointer now leads toward node 5.
  for (NodeId v = 1; v <= 4; ++v) {
    EXPECT_EQ(node_as<RaymondNode>(space, v).holder(), v + 1);
  }
  EXPECT_TRUE(space.node(kCs, 5).has_token());
}

// --- Suzuki–Kasami -------------------------------------------------------

TEST(SuzukiKasamiBehavior, TokenQueueBatchesWaiters) {
  const auto owned = star_space(make_suzuki_kasami_algorithm(), 5, 1);
  service::LockSpace& space = *owned;
  // Node 1 holds the token inside its CS while 2, 3, 4 request.
  space.acquire(kCs, 1);
  space.acquire(kCs, 2);
  space.acquire(kCs, 3);
  space.acquire(kCs, 4);
  space.run_to_quiescence();
  // Release: LN updated, all three go onto the token queue, token moves.
  space.release(kCs, 1);
  space.run_to_quiescence();
  EXPECT_TRUE(space.is_in_cs(kCs, 2) || space.is_in_cs(kCs, 3) ||
              space.is_in_cs(kCs, 4));
  // Exactly one token transfer so far; the queue rides inside the token.
  EXPECT_EQ(space.network().stats().sent("TOKEN"), 1u);
}

TEST(SuzukiKasamiBehavior, RequestNumbersAdvancePerBroadcast) {
  const auto owned = star_space(make_suzuki_kasami_algorithm(), 3, 1);
  service::LockSpace& space = *owned;
  // First entry by node 2 broadcasts sn=1; the second entry happens while
  // node 2 already holds the token, so no broadcast and no RN change.
  harness::single_entry_probe(space, kCs, 2);
  harness::single_entry_probe(space, kCs, 2);
  EXPECT_EQ(node_as<SkNode>(space, 3).request_number(2), 1);
  // Move the token away, then a fresh request from node 2 bumps its RN.
  harness::single_entry_probe(space, kCs, 3);
  harness::single_entry_probe(space, kCs, 2);
  EXPECT_EQ(node_as<SkNode>(space, 3).request_number(2), 2);
  EXPECT_EQ(node_as<SkNode>(space, 1).request_number(3), 1);
}

// --- Lamport -------------------------------------------------------------

TEST(LamportBehavior, NoOptVariantAcksEverything) {
  const auto owned = star_space(make_lamport_algorithm(false), 6);
  service::LockSpace& space = *owned;
  // Two concurrent requesters: with the optimization disabled, each of
  // the other nodes ACKs every REQUEST — including the two requesters
  // ACKing each other.
  space.acquire(kCs, 2);
  space.acquire(kCs, 3);
  space.run_to_quiescence();
  EXPECT_EQ(space.network().stats().sent("ACKNOWLEDGE"), 10u);
  while (space.occupant(kCs) != kNilNode ||
         space.is_waiting(kCs, 2) || space.is_waiting(kCs, 3)) {
    if (space.occupant(kCs) != kNilNode) {
      space.release(kCs, space.occupant(kCs));
    }
    space.run_to_quiescence();
  }
}

TEST(LamportBehavior, OptimizedVariantSuppressesRequesterAcks) {
  const auto owned = star_space(make_lamport_algorithm(true), 6);
  service::LockSpace& space = *owned;
  space.acquire(kCs, 2);
  space.acquire(kCs, 3);
  space.run_to_quiescence();
  // The two concurrent requesters suppress their mutual ACKs: 4 idle
  // nodes ACK each requester, requesters ACK nothing.
  EXPECT_EQ(space.network().stats().sent("ACKNOWLEDGE"), 8u);
  // Drain so the fixture tears down cleanly.
  while (space.occupant(kCs) != kNilNode ||
         space.is_waiting(kCs, 2) || space.is_waiting(kCs, 3)) {
    if (space.occupant(kCs) != kNilNode) {
      space.release(kCs, space.occupant(kCs));
    }
    space.run_to_quiescence();
  }
}

TEST(LamportBehavior, TimestampTieBrokenByNodeId) {
  // Simultaneous requests with equal clocks: the smaller id wins.
  const auto owned = star_space(make_lamport_algorithm(true), 4);
  service::LockSpace& space = *owned;
  std::vector<NodeId> order;
  space.acquire(kCs, 3, [&](ResourceId, NodeId v) { order.push_back(v); });
  space.acquire(kCs, 2, [&](ResourceId, NodeId v) { order.push_back(v); });
  space.run_to_quiescence();
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 2);
  space.release(kCs, 2);
  space.run_to_quiescence();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], 3);
  space.release(kCs, 3);
}

// --- Carvalho–Roucairol ---------------------------------------------------

TEST(CarvalhoRoucairolBehavior, AuthorizationsPersistAcrossEntries) {
  const auto owned = star_space(make_carvalho_roucairol_algorithm(), 5);
  service::LockSpace& space = *owned;
  harness::single_entry_probe(space, kCs, 3);
  for (NodeId j = 1; j <= 5; ++j) {
    EXPECT_TRUE(node_as<CrNode>(space, 3).authorized_by(j));
  }
  // A request by node 4 strips node 3 of exactly one authorization.
  harness::single_entry_probe(space, kCs, 4);
  EXPECT_FALSE(node_as<CrNode>(space, 3).authorized_by(4));
  EXPECT_TRUE(node_as<CrNode>(space, 3).authorized_by(2));
}

TEST(CarvalhoRoucairolBehavior, ConcurrentRequestersStaySafe) {
  const auto owned = star_space(make_carvalho_roucairol_algorithm(), 4);
  service::LockSpace& space = *owned;
  // Repeated simultaneous request pairs; the harness asserts mutual
  // exclusion continuously.
  for (int round = 0; round < 20; ++round) {
    std::vector<NodeId> entered;
    harness::hold_and_release(space, kCs, 2, 3);
    harness::hold_and_release(space, kCs, 3, 3);
    space.run_to_quiescence();
  }
  EXPECT_EQ(space.total_entries(), 40u);
}

// --- Singhal ----------------------------------------------------------------

TEST(SinghalBehavior, HeuristicSendsToRequestingSubsetOnly) {
  const auto owned = star_space(make_singhal_algorithm(), 8);
  service::LockSpace& space = *owned;
  space.network().reset_stats();
  // Node 3's staircase knows only {1, 2} as possible holders.
  space.acquire(kCs, 3);
  EXPECT_EQ(space.network().stats().sent("REQUEST"), 2u);
  space.run_to_quiescence();
  EXPECT_TRUE(space.is_in_cs(kCs, 3));
  space.release(kCs, 3);
}

TEST(SinghalBehavior, KnowledgeSpreadsWithTheToken) {
  const auto owned = star_space(make_singhal_algorithm(), 6);
  service::LockSpace& space = *owned;
  harness::single_entry_probe(space, kCs, 4);
  // Node 4 now knows node 1 gave the token away (merged arrays).
  EXPECT_TRUE(space.node(kCs, 4).has_token());
  EXPECT_EQ(node_as<SinghalNode>(space, 4).known_state(4),
            SinghalState::kHolding);
}

// --- Maekawa ------------------------------------------------------------------

TEST(MaekawaBehavior, InquireRelinquishPathFires) {
  // Priority inversion: a high-id node locks part of its quorum, then a
  // lower-priority... rather, a lower-(seq,id) request arrives at a
  // locked arbiter and must INQUIRE the current holder. Drive many
  // contended rounds and assert the rare-path message kinds all fired.
  // 13 nodes: projective-plane committees of 4.
  service::LockSpaceConfig config =
      testsupport::cs_config(13, topology::Tree::star(13, 1));
  config.latency_model = std::make_unique<net::UniformLatency>(1, 9);
  config.seed = 3;
  const auto owned =
      testsupport::single_cs(make_maekawa_algorithm(), std::move(config));
  service::LockSpace& space = *owned;

  workload::WorkloadConfig wl;
  wl.target_entries = 600;
  wl.mean_think_ticks = 2.0;
  wl.hold_lo = 0;
  wl.hold_hi = 3;
  wl.seed = 41;
  workload::run_workload(space, kCs, wl);

  const auto& stats = space.network().stats();
  EXPECT_GT(stats.sent("FAIL"), 0u);
  EXPECT_GT(stats.sent("INQUIRE"), 0u);
  EXPECT_GT(stats.sent("RELINQUISH"), 0u);
  EXPECT_GT(stats.sent("LOCKED"), stats.sent("RELINQUISH"));
}

TEST(MaekawaBehavior, QuorumsComeFromRegistry) {
  const auto owned = star_space(make_maekawa_algorithm(), 13);
  service::LockSpace& space = *owned;
  for (NodeId v = 1; v <= 13; ++v) {
    EXPECT_EQ(node_as<MaekawaNode>(space, v).quorum().size(), 4u);
  }
}

// --- Debug output -----------------------------------------------------------

TEST(BaselineDebug, AllAlgorithmsRenderState) {
  for (const auto& algo : all_algorithms()) {
    const auto owned = star_space(algo, 4);
    service::LockSpace& space = *owned;
    for (NodeId v = 1; v <= 4; ++v) {
      EXPECT_FALSE(space.node(kCs, v).debug_state().empty()) << algo.name;
    }
  }
}

}  // namespace
}  // namespace dmx::baselines

// ---- heavy randomized stress for the intricate protocols -------------------
// (regression net for round-boundary races like the stale-INQUIRE bug the
// timestamped-message fix addresses)

namespace dmx::baselines {
namespace {

using testsupport::kCs;

class IntricateProtocolStress
    : public ::testing::TestWithParam<std::string> {};

TEST_P(IntricateProtocolStress, ManySeedsJitteredSaturation) {
  const proto::Algorithm algo = algorithm_by_name(GetParam());
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    service::LockSpaceConfig config =
        testsupport::cs_config(13, topology::Tree::random_tree(13, seed));
    config.latency_model = std::make_unique<net::ExponentialLatency>(4.0);
    config.seed = seed;
    const auto owned = testsupport::single_cs(algo, std::move(config));
    service::LockSpace& space = *owned;

    workload::WorkloadConfig wl;
    wl.target_entries = 250;
    wl.mean_think_ticks = seed % 3 == 0 ? 0.0 : 2.0;
    wl.hold_lo = 0;
    wl.hold_hi = 3;
    wl.seed = seed * 101 + 7;
    const workload::WorkloadResult result =
        workload::run_workload(space, kCs, wl);
    ASSERT_GE(result.entries, wl.target_entries)
        << algo.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IntricateProtocolStress,
                         ::testing::Values("Maekawa", "Singhal",
                                           "Carvalho-Roucairol"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace dmx::baselines
