// Property-based tests of the Neilsen algorithm over topology × size ×
// seed sweeps. Lemma 1/2 invariants are checked after EVERY simulator
// event; liveness, queue deduction, the D+1 message bound and the
// one-message synchronization delay are asserted per run.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "../support/single_cs.hpp"
#include "core/algorithm.hpp"
#include "core/implicit_queue.hpp"
#include "core/invariants.hpp"
#include "core/neilsen_node.hpp"
#include "harness/delay_analysis.hpp"
#include "harness/probe.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::core {
namespace {

using testsupport::in_flight;
using testsupport::kCs;
using testsupport::node_as;

topology::Tree make_topology(const std::string& kind, int n,
                             std::uint64_t seed) {
  if (kind == "line") return topology::Tree::line(n);
  if (kind == "star") return topology::Tree::star(n, 1);
  if (kind == "kary") return topology::Tree::kary(n, 3);
  if (kind == "radiating") {
    return topology::Tree::radiating_star(n, std::max(2, n / 4));
  }
  return topology::Tree::random_tree(n, seed);
}

NodeView view(service::LockSpace& space) {
  NodeView nodes;
  nodes.push_back(nullptr);
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    nodes.push_back(&node_as<NeilsenNode>(space, v));
  }
  return nodes;
}

void install_invariant_hook(service::LockSpace& space) {
  space.set_post_event_hook([](service::LockSpace& c, ResourceId) {
    const NodeView nodes = view(c);
    const InvariantReport report =
        check_all(nodes, in_flight(c, "REQUEST"));
    ASSERT_TRUE(report.ok) << report.violation;
  });
}

using Params = std::tuple<std::string, int, std::uint64_t>;

class NeilsenStress : public ::testing::TestWithParam<Params> {};

TEST_P(NeilsenStress, InvariantsHoldUnderRandomWorkload) {
  const auto& [kind, n, seed] = GetParam();
  service::LockSpaceConfig config =
      testsupport::cs_config(n, make_topology(kind, n, seed));
  config.latency_model = std::make_unique<net::UniformLatency>(1, 5);
  config.seed = seed;
  const auto owned =
      testsupport::single_cs(make_neilsen_algorithm(), std::move(config),
                             static_cast<NodeId>(seed % n + 1));
  service::LockSpace& space = *owned;
  install_invariant_hook(space);

  workload::WorkloadConfig wl;
  wl.target_entries = 200;
  wl.mean_think_ticks = 10.0;
  wl.hold_lo = 0;
  wl.hold_hi = 7;
  wl.seed = seed * 977 + 1;
  const workload::WorkloadResult result =
      workload::run_workload(space, kCs, wl);

  EXPECT_GE(result.entries, wl.target_entries);  // liveness: all complete
  // Afterwards the token is at rest at exactly one node.
  const NodeView nodes = view(space);
  EXPECT_NE(find_token_holder(nodes), kNilNode);
  EXPECT_TRUE(deduce_waiting_queue(nodes, find_token_holder(nodes)).empty());
}

TEST_P(NeilsenStress, EveryNodeEntersUnderSaturation) {
  const auto& [kind, n, seed] = GetParam();
  service::LockSpaceConfig config =
      testsupport::cs_config(n, make_topology(kind, n, seed));
  config.seed = seed;
  const auto owned =
      testsupport::single_cs(make_neilsen_algorithm(), std::move(config), 1);
  service::LockSpace& space = *owned;

  workload::WorkloadConfig wl;
  wl.target_entries = static_cast<std::uint64_t>(8 * n);
  wl.mean_think_ticks = 0.0;  // saturation
  wl.seed = seed;
  const workload::WorkloadResult result =
      workload::run_workload(space, kCs, wl);

  std::map<NodeId, int> entries;
  for (const auto& event : result.events) {
    if (event.kind == harness::CsEvent::Kind::kEnter) {
      entries[event.node] += 1;
    }
  }
  for (NodeId v = 1; v <= n; ++v) {
    EXPECT_GE(entries[v], 1) << "node " << v << " starved";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NeilsenStress,
    ::testing::Combine(::testing::Values("line", "star", "kary", "radiating",
                                         "random"),
                       ::testing::Values(2, 3, 5, 9, 16),
                       ::testing::Values(1u, 7u, 42u)));

TEST(NeilsenQueue, DeducedQueueMatchesGrantOrder) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const int n = 8;
    service::LockSpaceConfig config =
        testsupport::cs_config(n, topology::Tree::random_tree(n, seed));
    config.seed = seed;
    const auto owned =
        testsupport::single_cs(make_neilsen_algorithm(), std::move(config), 1);
    service::LockSpace& space = *owned;
    install_invariant_hook(space);

    // Token holder occupies the CS while the others pile up behind it.
    space.acquire(kCs, 1);
    std::vector<NodeId> grant_order;
    for (NodeId v = 2; v <= n; ++v) {
      space.acquire(kCs, v, [&](ResourceId, NodeId who) {
        grant_order.push_back(who);
      });
      space.simulator().run_until(space.simulator().now() +
                                    static_cast<Tick>(seed % 3));
    }
    // Absorb all requests into FOLLOW variables (token stays at node 1).
    while (in_flight(space, "REQUEST") > 0) {
      space.simulator().step();
    }
    const std::vector<NodeId> deduced =
        deduce_waiting_queue(view(space), 1);
    EXPECT_EQ(deduced.size(), static_cast<std::size_t>(n - 1));

    // Now let the token walk the queue; the grant order must equal the
    // queue deduced from the FOLLOW chain.
    space.release(kCs, 1);
    for (int i = 0; i < n - 1; ++i) {
      space.run_to_quiescence();
      ASSERT_EQ(grant_order.size(), static_cast<std::size_t>(i + 1));
      space.release(kCs, grant_order.back());
    }
    EXPECT_EQ(grant_order, deduced) << "seed " << seed;
  }
}

TEST(NeilsenBounds, MessagesPerEntryIsDistancePlusOne) {
  // §6.1: a single entry costs d REQUEST hops + 1 PRIVILEGE, where d is
  // the tree distance from requester to the current sink; hence <= D+1.
  for (const char* kind : {"line", "star", "kary", "random"}) {
    const int n = 9;
    const topology::Tree tree = make_topology(kind, n, 3);
    service::LockSpaceConfig config = testsupport::cs_config(n, tree);
    const auto owned =
        testsupport::single_cs(make_neilsen_algorithm(), std::move(config), 1);
    service::LockSpace& space = *owned;
    install_invariant_hook(space);

    for (NodeId holder = 1; holder <= n; holder += 2) {
      harness::park_token_at(space, kCs, holder);
      for (NodeId requester = 1; requester <= n; requester += 3) {
        const harness::ProbeResult probe =
            harness::single_entry_probe(space, kCs, requester);
        const int d = tree.distance(requester, holder);
        if (requester == holder) {
          EXPECT_EQ(probe.messages_total, 0u);
        } else {
          EXPECT_EQ(probe.messages_total, static_cast<std::uint64_t>(d + 1))
              << kind << " holder=" << holder << " requester=" << requester;
        }
        EXPECT_LE(probe.messages_total,
                  static_cast<std::uint64_t>(tree.diameter() + 1));
        // The requester now holds the token; subsequent distances are
        // measured from it.
        harness::park_token_at(space, kCs, holder);
      }
    }
  }
}

TEST(NeilsenDelay, SynchronizationDelayIsOneMessage) {
  // §6.3: under contention the exiting node sends exactly one PRIVILEGE
  // to the next node — one hop with unit latency, beating the
  // centralized scheme's two (RELEASE + GRANT).
  for (const char* kind : {"line", "star", "random"}) {
    service::LockSpaceConfig config =
        testsupport::cs_config(8, make_topology(kind, 8, 11));
    const auto owned =
        testsupport::single_cs(make_neilsen_algorithm(), std::move(config), 1);
    service::LockSpace& space = *owned;

    workload::WorkloadConfig wl;
    wl.target_entries = 100;
    wl.mean_think_ticks = 0.0;  // saturation: someone is always waiting
    // Hold >= N ticks so requests in flight at entry are enqueued by exit
    // (the paper's measurement scenario: the successor is already blocked
    // with FOLLOW pointing at it).
    wl.hold_lo = 8;
    wl.hold_hi = 8;
    wl.seed = 5;
    const workload::WorkloadResult result =
        workload::run_workload(space, kCs, wl);
    ASSERT_GT(result.sync_delay_ticks.count(), 0u);
    EXPECT_EQ(result.sync_delay_ticks.max(), 1.0) << kind;
  }
}

TEST(NeilsenDeterminism, SameSeedSameTrace) {
  auto run_once = [](std::uint64_t seed) {
    service::LockSpaceConfig config =
        testsupport::cs_config(7, topology::Tree::random_tree(7, 13));
    config.latency_model = std::make_unique<net::ExponentialLatency>(4.0);
    config.seed = seed;
    const auto owned =
        testsupport::single_cs(make_neilsen_algorithm(), std::move(config), 2);
    service::LockSpace& space = *owned;
    workload::WorkloadConfig wl;
    wl.target_entries = 150;
    wl.mean_think_ticks = 6.0;
    wl.hold_hi = 3;
    wl.seed = 99;
    const workload::WorkloadResult result =
        workload::run_workload(space, kCs, wl);
    std::vector<std::tuple<Tick, NodeId, int>> log;
    for (const auto& event : result.events) {
      log.emplace_back(event.at, event.node, static_cast<int>(event.kind));
    }
    return log;
  };
  EXPECT_EQ(run_once(21), run_once(21));
  EXPECT_NE(run_once(21), run_once(22));
}

TEST(NeilsenInvariants, DetectorsActuallyDetect) {
  // White-box: feed corrupted states to the checkers to prove they fire.
  std::vector<std::unique_ptr<NeilsenNode>> owned;
  auto make = [&](NodeId next, bool holding) {
    owned.push_back(std::make_unique<NeilsenNode>(next, holding));
    return owned.back().get();
  };
  // NEXT cycle: 1 -> 2 -> 1 (undirected cycle between two nodes).
  {
    NodeView nodes{nullptr, make(2, false), make(1, false)};
    EXPECT_FALSE(check_next_forest(nodes).ok);
    EXPECT_FALSE(check_paths_reach_sink(nodes).ok);
  }
  owned.clear();
  // No sink at all.
  {
    NodeView nodes{nullptr, make(2, false), make(3, false), make(2, false)};
    EXPECT_FALSE(check_sink_count(nodes, 0).ok);
  }
  owned.clear();
  // Idle sink without the token (state N sink).
  {
    // Construct legally, then drive into the bad shape via messages is
    // impossible — so corrupt directly: a sink (NEXT=0) that is not
    // holding. The two-arg constructor forbids it, which is itself the
    // guarantee; verify the checker agrees with a hand-built view.
    owned.push_back(std::make_unique<NeilsenNode>(std::vector<NodeId>{2},
                                                  /*holder=*/false));
    // Uninitialized node: NEXT=0, not holding, idle -> "N"-labelled sink.
    NodeView nodes{nullptr, owned.back().get(),
                   (owned.push_back(std::make_unique<NeilsenNode>(
                        kNilNode, true)),
                    owned.back().get())};
    EXPECT_FALSE(check_sink_states(nodes).ok);
  }
  // Too many sinks for zero in-flight requests.
  {
    owned.clear();
    NodeView nodes{nullptr, make(kNilNode, true)};
    owned.push_back(std::make_unique<NeilsenNode>(std::vector<NodeId>{1},
                                                  false));
    nodes.push_back(owned.back().get());
    EXPECT_FALSE(check_sink_count(nodes, 0).ok);
    EXPECT_TRUE(check_sink_count(nodes, 1).ok);
  }
}

}  // namespace
}  // namespace dmx::core
