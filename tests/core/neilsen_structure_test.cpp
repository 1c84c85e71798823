// Structural fidelity tests for Chapter 3's finer claims: the transient
// multi-sink window, edge-inversion bookkeeping, and the implicit-queue
// deduction utilities on their own.
#include <gtest/gtest.h>

#include "../support/single_cs.hpp"
#include "core/algorithm.hpp"
#include "core/implicit_queue.hpp"
#include "core/invariants.hpp"
#include "core/neilsen_node.hpp"
#include "harness/probe.hpp"
#include "topology/tree.hpp"

namespace dmx::core {
namespace {

using testsupport::in_flight;
using testsupport::kCs;
using testsupport::node_as;

std::unique_ptr<service::LockSpace> neilsen_space(topology::Tree tree,
                                                  NodeId holder) {
  const int n = tree.size();
  return testsupport::single_cs(make_neilsen_algorithm(),
                                testsupport::cs_config(n, std::move(tree)),
                                holder);
}

NodeView view(service::LockSpace& space) {
  NodeView nodes;
  nodes.push_back(nullptr);
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    nodes.push_back(&node_as<NeilsenNode>(space, v));
  }
  return nodes;
}

std::size_t count_sinks(const NodeView& nodes) {
  std::size_t sinks = 0;
  for (std::size_t v = 1; v < nodes.size(); ++v) {
    if (nodes[v]->is_sink()) ++sinks;
  }
  return sinks;
}

TEST(NeilsenSinks, ExactlyOneSinkAtRest) {
  const auto space = neilsen_space(topology::Tree::line(6), 3);
  EXPECT_EQ(count_sinks(view(*space)), 1u);
}

TEST(NeilsenSinks, ThreeSinksWhileTwoRequestsAreInTransit) {
  // Chapter 3: "Assume that node X and node Y initiate requests at about
  // the same time. There may be at most three sink nodes while the
  // requests are in transit: node X, node Y and the current sink."
  const auto space = neilsen_space(topology::Tree::line(5), 3);

  space->acquire(kCs, 1);
  space->acquire(kCs, 5);
  // Nothing delivered yet: 1 and 5 made themselves sinks; 3 still is one.
  EXPECT_EQ(count_sinks(view(*space)), 3u);
  EXPECT_EQ(in_flight(*space, "REQUEST"), 2u);

  // As requests land, the sink count collapses back toward one.
  space->run_to_quiescence();
  // Token holder 3 is in... nobody was in CS: node 3 idle-holding handed
  // the token to whichever request arrived first.
  EXPECT_EQ(count_sinks(view(*space)),
            1u + in_flight(*space, "REQUEST"));
}

TEST(NeilsenSinks, SinkCountNeverExceedsRequestsInFlightPlusOne) {
  const auto space = neilsen_space(topology::Tree::random_tree(7, 9), 4);
  space->set_post_event_hook([](service::LockSpace& s, ResourceId) {
    ASSERT_LE(count_sinks(view(s)), in_flight(s, "REQUEST") + 1);
  });
  for (NodeId v = 1; v <= 7; ++v) {
    harness::hold_and_release(*space, kCs, v, 1);
  }
  space->run_to_quiescence();
}

TEST(ImplicitQueue, HolderWithEmptyChain) {
  const auto space = neilsen_space(topology::Tree::star(4, 1), 2);
  const NodeView nodes = view(*space);
  EXPECT_EQ(find_token_holder(nodes), 2);
  EXPECT_TRUE(deduce_waiting_queue(nodes, 2).empty());
}

TEST(ImplicitQueue, HolderInCsStillFound) {
  const auto space = neilsen_space(topology::Tree::line(3), 1);
  space->acquire(kCs, 1);
  EXPECT_EQ(find_token_holder(view(*space)), 1);
  space->release(kCs, 1);
}

TEST(ImplicitQueue, NoHolderWhileTokenInFlight) {
  const auto space = neilsen_space(topology::Tree::line(3), 1);
  space->acquire(kCs, 3);
  // Run until the idle holder has dispatched the PRIVILEGE but node 3
  // has not received it yet.
  while (in_flight(*space, "PRIVILEGE") == 0) {
    space->simulator().step();
  }
  EXPECT_EQ(find_token_holder(view(*space)), kNilNode);
  space->run_to_quiescence();
  EXPECT_EQ(find_token_holder(view(*space)), 3);
  space->release(kCs, 3);
}

TEST(ImplicitQueue, CorruptFollowCycleDetected) {
  const NeilsenNode a = NeilsenNode::restore(
      false, kNilNode, 2, NeilsenNode::CsStatus::kInCs);
  const NeilsenNode b = NeilsenNode::restore(
      false, 1, 1, NeilsenNode::CsStatus::kWaiting);  // FOLLOW back to 1!
  // 1 -> 2 -> 1 cycles; deduce_waiting_queue must throw, not hang.
  EXPECT_THROW(deduce_waiting_queue({nullptr, &a, &b}, 1),
               std::logic_error);
}

TEST(ImplicitQueue, TwoHoldersDetected) {
  const NeilsenNode a = NeilsenNode::restore(
      true, kNilNode, kNilNode, NeilsenNode::CsStatus::kIdle);
  const NeilsenNode b = NeilsenNode::restore(
      true, kNilNode, kNilNode, NeilsenNode::CsStatus::kIdle);
  EXPECT_THROW(find_token_holder({nullptr, &a, &b}), std::logic_error);
}

TEST(EdgeInversion, UndirectedTreeIsPreservedForever) {
  // Chapter 5 assumption 2: forwarding a REQUEST "simply changes the
  // direction of an edge", so the undirected edge multiset of the NEXT
  // graph (plus each sink's missing edge) stays within the original tree.
  const topology::Tree tree = topology::Tree::random_tree(8, 31);
  const auto space = neilsen_space(tree, 5);

  auto edges_are_tree_edges = [&](service::LockSpace& s) {
    for (NodeId v = 1; v <= s.nodes(); ++v) {
      const NodeId next = node_as<NeilsenNode>(s, v).next();
      if (next == kNilNode) continue;
      const auto& nbrs = tree.neighbors(v);
      ASSERT_TRUE(std::find(nbrs.begin(), nbrs.end(), next) != nbrs.end())
          << "NEXT edge " << v << "->" << next
          << " is not an edge of the logical tree";
    }
  };
  space->set_post_event_hook(
      [&](service::LockSpace& s, ResourceId) { edges_are_tree_edges(s); });
  for (int round = 0; round < 3; ++round) {
    for (NodeId v = 1; v <= 8; ++v) {
      harness::hold_and_release(*space, kCs, v, 2);
    }
    space->run_to_quiescence();
  }
  EXPECT_EQ(space->total_entries(), 24u);
}

}  // namespace
}  // namespace dmx::core
