// Tests for the distributed initialization procedure (Figure 5): the
// token holder floods INITIALIZE; every other node orients NEXT toward
// the neighbour it first heard from. The resulting state must equal the
// precomputed orientation used by the registry factory.
#include <gtest/gtest.h>

#include <memory>

#include "../support/single_cs.hpp"
#include "core/messages.hpp"
#include "core/neilsen_node.hpp"
#include "harness/probe.hpp"
#include "topology/tree.hpp"

namespace dmx::core {
namespace {

using testsupport::kCs;
using testsupport::node_as;

/// Algorithm descriptor whose nodes start *uninitialized*, with neighbour
/// lists, as Figure 5 assumes. token_based is false so the space skips
/// the token-uniqueness check until initialization completes.
proto::Algorithm make_uninitialized_neilsen() {
  proto::Algorithm algo;
  algo.name = "Neilsen-uninit";
  algo.token_based = false;
  algo.needs_tree = true;
  algo.factory = [](const proto::ClusterSpec& spec) {
    std::vector<std::unique_ptr<proto::MutexNode>> nodes(
        static_cast<std::size_t>(spec.n) + 1);
    for (NodeId v = 1; v <= spec.n; ++v) {
      nodes[static_cast<std::size_t>(v)] = std::make_unique<NeilsenNode>(
          spec.tree->neighbors(v), v == spec.initial_token_holder);
    }
    return nodes;
  };
  return algo;
}

class NeilsenInitTest : public ::testing::TestWithParam<int> {};

TEST_P(NeilsenInitTest, FloodMatchesPrecomputedOrientation) {
  const int n = 9;
  const NodeId holder = static_cast<NodeId>(GetParam());
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const topology::Tree tree = topology::Tree::random_tree(n, seed);
    const auto space = testsupport::single_cs(
        make_uninitialized_neilsen(), testsupport::cs_config(n, tree), holder);

    for (NodeId v = 1; v <= n; ++v) {
      EXPECT_FALSE(node_as<NeilsenNode>(*space, v).initialized());
    }
    node_as<NeilsenNode>(*space, holder)
        .start_init(space->context(kCs, holder));
    space->run_to_quiescence();

    const auto expected = tree.next_pointers_toward(holder);
    for (NodeId v = 1; v <= n; ++v) {
      const auto& node = node_as<NeilsenNode>(*space, v);
      EXPECT_TRUE(node.initialized());
      EXPECT_EQ(node.next(), expected[static_cast<std::size_t>(v)])
          << "node " << v << " holder " << holder << " seed " << seed;
      EXPECT_EQ(node.follow(), kNilNode);
      EXPECT_EQ(node.holding(), v == holder);
    }
    // The flood sends exactly one INITIALIZE per tree edge.
    EXPECT_EQ(space->network().stats().sent("INITIALIZE"),
              static_cast<std::uint64_t>(n - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Holders, NeilsenInitTest,
                         ::testing::Values(1, 4, 9));

TEST(NeilsenInit, StartInitOnNonHolderRejected) {
  const auto space = testsupport::single_cs(
      make_uninitialized_neilsen(),
      testsupport::cs_config(3, topology::Tree::line(3)));
  EXPECT_THROW(
      node_as<NeilsenNode>(*space, 2).start_init(space->context(kCs, 2)),
      std::logic_error);
}

TEST(NeilsenInit, RequestBeforeInitializationRejected) {
  const auto space = testsupport::single_cs(
      make_uninitialized_neilsen(),
      testsupport::cs_config(3, topology::Tree::line(3)));
  EXPECT_THROW(space->acquire(kCs, 2), std::logic_error);
}

TEST(NeilsenInit, ProtocolUsableImmediatelyAfterInit) {
  const auto space = testsupport::single_cs(
      make_uninitialized_neilsen(),
      testsupport::cs_config(5, topology::Tree::star(5, 2)), /*home=*/3);
  node_as<NeilsenNode>(*space, 3).start_init(space->context(kCs, 3));
  space->run_to_quiescence();

  std::vector<NodeId> entered;
  for (NodeId v : {5, 1, 4}) {
    harness::hold_and_release(*space, kCs, v, 2);
  }
  space->run_to_quiescence();
  EXPECT_EQ(space->total_entries(), 3u);
}

}  // namespace
}  // namespace dmx::core
