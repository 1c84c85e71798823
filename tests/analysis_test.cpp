// Tests for the closed-form cost models — including the key property that
// measured averages on ARBITRARY trees equal the analytic generalization
// of the paper's §6.2 derivation.
#include <gtest/gtest.h>

#include "analysis/formulas.hpp"
#include "baselines/registry.hpp"
#include "harness/probe.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"

namespace dmx::analysis {
namespace {

TEST(Formulas, WorstCases) {
  EXPECT_EQ(lamport_worst_case(10), 27);
  EXPECT_EQ(ricart_agrawala_worst_case(10), 18);
  EXPECT_EQ(carvalho_roucairol_worst_case(10), 18);
  EXPECT_EQ(suzuki_kasami_worst_case(10), 10);
  EXPECT_EQ(singhal_worst_case(10), 10);
  EXPECT_EQ(central_worst_case(), 3);
  EXPECT_NEAR(maekawa_best_case(16), 12.0, 1e-9);
  EXPECT_NEAR(maekawa_worst_case(16), 28.0, 1e-9);
}

TEST(Formulas, TopologyDependentWorstCases) {
  const topology::Tree line = topology::Tree::line(9);
  const topology::Tree star = topology::Tree::star(9, 1);
  EXPECT_EQ(neilsen_worst_case(line), 9);   // N on the line
  EXPECT_EQ(neilsen_worst_case(star), 3);   // 3 on the star
  EXPECT_EQ(raymond_worst_case(line), 16);  // 2D
  EXPECT_EQ(raymond_worst_case(star), 4);
}

TEST(Formulas, StarAverageMatchesPaperValues) {
  // §6.2 closed forms at the sizes the bench prints.
  EXPECT_NEAR(neilsen_star_average(3), 14.0 / 9.0, 1e-12);
  EXPECT_NEAR(neilsen_star_average(5), 2.08, 1e-12);
  EXPECT_NEAR(central_average(10), 2.7, 1e-12);
}

TEST(Formulas, TreeAverageGeneralizesStarFormula) {
  // On the star the generalized per-tree average must reduce to the
  // paper's 3 - 5/N + 2/N^2 exactly.
  for (int n : {3, 5, 10, 25}) {
    const topology::Tree star = topology::Tree::star(n, 1);
    EXPECT_NEAR(neilsen_tree_average(star), neilsen_star_average(n), 1e-12)
        << "n=" << n;
  }
}

TEST(Formulas, SyncDelays) {
  const topology::Tree line = topology::Tree::line(7);
  EXPECT_EQ(neilsen_sync_delay(), 1);
  EXPECT_EQ(suzuki_kasami_sync_delay(), 1);
  EXPECT_EQ(singhal_sync_delay(), 1);
  EXPECT_EQ(central_sync_delay(), 2);
  EXPECT_EQ(raymond_sync_delay(line), 6);
}

TEST(Formulas, NeilsenStateBytes) {
  EXPECT_EQ(neilsen_node_state_bytes(), 9u);
}

class TreeAverageProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TreeAverageProperty, MeasuredEqualsAnalyticOnRandomTrees) {
  // The strongest correctness statement about the message-cost model:
  // enumerate all (holder, requester) probes on a random tree and compare
  // with the closed form, for both Neilsen and Raymond.
  const std::uint64_t seed = GetParam();
  const int n = 7;
  const topology::Tree tree = topology::Tree::random_tree(n, seed);

  for (const char* name : {"Neilsen", "Raymond"}) {
    const auto space = testsupport::single_cs(
        baselines::algorithm_by_name(name), testsupport::cs_config(n, tree));
    const ResourceId cs = testsupport::kCs;
    std::uint64_t total = 0;
    for (NodeId holder = 1; holder <= n; ++holder) {
      harness::park_token_at(*space, cs, holder);
      for (NodeId requester = 1; requester <= n; ++requester) {
        total += harness::single_entry_probe(*space, cs, requester)
                     .messages_total;
        harness::park_token_at(*space, cs, holder);
      }
    }
    const double measured =
        static_cast<double>(total) / static_cast<double>(n * n);
    const double analytic = std::string(name) == "Neilsen"
                                ? neilsen_tree_average(tree)
                                : raymond_tree_average(tree);
    EXPECT_NEAR(measured, analytic, 1e-9) << name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeAverageProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace dmx::analysis
