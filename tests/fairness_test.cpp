// Tests for the fairness analytics (Jain index, bypass counts) and the
// FIFO-by-queue-arrival property of the Neilsen algorithm.
#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "harness/delay_analysis.hpp"
#include "metrics/summary.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::harness {
namespace {

TEST(JainIndex, PerfectlyEvenIsOne) {
  EXPECT_DOUBLE_EQ(metrics::jain_fairness_index({5, 5, 5, 5}), 1.0);
}

TEST(JainIndex, SingleHogIsOneOverN) {
  EXPECT_DOUBLE_EQ(metrics::jain_fairness_index({10, 0, 0, 0}), 0.25);
}

TEST(JainIndex, EdgeCases) {
  EXPECT_DOUBLE_EQ(metrics::jain_fairness_index({}), 1.0);
  EXPECT_DOUBLE_EQ(metrics::jain_fairness_index({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(metrics::jain_fairness_index({7}), 1.0);
}

TEST(BypassCounts, FifoOrderHasZeroBypasses) {
  std::vector<CsEvent> events{
      {0, 1, CsEvent::Kind::kRequest}, {1, 1, CsEvent::Kind::kEnter},
      {2, 2, CsEvent::Kind::kRequest}, {3, 1, CsEvent::Kind::kExit},
      {4, 2, CsEvent::Kind::kEnter},   {5, 2, CsEvent::Kind::kExit},
  };
  const metrics::Summary bypasses = bypass_counts(events);
  EXPECT_EQ(bypasses.count(), 2u);
  EXPECT_EQ(bypasses.max(), 0.0);
}

TEST(BypassCounts, OvertakeIsCounted) {
  // Node 3 requests first but node 2 (requesting later) enters first.
  std::vector<CsEvent> events{
      {0, 3, CsEvent::Kind::kRequest}, {1, 2, CsEvent::Kind::kRequest},
      {2, 2, CsEvent::Kind::kEnter},   {3, 2, CsEvent::Kind::kExit},
      {4, 3, CsEvent::Kind::kEnter},   {5, 3, CsEvent::Kind::kExit},
  };
  const metrics::Summary bypasses = bypass_counts(events);
  EXPECT_EQ(bypasses.count(), 2u);
  EXPECT_EQ(bypasses.max(), 1.0);  // node 3 was bypassed once
}

TEST(EntriesPerNode, CountsEnters) {
  std::vector<CsEvent> events{
      {0, 1, CsEvent::Kind::kEnter},
      {1, 1, CsEvent::Kind::kExit},
      {2, 3, CsEvent::Kind::kEnter},
  };
  const std::vector<double> counts = entries_per_node(events, 3);
  EXPECT_EQ(counts[1], 1.0);
  EXPECT_EQ(counts[2], 0.0);
  EXPECT_EQ(counts[3], 1.0);
}

TEST(NeilsenFairness, SaturatedRunIsNearlyEven) {
  const auto space = testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"),
      testsupport::cs_config(8, topology::Tree::star(8, 1)));
  workload::WorkloadConfig wl;
  wl.target_entries = 400;
  wl.mean_think_ticks = 0.0;
  wl.hold_lo = wl.hold_hi = 8;
  wl.seed = 5;
  const workload::WorkloadResult result =
      workload::run_workload(*space, testsupport::kCs, wl);

  std::vector<double> counts = entries_per_node(result.events, 8);
  counts.erase(counts.begin());  // drop unused slot 0
  EXPECT_GT(metrics::jain_fairness_index(counts), 0.95);
}

TEST(NeilsenFairness, BypassesAreBoundedUnderContention) {
  // The implicit queue serializes by arrival at the sink; overtakes can
  // only happen while a request is still travelling, so bypass counts
  // stay small compared to the number of nodes.
  const auto space = testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"),
      testsupport::cs_config(10, topology::Tree::random_tree(10, 21)));
  workload::WorkloadConfig wl;
  wl.target_entries = 300;
  wl.mean_think_ticks = 3.0;
  wl.hold_lo = wl.hold_hi = 10;
  wl.seed = 9;
  const workload::WorkloadResult result =
      workload::run_workload(*space, testsupport::kCs, wl);

  const metrics::Summary bypasses = bypass_counts(result.events);
  ASSERT_GT(bypasses.count(), 0u);
  EXPECT_LE(bypasses.max(), 10.0);
  EXPECT_LT(bypasses.mean(), 3.0);
}

}  // namespace
}  // namespace dmx::harness
