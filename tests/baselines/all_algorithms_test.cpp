// Conformance suite: EVERY registered algorithm (the Neilsen core and all
// eight baselines) must guarantee mutual exclusion (checked continuously
// by the harness), deadlock freedom and starvation freedom under
// randomized workloads across sizes, seeds and latency models.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "../support/single_cs.hpp"
#include "baselines/registry.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::baselines {
namespace {

using testsupport::kCs;

/// The token starts at node seed % n + 1 (Singhal's staircase init still
/// pins it to node 1).
std::unique_ptr<service::LockSpace> make_space(const proto::Algorithm& algo,
                                               int n, std::uint64_t seed,
                                               bool jittery_latency) {
  service::LockSpaceConfig config =
      testsupport::cs_config(n, topology::Tree::random_tree(n, seed));
  if (jittery_latency) {
    config.latency_model = std::make_unique<net::ExponentialLatency>(3.0);
  }
  config.seed = seed;
  return testsupport::single_cs(algo, std::move(config),
                                static_cast<NodeId>(seed % n + 1));
}

using Params = std::tuple<std::string, int, std::uint64_t>;

class AlgorithmConformance : public ::testing::TestWithParam<Params> {};

TEST_P(AlgorithmConformance, SafeAndLiveUnderContention) {
  const auto& [name, n, seed] = GetParam();
  const proto::Algorithm algo = algorithm_by_name(name);
  const auto space = make_space(algo, n, seed, /*jittery=*/false);

  workload::WorkloadConfig wl;
  wl.target_entries = 150;
  wl.mean_think_ticks = 5.0;  // moderate contention
  wl.hold_lo = 0;
  wl.hold_hi = 4;
  wl.seed = seed * 31 + 7;
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);
  EXPECT_GE(result.entries, wl.target_entries);
}

TEST_P(AlgorithmConformance, SafeAndLiveUnderJitteryNetwork) {
  const auto& [name, n, seed] = GetParam();
  const proto::Algorithm algo = algorithm_by_name(name);
  const auto space = make_space(algo, n, seed, /*jittery=*/true);

  workload::WorkloadConfig wl;
  wl.target_entries = 120;
  wl.mean_think_ticks = 0.0;  // saturation
  wl.seed = seed * 13 + 3;
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);
  EXPECT_GE(result.entries, wl.target_entries);
}

TEST_P(AlgorithmConformance, NoStarvationUnderSaturation) {
  const auto& [name, n, seed] = GetParam();
  const proto::Algorithm algo = algorithm_by_name(name);
  const auto space = make_space(algo, n, seed, /*jittery=*/false);

  workload::WorkloadConfig wl;
  wl.target_entries = static_cast<std::uint64_t>(12 * n);
  wl.mean_think_ticks = 0.0;
  wl.seed = seed;
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);

  std::map<NodeId, int> entries;
  for (const auto& event : result.events) {
    if (event.kind == harness::CsEvent::Kind::kEnter) {
      entries[event.node] += 1;
    }
  }
  for (NodeId v = 1; v <= n; ++v) {
    EXPECT_GE(entries[v], 1) << name << ": node " << v << " starved";
  }
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto& algo : all_algorithms()) {
    names.push_back(algo.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmConformance,
    ::testing::Combine(::testing::ValuesIn(algorithm_names()),
                       ::testing::Values(2, 4, 7, 13),
                       ::testing::Values(1u, 9u, 23u, 77u)),
    [](const ::testing::TestParamInfo<Params>& info) {
      std::string name = std::get<0>(info.param) + "_n" +
                         std::to_string(std::get<1>(info.param)) + "_s" +
                         std::to_string(std::get<2>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(AlgorithmRegistry, ContainsAllNine) {
  EXPECT_EQ(all_algorithms().size(), 9u);
  EXPECT_EQ(token_algorithms().size(), 4u);
}

TEST(AlgorithmRegistry, LookupByNameWorksAndRejectsUnknown) {
  EXPECT_EQ(algorithm_by_name("Neilsen").name, "Neilsen");
  EXPECT_TRUE(algorithm_by_name("Raymond").token_based);
  EXPECT_THROW(algorithm_by_name("nope"), std::logic_error);
}

TEST(AlgorithmRegistry, SingleNodeClustersWorkEverywhere) {
  // Degenerate n=1: every algorithm must grant locally with no messages.
  for (const auto& algo : all_algorithms()) {
    const auto owned = testsupport::single_cs(
        algo, testsupport::cs_config(1, topology::Tree::from_edges(1, {})));
    service::LockSpace& space = *owned;
    for (int i = 0; i < 3; ++i) {
      bool entered = false;
      space.acquire(kCs, 1, [&](ResourceId, NodeId) { entered = true; });
      space.run_to_quiescence();
      EXPECT_TRUE(entered) << algo.name;
      space.release(kCs, 1);
    }
    EXPECT_EQ(space.network().stats().total_sent, 0u) << algo.name;
  }
}

}  // namespace
}  // namespace dmx::baselines

// ---- extreme reordering ------------------------------------------------------
// Cross-channel delivery order scrambled as hard as the FIFO-per-channel
// guarantee allows: latencies uniform in [1, 50] while hops normally take
// 1 tick. Catches protocols that accidentally rely on cross-channel
// timing (the per-channel guarantee is the only one the paper grants).

namespace dmx::baselines {
namespace {

using testsupport::kCs;

class ExtremeReorder : public ::testing::TestWithParam<std::string> {};

TEST_P(ExtremeReorder, SafeAndLiveUnderScrambledDelivery) {
  const proto::Algorithm algo = algorithm_by_name(GetParam());
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    service::LockSpaceConfig config =
        testsupport::cs_config(7, topology::Tree::random_tree(7, seed));
    config.latency_model = std::make_unique<net::UniformLatency>(1, 50);
    config.seed = seed;
    const auto owned =
        testsupport::single_cs(algo, std::move(config), /*home=*/4);
    service::LockSpace& space = *owned;

    workload::WorkloadConfig wl;
    wl.target_entries = 120;
    wl.mean_think_ticks = 10.0;
    wl.hold_lo = 0;
    wl.hold_hi = 5;
    wl.seed = seed * 53 + 1;
    const workload::WorkloadResult result =
        workload::run_workload(space, kCs, wl);
    ASSERT_GE(result.entries, wl.target_entries)
        << algo.name << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtremeReorder,
    ::testing::Values("Neilsen", "Raymond", "Central", "Suzuki-Kasami",
                      "Singhal", "Lamport", "Ricart-Agrawala",
                      "Carvalho-Roucairol", "Maekawa"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dmx::baselines
