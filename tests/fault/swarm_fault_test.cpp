// Swarm testing under crash/recovery injection: every algorithm must run
// green through a crash + rejoin schedule with regeneration on, the same
// seed + plan must reproduce bit-identical traces, and with regeneration
// off a token-holder crash must end in a DETECTED token loss carrying a
// one-line repro.
#include <gtest/gtest.h>

#include <string>

#include "baselines/registry.hpp"
#include "modelcheck/swarm.hpp"
#include "service/lock_space.hpp"

namespace dmx::modelcheck {
namespace {

/// Home (= initial token holder) of the swarm's single resource for this
/// (n, seed): the swarm's LockSpace places "swarm/res-1" by consistent
/// hash, so a probe space with the same parameters sees the same home.
NodeId swarm_resource_home(int n, std::uint64_t seed) {
  service::LockSpaceConfig config;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.seed = seed;
  service::LockSpace probe(std::move(config));
  return probe.home_node(probe.open("swarm/res-1"));
}

TEST(SwarmFault, AllAlgorithmsSurviveCrashAndRejoinAcrossSeeds) {
  for (const proto::Algorithm& algorithm : baselines::all_algorithms()) {
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      SwarmConfig config;
      config.algorithm = &algorithm;
      config.n = 6;
      config.seed = seed;
      config.target_entries = 25;
      config.latency_hi = 8;
      // Crash a seed-dependent node mid-run, bring it back later; the
      // repair machinery must keep the run green and drain every waiter.
      const NodeId victim = static_cast<NodeId>(seed % 6) + 1;
      config.fault_plan.crash(50, victim).recover(400, victim);
      const SwarmResult result = run_swarm(config);
      ASSERT_TRUE(result.ok)
          << algorithm.name << " seed " << seed << ": " << result.violation;
      EXPECT_GE(result.entries, config.target_entries) << result.repro;
    }
  }
}

// ---- Pinned plans for the shipped REPAIR/ACK ballot ------------------------
// Each plan aims a second fault at a moment of the ballot; every algorithm
// must stay green across 16 seeds. A failure prints the run's repro line.

/// Runs `plan_for(seed)` for every algorithm over seeds 1..16 with the
/// shape shared by the ballot plans: 6 nodes, one resource, latency 4..8,
/// so a REPAIR announced at t lands in [t+4, t+8] and no ack is back
/// before t+8.
template <typename Plan>
void run_ballot_plans(const Plan& plan_for, Tick hold_lo, Tick hold_hi) {
  for (const proto::Algorithm& algorithm : baselines::all_algorithms()) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      SwarmConfig config;
      config.algorithm = &algorithm;
      config.n = 6;
      config.seed = seed;
      config.target_entries = 25;
      config.latency_lo = 4;
      config.latency_hi = 8;
      config.hold_lo = hold_lo;
      config.hold_hi = hold_hi;
      config.fault_plan = plan_for(seed);
      const SwarmResult result = run_swarm(config);
      ASSERT_TRUE(result.ok) << algorithm.name << " seed " << seed << ": "
                             << result.violation;
      EXPECT_GE(result.entries, config.target_entries) << result.repro;
    }
  }
}

/// The regenerator the survivors of `crashed` elect.
NodeId smallest_other(NodeId crashed) { return crashed == 1 ? 2 : 1; }

TEST(SwarmFault, WinnerDiesMidRepair) {
  // The home crashes at 50; at 75 the survivors detect it and the
  // smallest announces REPAIR. It dies at 81, while some members have
  // adopted its ballot and none of their acks is back: the next smallest
  // must announce above the dead winner's ballot and finish the repair.
  run_ballot_plans(
      [](std::uint64_t seed) {
        const NodeId home = swarm_resource_home(6, seed);
        fault::FaultPlan plan;
        plan.crash(50, home).crash(81, smallest_other(home));
        return plan;
      },
      0, 3);
}

TEST(SwarmFault, RecoverRacesASecondCrash) {
  // A node rejoins at 120 and another crashes at 122: the rejoin ballot
  // (detected at 145) and the crash detection (147) overlap.
  run_ballot_plans(
      [](std::uint64_t seed) {
        const NodeId first = static_cast<NodeId>(seed % 6) + 1;
        const NodeId second = static_cast<NodeId>((seed + 2) % 6) + 1;
        fault::FaultPlan plan;
        plan.crash(50, first).recover(120, first).crash(122, second);
        return plan;
      },
      0, 3);
}

TEST(SwarmFault, CrashDuringAnInstallDeferredOnAHolder) {
  // Holds of 20-40 ticks keep a survivor inside the CS when the repair of
  // the crash at 50 arrives (79-83), so its install waits for the unlock;
  // a second node crashes at 85, while that install is still deferred.
  run_ballot_plans(
      [](std::uint64_t seed) {
        const NodeId first = static_cast<NodeId>(seed % 6) + 1;
        const NodeId second = static_cast<NodeId>((seed + 3) % 6) + 1;
        fault::FaultPlan plan;
        plan.crash(50, first).crash(85, second);
        return plan;
      },
      20, 40);
}

TEST(SwarmFault, SameSeedAndPlanReproduceTheSameTrace) {
  for (std::uint64_t seed : {7u, 21u}) {
    SwarmConfig config;
  const proto::Algorithm algo = baselines::algorithm_by_name("Neilsen");
  config.algorithm = &algo;
    config.n = 6;
    config.seed = seed;
    config.target_entries = 30;
    config.latency_hi = 8;
    config.fault_plan.crash(40, 3).recover(300, 3);
    const SwarmResult first = run_swarm(config);
    const SwarmResult second = run_swarm(config);
    ASSERT_TRUE(first.ok) << first.violation;
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.entries, second.entries);
    EXPECT_EQ(first.makespan, second.makespan);
  }
}

TEST(SwarmFault, CrashDeterminismGolden) {
  // Pinned end-to-end hash of one crash-repair schedule. A change here
  // means the fault substrate's event ordering changed — intentional
  // changes must re-pin, anything else is a determinism regression.
  SwarmConfig config;
  const proto::Algorithm algo = baselines::algorithm_by_name("Neilsen");
  config.algorithm = &algo;
  config.n = 6;
  config.seed = 11;
  config.target_entries = 30;
  config.latency_hi = 8;
  config.fault_plan.crash(40, 2).recover(300, 2);
  const SwarmResult result = run_swarm(config);
  ASSERT_TRUE(result.ok) << result.violation;
  EXPECT_EQ(result.trace_hash, 0xb87dc9dc0e8c1a42ULL)
      << "trace hash 0x" << std::hex << result.trace_hash;
}

TEST(SwarmFault, TokenLossIsDetectedWhenRegenerationIsOff) {
  // The counterexample configuration the invariant must catch: the token
  // holder dies at t=0 and nobody is allowed to regenerate.
  SwarmConfig config;
  const proto::Algorithm algo = baselines::algorithm_by_name("Neilsen");
  config.algorithm = &algo;
  config.n = 6;
  config.seed = 5;
  config.target_entries = 20;
  config.crash_recovery_enabled = false;
  config.fault_plan.crash(0, swarm_resource_home(6, 5));
  const SwarmResult result = run_swarm(config);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("token count is 0"), std::string::npos)
      << result.violation;
  // The failure carries a replayable one-line repro.
  EXPECT_NE(result.violation.find("repro: swarm algorithm=Neilsen"),
            std::string::npos)
      << result.violation;
  EXPECT_NE(result.repro.find("faults='crash"), std::string::npos)
      << result.repro;
  EXPECT_NE(result.repro.find("recovery=off"), std::string::npos);
}

TEST(SwarmFault, MultiResourceCrashRunStaysGreen) {
  // Crash repair is per resource over one shared network: every resource
  // must regenerate independently and drain.
  SwarmConfig config;
  const proto::Algorithm algo = baselines::algorithm_by_name("Raymond");
  config.algorithm = &algo;
  config.n = 6;
  config.seed = 13;
  config.resources = 4;
  config.zipf_s = 0.8;
  config.target_entries = 60;
  config.latency_hi = 8;
  config.fault_plan.crash(60, 4).recover(500, 4);
  const SwarmResult result = run_swarm(config);
  ASSERT_TRUE(result.ok) << result.violation;
  EXPECT_GE(result.entries, config.target_entries);
}

}  // namespace
}  // namespace dmx::modelcheck
