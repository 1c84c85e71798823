// DistributedLockSpace over real processes: fork one process per node,
// rendezvous loopback ports through the harness pipes, and witness
// cross-process mutual exclusion through the MAP_SHARED occupancy
// counters. The registry sweep runs every implemented algorithm over
// loopback TCP — the transport-substrate leg of the substitution argument
// (proto/mutex_node.hpp): unchanged protocol handlers on a third
// substrate.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "transport/distributed_lock_space.hpp"
#include "transport/process_harness.hpp"

namespace dmx::transport {
namespace {

using namespace std::chrono_literals;

/// Shared-witness coordination slots used as raw cross-process channels.
constexpr int kFlagSlot = 0;
constexpr int kBarrierSlot = 1;

/// Quiesce barrier before shutdown(): departure is collective — a node
/// that leaves the mesh while a sibling still wants locks strands that
/// sibling's requests (see distributed_lock_space.hpp), so every body
/// finishes its workload before anyone says GOODBYE.
void done_barrier(SharedWitness& shared, int n) {
  shared.slots[kBarrierSlot].fetch_add(1);
  while (shared.slots[kBarrierSlot].load() < n) {
    std::this_thread::sleep_for(1ms);
  }
}

DistributedLockSpaceConfig make_config(NodeId self, int n,
                                       const std::string& algorithm,
                                       std::vector<std::string> resources) {
  DistributedLockSpaceConfig config;
  config.self = self;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name(algorithm);
  config.resources = std::move(resources);
  return config;
}

/// Brings one node's space up through the harness rendezvous. Returns
/// false if the mesh never formed (a sibling died).
bool bring_up(DistributedLockSpace& space,
              const ProcessHarness::Rendezvous& rendezvous) {
  const std::uint16_t port = space.listen();
  std::vector<std::uint16_t> ports;
  try {
    ports = rendezvous(port);
  } catch (const std::exception&) {
    return false;
  }
  for (NodeId peer = 1; peer < space.self(); ++peer) {
    if (ports[static_cast<std::size_t>(peer)] == 0) return false;
    space.connect(peer, ports[static_cast<std::size_t>(peer)]);
  }
  space.start();
  return space.wait_connected(10000ms);
}

/// The standard workload body: every node hammers every resource
/// `iterations` times, bracketing each critical section with the shared
/// witness. Exit codes: 0 ok, 2 mesh never formed, 3 space error.
ProcessHarness::Body contention_body(int n, const std::string& algorithm,
                                     std::vector<std::string> resources,
                                     int iterations) {
  return [n, algorithm, resources, iterations](
             NodeId self, const ProcessHarness::Rendezvous& rendezvous,
             SharedWitness& shared) -> int {
    DistributedLockSpace space(make_config(self, n, algorithm, resources));
    if (!bring_up(space, rendezvous)) return 2;
    for (int iteration = 0; iteration < iterations; ++iteration) {
      for (const std::string& name : resources) {
        const ResourceId r = space.lookup(name);
        space.lock(r);
        shared.enter(r, self);
        // A few spins inside the section widen the overlap window any
        // exclusivity bug would need to hit.
        for (volatile int spin = 0; spin < 500; ++spin) {
        }
        shared.exit(r);
        space.unlock(r);
      }
    }
    done_barrier(shared, n);
    if (space.first_error().has_value()) return 3;
    space.shutdown();
    return 0;
  };
}

TEST(DistributedLockSpace, NeilsenExcludesAcrossThreeProcesses) {
  const int n = 3;
  const int iterations = 25;
  const std::vector<std::string> resources = {"alpha", "beta"};
  const HarnessResult result =
      ProcessHarness::run(n, contention_body(n, "Neilsen", resources,
                                             iterations));
  ASSERT_TRUE(result.all_ok())
      << "exit codes: " << result.exit_codes[1] << " "
      << result.exit_codes[2] << " " << result.exit_codes[3];
  EXPECT_EQ(result.witness.violations, 0);
  EXPECT_EQ(result.witness.entries,
            static_cast<std::uint64_t>(n * iterations * resources.size()));
  for (int r = 0; r < SharedWitness::kMaxResources; ++r) {
    EXPECT_EQ(result.witness.occupancy[r], 0) << "resource " << r;
  }
}

TEST(DistributedLockSpace, EveryAlgorithmExcludesOverLoopbackTcp) {
  // The full nine-algorithm registry, each over a real three-process
  // mesh. Iteration counts stay small: the point is green exclusivity
  // per algorithm, not throughput.
  const int n = 3;
  const int iterations = 6;
  for (const proto::Algorithm& algorithm : baselines::all_algorithms()) {
    const HarnessResult result = ProcessHarness::run(
        n, contention_body(n, algorithm.name, {"res"}, iterations));
    ASSERT_TRUE(result.all_ok())
        << algorithm.name << " exit codes: " << result.exit_codes[1] << " "
        << result.exit_codes[2] << " " << result.exit_codes[3];
    EXPECT_EQ(result.witness.violations, 0) << algorithm.name;
    EXPECT_EQ(result.witness.entries,
              static_cast<std::uint64_t>(n * iterations))
        << algorithm.name;
  }
}

TEST(DistributedLockSpace, TryLockTimesOutWhileHeldRemotely) {
  const int n = 2;
  const HarnessResult result = ProcessHarness::run(
      n,
      [n](NodeId self, const ProcessHarness::Rendezvous& rendezvous,
          SharedWitness& shared) -> int {
        DistributedLockSpace space(
            make_config(self, n, "Neilsen", {"res"}));
        if (!bring_up(space, rendezvous)) return 2;
        const ResourceId r = space.lookup("res");
        if (self == 1) {
          // Hold the section until node 2 reports its timeout through
          // the flag slot.
          space.lock(r);
          shared.enter(r, self);
          while (shared.slots[kFlagSlot].load() == 0) {
            std::this_thread::sleep_for(1ms);
          }
          shared.exit(r);
          space.unlock(r);
        } else {
          // Wait until node 1 is inside the section, then try with a
          // bounded wait: the grant cannot arrive, so this must time
          // out — and cleanly enough that a real lock works right after.
          while (shared.occupancy[r].load() == 0) {
            std::this_thread::sleep_for(1ms);
          }
          const LockError error = space.try_lock_for(r, 30ms);
          if (error != LockError::kTimeout) return 4;
          shared.slots[kFlagSlot].store(1);
          space.lock(r);
          shared.enter(r, self);
          shared.exit(r);
          space.unlock(r);
        }
        done_barrier(shared, n);
        if (space.first_error().has_value()) return 3;
        space.shutdown();
        return 0;
      });
  ASSERT_TRUE(result.all_ok()) << "exit codes: " << result.exit_codes[1]
                               << " " << result.exit_codes[2];
  EXPECT_EQ(result.witness.violations, 0);
  EXPECT_EQ(result.witness.entries, 2u);
}

TEST(DistributedLockSpace, PeerCrashSurfacesAsUnavailable) {
  // Node 2 dies without the GOODBYE handshake (_exit skips the orderly
  // shutdown). One survivor of two is NOT a live strict majority, so the
  // repair protocol must refuse to regenerate the token: node 1 observes
  // kUnavailable on a bounded wait rather than hanging — the transport
  // analogue of the in-process no-majority path. (Majority crashes that
  // DO repair live in wire_repair_test.cpp.)
  const int n = 2;
  const HarnessResult result = ProcessHarness::run(
      n,
      [n](NodeId self, const ProcessHarness::Rendezvous& rendezvous,
          SharedWitness& shared) -> int {
        DistributedLockSpace space(
            make_config(self, n, "Neilsen", {"res"}));
        if (!bring_up(space, rendezvous)) return 2;
        const ResourceId r = space.lookup("res");
        if (self == 2) {
          // One clean entry proves the mesh worked, then crash hard.
          space.lock(r);
          shared.enter(r, self);
          shared.exit(r);
          space.unlock(r);
          shared.slots[kFlagSlot].store(1);
          _exit(0);  // no GOODBYE, no destructors: a real crash
        }
        while (shared.slots[kFlagSlot].load() == 0) {
          std::this_thread::sleep_for(1ms);
        }
        // Keep asking with a bounded wait; once the loop notices the
        // dead socket every waiter must drain with kUnavailable.
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        while (std::chrono::steady_clock::now() < deadline) {
          const LockError error = space.try_lock_for(r, 100ms);
          if (error == LockError::kUnavailable) return 0;
          if (error == LockError::kOk) space.unlock(r);
        }
        return 5;  // never surfaced
      });
  EXPECT_EQ(result.exit_codes[1], 0);
  EXPECT_EQ(result.exit_codes[2], 0);
  EXPECT_EQ(result.witness.violations, 0);
}

TEST(DistributedLockSpace, EpochBumpMidWaitKeepsDeadline) {
  // Regression: a repair's epoch bump wakes parked clients so they can
  // re-check their predicates. That wake must neither return early (the
  // waiter is not granted, not timed out, and the resource is still
  // available) nor re-park against a recomputed deadline. Single process:
  // the epoch bump comes from the debug fence, the exact stimulus the
  // repair path delivers, without needing a real crash.
  DistributedLockSpace space(make_config(1, 1, "Neilsen", {"res"}));
  space.listen();
  space.start();
  const ResourceId r = space.lookup("res");
  ASSERT_EQ(space.epoch(r), 0u);

  space.lock(r);  // park the second thread behind this hold
  LockError got = LockError::kOk;
  const auto wait_started = std::chrono::steady_clock::now();
  std::thread waiter([&space, r, &got] {
    got = space.try_lock_for(r, 400ms);
  });
  std::this_thread::sleep_for(100ms);
  space.debug_fence_epoch(r);  // wakes the waiter mid-wait
  EXPECT_EQ(space.epoch(r), 1u);
  std::this_thread::sleep_for(100ms);
  // The holder's world is fenced: its release drops itself, so no grant
  // (stale or fresh) can ever reach the waiter — the deadline governs.
  space.unlock(r);
  waiter.join();
  const auto waited = std::chrono::steady_clock::now() - wait_started;

  EXPECT_EQ(got, LockError::kTimeout);
  // Not early (the two wakes at ~100ms and ~200ms must not terminate the
  // wait) and not re-parked past the original deadline.
  EXPECT_GE(waited, 380ms);
  EXPECT_LT(waited, 1500ms);

  // A request minted after the fence is also fenced (no world exists at
  // the bumped epoch); a bounded wait still honors its deadline.
  EXPECT_EQ(space.try_lock_for(r, 50ms), LockError::kTimeout);
  space.shutdown();
}

TEST(DistributedLockSpace, ColocatedClientsChainGrants) {
  // The TCP leg of the gate's local chaining: two client threads share
  // node 1, and the first holder keeps the section until its sibling is
  // parked behind it, so its release must hand the CS straight over (a
  // chained grant, or a renewed lease) instead of a wire round. Node 2
  // joins the contention once that first hand-off is done. Exit codes:
  // 6 no chained grant, 7 the sibling never parked.
  const int n = 2;
  const int iterations = 20;
  const HarnessResult result = ProcessHarness::run(
      n,
      [n](NodeId self, const ProcessHarness::Rendezvous& rendezvous,
          SharedWitness& shared) -> int {
        DistributedLockSpace space(make_config(self, n, "Neilsen", {"res"}));
        if (!bring_up(space, rendezvous)) return 2;
        const ResourceId r = space.lookup("res");
        const auto critical_section = [&space, &shared, r, self] {
          space.lock(r);
          shared.enter(r, self);
          shared.exit(r);
          space.unlock(r);
        };
        int code = 0;
        if (self == 1) {
          space.lock(r);
          shared.enter(r, self);
          std::thread sibling([&critical_section] {
            for (int i = 0; i < iterations; ++i) critical_section();
          });
          const auto deadline = std::chrono::steady_clock::now() + 10s;
          while (space.local_waiters(r) < 1 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          if (space.local_waiters(r) < 1) code = 7;
          shared.exit(r);
          space.unlock(r);
          shared.slots[kFlagSlot].store(1);
          for (int i = 1; i < iterations; ++i) critical_section();
          sibling.join();
          if (code == 0 && space.chained_grants() == 0) code = 6;
        } else {
          while (shared.slots[kFlagSlot].load() == 0) {
            std::this_thread::sleep_for(1ms);
          }
          for (int i = 0; i < iterations; ++i) critical_section();
        }
        done_barrier(shared, n);
        if (space.first_error().has_value()) return 3;
        space.shutdown();
        return code;
      });
  ASSERT_TRUE(result.all_ok()) << "exit codes: " << result.exit_codes[1]
                               << " " << result.exit_codes[2];
  EXPECT_EQ(result.witness.violations, 0);
  EXPECT_EQ(result.witness.entries,
            static_cast<std::uint64_t>(3 * iterations));
}

TEST(DistributedLockSpace, SnapshotRollsUpClientWait) {
  // Parity with ThreadedLockSpace: the per-resource wait lanes fold into
  // the process-wide client.wait_ns at snapshot time (1-in-8 sampled, so
  // 80 entries on one thread leave ten samples).
  DistributedLockSpace space(make_config(1, 1, "Neilsen", {"res"}));
  space.listen();
  space.start();
  const ResourceId r = space.lookup("res");
  for (int i = 0; i < 80; ++i) {
    space.lock(r);
    space.unlock(r);
  }
  const telemetry::MetricsSnapshot snap = space.telemetry_snapshot();
  const telemetry::HistogramSnapshot* wait = snap.histogram("client.wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count, 0u);
  EXPECT_EQ(space.total_entries(), 80u);
  space.shutdown();
}

}  // namespace
}  // namespace dmx::transport
