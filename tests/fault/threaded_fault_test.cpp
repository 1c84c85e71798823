// Crash-fault tests for the threaded substrate: strand quiescing via
// epoch fencing (the thread-kill equivalent), bounded-wait lock attempts
// on dead nodes/resources, and token regeneration with real threads.
// Suite name starts with "ThreadedLockSpace" so the tsan-fast preset's
// name filter picks these up.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "service/threaded_lock_space.hpp"

namespace dmx::service {
namespace {

using namespace std::chrono_literals;

ThreadedLockSpaceConfig fault_config(int n, const std::string& algorithm,
                                     bool recovery) {
  ThreadedLockSpaceConfig config;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name(algorithm);
  config.resources = {"res/0"};
  config.recovery_enabled = recovery;
  config.workers = 2;
  return config;
}

TEST(ThreadedLockSpaceFault, CrashedHomeMakesResourceUnavailable) {
  // Recovery off: killing the home (initial token holder) kills the
  // token, and try_lock_for must report that instead of blocking forever.
  ThreadedLockSpaceConfig config = fault_config(4, "Neilsen", false);
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = space.lookup("res/0");
  const NodeId home = space.home_node(r);
  const NodeId other = home == 1 ? 2 : 1;

  // Sanity: the lock works before the crash.
  EXPECT_EQ(space.try_lock_for(r, other, 2000ms), LockError::kOk);
  space.unlock(r, other);

  space.crash(home);
  EXPECT_FALSE(space.is_node_up(home));
  EXPECT_EQ(space.try_lock_for(r, other, 100ms), LockError::kUnavailable);
  // A crashed caller is equally unavailable.
  EXPECT_EQ(space.try_lock_for(r, home, 100ms), LockError::kUnavailable);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceFault, RepairRegeneratesTokenAfterHomeCrash) {
  // Recovery on: the same home crash is repaired — survivors elect, the
  // token is re-minted, and a blocked waiter gets served.
  ThreadedLockSpaceConfig config = fault_config(4, "Neilsen", true);
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = space.lookup("res/0");
  const NodeId home = space.home_node(r);
  const NodeId other = home == 1 ? 2 : 1;

  space.crash(home);
  EXPECT_EQ(space.try_lock_for(r, other, 5000ms), LockError::kOk);
  space.unlock(r, other);
  EXPECT_GE(space.epoch(r), Epoch{1});
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceFault, EveryAlgorithmSurvivesACrashUnderContention) {
  for (const proto::Algorithm& algorithm : baselines::all_algorithms()) {
    ThreadedLockSpaceConfig config;
    config.n = 4;
    config.algorithm = algorithm;
    config.resources = {"res/0"};
    config.workers = 2;
    ThreadedLockSpace space(std::move(config));
    const ResourceId r = space.lookup("res/0");
    // Singhal pins its token to node 1; crashing the smallest survivor
    // candidate is the harshest choice for every algorithm.
    const NodeId victim =
        algorithm.name == "Singhal" ? 1 : space.home_node(r);

    std::atomic<long long> counter{0};
    std::atomic<bool> crashed{false};
    std::vector<std::thread> threads;
    for (NodeId v = 1; v <= 4; ++v) {
      if (v == victim) continue;
      threads.emplace_back([&space, &counter, &crashed, r, v, victim] {
        for (int i = 0; i < 20; ++i) {
          if (i == 10 && !crashed.exchange(true)) space.crash(victim);
          const LockError error = space.try_lock_for(r, v, 10000ms);
          if (error != LockError::kOk) continue;  // mid-repair timeout
          counter.fetch_add(1, std::memory_order_relaxed);
          space.unlock(r, v);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_FALSE(space.first_error().has_value())
        << algorithm.name << ": " << *space.first_error();
    EXPECT_GT(counter.load(), 0) << algorithm.name;
    EXPECT_GE(space.epoch(r), Epoch{1}) << algorithm.name;
  }
}

TEST(ThreadedLockSpaceFault, RecoveredNodeRejoinsAndLocksAgain) {
  ThreadedLockSpaceConfig config = fault_config(4, "Raymond", true);
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = space.lookup("res/0");
  const NodeId victim = 3;

  space.crash(victim);
  EXPECT_EQ(space.try_lock_for(r, victim, 100ms), LockError::kUnavailable);

  space.recover(victim);
  EXPECT_TRUE(space.is_node_up(victim));
  // Two repairs happened (crash + rejoin): the epoch moved at least twice.
  EXPECT_EQ(space.try_lock_for(r, victim, 5000ms), LockError::kOk);
  space.unlock(r, victim);
  EXPECT_GE(space.epoch(r), Epoch{2});
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceFault, CrashWhileHolderInCsDefersRepairUntilUnlock) {
  ThreadedLockSpaceConfig config = fault_config(4, "Neilsen", true);
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = space.lookup("res/0");
  const NodeId home = space.home_node(r);
  NodeId holder = home == 1 ? 2 : 1;
  NodeId victim = kNilNode;
  for (NodeId v = 1; v <= 4; ++v) {
    if (v != home && v != holder) {
      victim = v;
      break;
    }
  }

  space.lock(r, holder);
  space.crash(victim);  // repair must wait: `holder` is inside its CS
  space.unlock(r, holder);  // completes the deferred repair
  // The survivor world is live again: everyone else can still lock.
  EXPECT_EQ(space.try_lock_for(r, home, 5000ms), LockError::kOk);
  space.unlock(r, home);
  EXPECT_GE(space.epoch(r), Epoch{1});
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceFault, WinnerCrashMidRepairConverges) {
  // The elected regenerator dies while its first ballot is in flight:
  // the next smallest survivor runs a higher ballot, and every survivor
  // converges on its world.
  ThreadedLockSpaceConfig config = fault_config(5, "Neilsen", true);
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = space.lookup("res/0");
  const NodeId home = space.home_node(r);
  const NodeId winner = home == 1 ? 2 : 1;  // smallest survivor

  space.crash(home);
  space.crash(winner);
  std::vector<NodeId> survivors;
  for (NodeId v = 1; v <= 5; ++v) {
    if (v != home && v != winner) survivors.push_back(v);
  }
  ASSERT_EQ(survivors.size(), 3u);
  for (const NodeId v : survivors) {
    ASSERT_EQ(space.try_lock_for(r, v, 10000ms), LockError::kOk) << v;
    space.unlock(r, v);
  }
  // A late ack can still raise a ballot after the last grant; wait for
  // the fences to settle, then require one epoch everywhere.
  const auto settled = [&] {
    for (const NodeId v : survivors) {
      if (space.epoch(r, v) != space.epoch(r, survivors[0])) return false;
    }
    return true;
  };
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  for (const NodeId v : survivors) {
    EXPECT_EQ(space.epoch(r, v), space.epoch(r)) << v;
  }
  EXPECT_GE(space.epoch(r), Epoch{1});
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceFault, CrashRecoverChurnKeepsExclusionAndRejoins) {
  // Crash and recover random nodes (never more than two of five down)
  // under contention, for several rounds of repair and rejoin. A node is
  // crashed only while its client is outside lock() and its critical
  // section, so every entry is a real one: no update may be lost, and
  // once everyone is back every node locks every resource again.
  constexpr int kNodes = 5;
  constexpr int kResources = 3;
  ThreadedLockSpaceConfig config = fault_config(kNodes, "Neilsen", true);
  config.resources = {"res/0", "res/1", "res/2"};
  ThreadedLockSpace space(std::move(config));
  std::vector<std::mutex> client_mutex(kNodes + 1);
  std::vector<long long> counters(kResources, 0);
  std::atomic<long long> entries{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (NodeId v = 1; v <= kNodes; ++v) {
    clients.emplace_back([&, v] {
      for (unsigned i = static_cast<unsigned>(v); !stop.load(); i += 7) {
        const ResourceId r = static_cast<ResourceId>(i % kResources);
        std::lock_guard<std::mutex> guard(client_mutex[v]);
        if (space.try_lock_for(r, v, 20ms) != LockError::kOk) continue;
        const long long read = counters[static_cast<std::size_t>(r)];
        std::this_thread::yield();
        counters[static_cast<std::size_t>(r)] = read + 1;
        entries.fetch_add(1);
        space.unlock(r, v);
      }
    });
  }
  std::vector<bool> down(kNodes + 1, false);
  int down_count = 0;
  for (int round = 0; round < 40; ++round) {
    std::this_thread::sleep_for(5ms);
    const NodeId v = static_cast<NodeId>(round * 3 % kNodes) + 1;
    if (down[static_cast<std::size_t>(v)]) {
      space.recover(v);
      down[static_cast<std::size_t>(v)] = false;
      --down_count;
    } else if (down_count < 2) {
      std::lock_guard<std::mutex> guard(client_mutex[v]);
      space.crash(v);
      down[static_cast<std::size_t>(v)] = true;
      ++down_count;
    }
  }
  for (NodeId v = 1; v <= kNodes; ++v) {
    if (down[static_cast<std::size_t>(v)]) space.recover(v);
  }
  stop.store(true);
  for (auto& client : clients) client.join();

  long long total = 0;
  for (const long long c : counters) total += c;
  EXPECT_EQ(total, entries.load());
  for (ResourceId r = 0; r < kResources; ++r) {
    for (NodeId v = 1; v <= kNodes; ++v) {
      ASSERT_EQ(space.try_lock_for(r, v, 5000ms), LockError::kOk)
          << "resource " << r << " node " << v;
      space.unlock(r, v);
    }
  }
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpaceFault, TimeoutLeavesRequestConsumableByNextWaiter) {
  // No faults at all: a pure bounded-wait exercise. A waiter that times
  // out must not wedge the (resource, node) gate for later waiters.
  ThreadedLockSpaceConfig config = fault_config(2, "Neilsen", true);
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = space.lookup("res/0");

  space.lock(r, 1);
  EXPECT_EQ(space.try_lock_for(r, 2, 20ms), LockError::kTimeout);
  space.unlock(r, 1);
  // The timed-out request's grant is auto-released; node 2 can lock anew.
  EXPECT_EQ(space.try_lock_for(r, 2, 5000ms), LockError::kOk);
  space.unlock(r, 2);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

}  // namespace
}  // namespace dmx::service
