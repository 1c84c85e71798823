// Tests for the threaded multi-resource lock service: real threads, real
// blocking named locks, per-(resource, node) strands scheduled on one
// shared work-stealing pool. Per-resource unsynchronized counters are the
// mutual-exclusion witness — lost updates would make a final count fall
// short.
#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "service/threaded_lock_space.hpp"
#include "topology/tree.hpp"

namespace dmx::service {
namespace {

std::vector<std::string> resource_names(int m) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) names.push_back("res/" + std::to_string(i));
  return names;
}

ThreadedLockSpaceConfig make_config(int n, int m,
                                    const std::string& algorithm = "Neilsen",
                                    unsigned jitter_us = 0) {
  ThreadedLockSpaceConfig config;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name(algorithm);
  config.resources = resource_names(m);
  config.jitter_us = jitter_us;
  return config;
}

/// Called inside a critical section: holds it until `count` other clients
/// of node `v` are parked behind it (10 s deadline). A token-resident
/// lock/unlock is granted inside the caller's own call, so client threads
/// started one after another need not overlap at all; tests of local
/// hand-off make the contention they check explicit with this.
void await_local_waiters(ThreadedLockSpace& space, ResourceId r, NodeId v,
                         int count) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (space.local_waiters(r, v) < count &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadedLockSpace, PerResourceCountersHaveNoLostUpdates) {
  const int n = 4;
  const int m = 6;
  const int rounds = 30;
  ThreadedLockSpace space(make_config(n, m));

  std::vector<long long> counters(static_cast<std::size_t>(m), 0);
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= n; ++v) {
    threads.emplace_back([&space, &counters, v] {
      // Every node walks every resource: cross-resource traffic shares
      // one worker pool, each (resource, node) on its own strand.
      for (int i = 0; i < rounds; ++i) {
        for (ResourceId r = 0; r < m; ++r) {
          ScopedLock guard(space, r, v);
          const long long read = counters[static_cast<std::size_t>(r)];
          std::this_thread::yield();  // widen the race window
          counters[static_cast<std::size_t>(r)] = read + 1;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (ResourceId r = 0; r < m; ++r) {
    EXPECT_EQ(counters[static_cast<std::size_t>(r)],
              static_cast<long long>(n) * rounds)
        << space.name(r);
    EXPECT_EQ(space.entries(r), static_cast<std::uint64_t>(n) * rounds);
  }
  EXPECT_EQ(space.total_entries(),
            static_cast<std::uint64_t>(n) * m * rounds);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, LocalWaitersQueueOnOneProtocolRequest) {
  // Several application threads on the SAME node contend for the same
  // resource: local hand-off must serialize them without double-posting
  // protocol requests (the paper allows one outstanding request per node).
  ThreadedLockSpace space(make_config(3, 2));
  const ResourceId r = 0;
  long long counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&space, &counter] {
      for (int i = 0; i < 25; ++i) {
        ScopedLock guard(space, ResourceId{0}, NodeId{2});
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, 100);
  EXPECT_EQ(space.entries(r), 100u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, HoldsTwoResourcesFromOneNodeConcurrently) {
  ThreadedLockSpace space(make_config(3, 2));
  ScopedLock a(space, ResourceId{0}, NodeId{1});
  ScopedLock b(space, ResourceId{1}, NodeId{1});  // must not deadlock
  EXPECT_FALSE(space.first_error().has_value());
}

TEST(ThreadedLockSpace, ScopedLockByNameAndDirectoryAgree) {
  ThreadedLockSpace space(make_config(4, 3));
  EXPECT_EQ(space.resource_count(), 3);
  const ResourceId r = space.lookup("res/1");
  ASSERT_NE(r, kNilResource);
  EXPECT_EQ(space.name(r), "res/1");
  EXPECT_GE(space.home_node(r), 1);
  EXPECT_LE(space.home_node(r), 4);
  {
    ScopedLock guard(space, "res/1", 3);
  }
  EXPECT_EQ(space.entries(r), 1u);
}

TEST(ThreadedLockSpace, BogusUnlockThrowsWithoutCorruptingTheWitness) {
  ThreadedLockSpace space(make_config(3, 2));
  // Unlocking a resource this node does not hold is rejected on the
  // calling thread, before the occupancy witness moves...
  EXPECT_THROW(space.unlock(ResourceId{0}, 2), std::logic_error);
  // ... so subsequent legitimate locking sees a clean counter and reports
  // no phantom exclusivity violation.
  for (NodeId v = 1; v <= 3; ++v) {
    ScopedLock guard(space, ResourceId{0}, v);
  }
  EXPECT_EQ(space.entries(0), 3u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, PerResourceAlgorithmSelectionMixesProtocols) {
  // Parity with the sim LockSpace: resources may run different protocols
  // in one space. Two Raymond shards ride alongside two Neilsen shards
  // and all four serve cross-node traffic on the shared pool.
  ThreadedLockSpaceConfig config = make_config(4, 4, "Neilsen");
  config.resource_algorithms.emplace_back(
      "res/1", baselines::algorithm_by_name("Raymond"));
  config.resource_algorithms.emplace_back(
      "res/3", baselines::algorithm_by_name("Raymond"));
  ThreadedLockSpace space(std::move(config));
  EXPECT_EQ(space.algorithm(space.lookup("res/0")).name, "Neilsen");
  EXPECT_EQ(space.algorithm(space.lookup("res/1")).name, "Raymond");
  EXPECT_EQ(space.algorithm(space.lookup("res/3")).name, "Raymond");

  std::vector<long long> counters(4, 0);
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= 4; ++v) {
    threads.emplace_back([&space, &counters, v] {
      for (int i = 0; i < 20; ++i) {
        for (ResourceId r = 0; r < 4; ++r) {
          ScopedLock guard(space, r, v);
          const long long read = counters[static_cast<std::size_t>(r)];
          std::this_thread::yield();
          counters[static_cast<std::size_t>(r)] = read + 1;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (ResourceId r = 0; r < 4; ++r) {
    EXPECT_EQ(counters[static_cast<std::size_t>(r)], 80) << space.name(r);
  }
  EXPECT_EQ(space.total_entries(), 320u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, UnknownResourceAlgorithmOverrideIsRejected) {
  ThreadedLockSpaceConfig config = make_config(2, 2);
  config.resource_algorithms.emplace_back(
      "res/404", baselines::algorithm_by_name("Raymond"));
  EXPECT_THROW(ThreadedLockSpace space(std::move(config)),
               std::logic_error);
}

TEST(ThreadedLockSpace, ExplicitWorkerAndSpinKnobsAreHonored) {
  ThreadedLockSpaceConfig config = make_config(3, 3);
  config.workers = 2;
  config.spin = 4;
  ThreadedLockSpace space(std::move(config));
  EXPECT_EQ(space.workers(), 2);
  for (NodeId v = 1; v <= 3; ++v) {
    ScopedLock guard(space, ResourceId{0}, v);
  }
  EXPECT_EQ(space.entries(0), 3u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, OversubscribedAppThreadsUnderJitterStayExclusive) {
  // More application threads than cores, more pool workers than cores,
  // and randomized delivery delays: the scheduler is free to interleave
  // strand activations across workers in ugly ways, and the witness
  // counters must still come out exact.
  const int n = 4;
  const int m = 8;
  const int threads_per_node = 3;
  const int rounds = 12;
  ThreadedLockSpaceConfig config = make_config(n, m, "Neilsen",
                                               /*jitter_us=*/200);
  config.workers = 8;
  config.spin = 8;  // park eagerly; the cores are oversubscribed
  ThreadedLockSpace space(std::move(config));

  std::vector<long long> counters(static_cast<std::size_t>(m), 0);
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= n; ++v) {
    for (int t = 0; t < threads_per_node; ++t) {
      threads.emplace_back([&space, &counters, v, t] {
        Rng rng(static_cast<std::uint64_t>(v) * 977 +
                static_cast<std::uint64_t>(t) * 131 + 1);
        for (int i = 0; i < rounds; ++i) {
          const auto r = static_cast<ResourceId>(
              rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
          ScopedLock guard(space, r, v);
          const long long read = counters[static_cast<std::size_t>(r)];
          std::this_thread::yield();
          counters[static_cast<std::size_t>(r)] = read + 1;
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();

  long long counted = 0;
  for (ResourceId r = 0; r < m; ++r) {
    counted += counters[static_cast<std::size_t>(r)];
    EXPECT_EQ(counters[static_cast<std::size_t>(r)],
              static_cast<long long>(space.entries(r)))
        << space.name(r);
  }
  EXPECT_EQ(counted, static_cast<long long>(n) * threads_per_node * rounds);
  EXPECT_EQ(space.total_entries(),
            static_cast<std::uint64_t>(counted));
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, JitteryDeliverySurvivesAcrossAlgorithms) {
  for (const char* algorithm : {"Neilsen", "Suzuki-Kasami"}) {
    ThreadedLockSpace space(make_config(3, 4, algorithm, /*jitter_us=*/100));
    std::vector<std::thread> threads;
    for (NodeId v = 1; v <= 3; ++v) {
      threads.emplace_back([&space, v] {
        Rng rng(static_cast<std::uint64_t>(v) * 131);
        for (int i = 0; i < 20; ++i) {
          const auto r = static_cast<ResourceId>(rng.uniform_int(0, 3));
          ScopedLock guard(space, r, v);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(space.total_entries(), 60u) << algorithm;
    EXPECT_FALSE(space.first_error().has_value())
        << algorithm << ": " << *space.first_error();
  }
}

TEST(ThreadedLockSpace, ZeroTimeoutConsumesAnAlreadyLatchedGrant) {
  // try_lock_for with an already-elapsed deadline must still consume a
  // grant that latched before (or while) the waiter parked: the pred-form
  // cv wait checks the predicate after its final wake, so a latched grant
  // yields kOk, never a kTimeout that strands the grant. On a one-node
  // space the protocol grants near-instantly, so hammering zero-timeout
  // attempts exercises both races — grant latched before the deadline
  // check (kOk) and after it (kTimeout, with on_grant handing the CS
  // back). Either way the bookkeeping must balance: every kOk is
  // unlockable, entries equal successes, and no grant stays latched.
  ThreadedLockSpace space(make_config(1, 1));
  const ResourceId r = 0;
  const NodeId v = 1;
  int ok = 0;
  int timeout = 0;
  for (int i = 0; i < 400; ++i) {
    const LockError error =
        space.try_lock_for(r, v, std::chrono::milliseconds(0));
    if (error == LockError::kOk) {
      ++ok;
      space.unlock(r, v);
    } else {
      EXPECT_EQ(error, LockError::kTimeout);
      ++timeout;
    }
  }
  EXPECT_EQ(space.entries(r), static_cast<std::uint64_t>(ok));
  // No grant may stay latched after a timeout: a subsequent blocking lock
  // must succeed (it would hang forever on a stranded handshake).
  space.lock(r, v);
  space.unlock(r, v);
  EXPECT_EQ(space.entries(r), static_cast<std::uint64_t>(ok) + 1);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, ZeroTimeoutWhileHeldLocallyTimesOutCleanly) {
  // Deterministic expired-deadline path: another thread of the SAME node
  // holds the resource, so the zero-timeout attempt can never be granted
  // and must return kTimeout without posting a duplicate protocol request
  // or corrupting the local hand-off state.
  ThreadedLockSpace space(make_config(2, 1));
  const ResourceId r = 0;
  const NodeId v = 1;
  space.lock(r, v);
  EXPECT_EQ(space.try_lock_for(r, v, std::chrono::milliseconds(0)),
            LockError::kTimeout);
  space.unlock(r, v);
  // The timed-out waiter left no residue: both nodes still make progress.
  space.lock(r, v);
  space.unlock(r, v);
  space.lock(r, 2);
  space.unlock(r, 2);
  EXPECT_EQ(space.entries(r), 3u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

// ---- Local grant chaining under the lease -----------------------------------

TEST(ThreadedLockSpace, LocalWaitersAreServedInArrivalOrder) {
  // FIFO hand-off pinned: with the holder parked on the resource, waiters
  // are admitted one at a time (each confirmed parked via local_waiters
  // before the next arrives), so the grant order is the arrival order —
  // both for chained grants and for a fresh protocol grant to the front.
  ThreadedLockSpace space(make_config(3, 1));
  const ResourceId r = 0;
  const NodeId v = 2;
  constexpr int kWaiters = 6;

  space.lock(r, v);
  std::vector<int> order;
  std::mutex order_mutex;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&space, &order, &order_mutex, i] {
      space.lock(ResourceId{0}, NodeId{2});
      {
        std::lock_guard<std::mutex> guard(order_mutex);
        order.push_back(i);
      }
      space.unlock(ResourceId{0}, NodeId{2});
    });
    // Admission barrier: waiter i must be parked before i+1 may issue its
    // ticket, otherwise arrival order itself would be racy.
    while (space.local_waiters(r, v) < i + 1) std::this_thread::yield();
  }
  space.unlock(r, v);
  for (auto& thread : waiters) thread.join();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kWaiters));
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << "grant " << i;
  }
  // All six hand-offs rode the chain (default cap 16): zero protocol
  // rounds between co-located waiters.
  EXPECT_GE(space.chained_grants(), static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(space.entries(r), static_cast<std::uint64_t>(kWaiters) + 1);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, ChainingSkipsProtocolRoundsForColocatedWaiters) {
  // Same workload, chaining on vs off, on Central so every protocol round
  // demonstrably costs coordinator messages: with the default lease the
  // co-located contention is served almost entirely by local hand-offs,
  // with it disabled every entry is a coordinator round-trip. (Neilsen
  // would hide the difference — a re-request from the DAG tail is already
  // message-free.)
  std::uint64_t chained[2] = {0, 0};
  std::uint64_t messages[2] = {0, 0};
  for (int mode = 0; mode < 2; ++mode) {
    ThreadedLockSpaceConfig config = make_config(3, 1, "Central");
    if (mode == 1) config.lease.max_chain = 0;  // disable chaining
    ThreadedLockSpace space(std::move(config));
    // Contend from a node that is NOT the coordinator, so un-chained
    // rounds must cross the wire.
    const NodeId client = space.home_node(0) == 2 ? 3 : 2;
    std::atomic<bool> first{true};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&space, &first, client] {
        for (int i = 0; i < 25; ++i) {
          ScopedLock guard(space, ResourceId{0}, client);
          if (first.exchange(false)) {
            await_local_waiters(space, ResourceId{0}, client, 3);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(space.entries(0), 100u);
    EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
    chained[mode] = space.chained_grants();
    messages[mode] = space.messages_sent();
  }
  EXPECT_GT(chained[0], 0u);
  EXPECT_EQ(chained[1], 0u);  // max_chain = 0 really disables the fast path
  EXPECT_LT(messages[0], messages[1])
      << "chaining should shed protocol traffic for co-located contention";
}

TEST(ThreadedLockSpace, LeaseCapYieldsTheTokenBackToTheProtocol) {
  // max_chain = 1 with renewal off: every second hand-off must go back
  // through the protocol even though only node 2's clients want the
  // resource — the unconditional bound that keeps remote waiting finite.
  ThreadedLockSpaceConfig config = make_config(3, 1);
  config.lease.max_chain = 1;
  config.lease.renew_when_no_remote = false;
  ThreadedLockSpace space(std::move(config));
  std::atomic<bool> first{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&space, &first] {
      for (int i = 0; i < 25; ++i) {
        ScopedLock guard(space, ResourceId{0}, NodeId{2});
        if (first.exchange(false)) {
          await_local_waiters(space, ResourceId{0}, NodeId{2}, 3);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(space.entries(0), 100u);
  EXPECT_GT(space.lease_yields(), 0u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, ExpiredHoldWindowClosesTheChain) {
  // A zero-length hold window (max_hold_ns = 1) fails the window check on
  // every release, and with renewal off no chain may form at all. Each
  // holder keeps the CS until every other client that still has an entry
  // to make is parked behind it, so its release reaches the window check
  // with waiters queued and must yield to the protocol instead.
  const int rounds = 10;
  ThreadedLockSpaceConfig config = make_config(3, 1);
  config.lease.max_hold_ns = 1;
  config.lease.renew_when_no_remote = false;
  ThreadedLockSpace space(std::move(config));
  int unfinished = 3;  // clients with an entry still to come; CS-guarded
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&space, &unfinished] {
      for (int i = 0; i < rounds; ++i) {
        ScopedLock guard(space, ResourceId{0}, NodeId{2});
        const bool last = i + 1 == rounds;
        if (last) --unfinished;
        await_local_waiters(space, ResourceId{0}, NodeId{2},
                            unfinished - (last ? 0 : 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(space.entries(0), 30u);
  EXPECT_EQ(space.chained_grants(), 0u);
  EXPECT_GT(space.lease_yields(), 0u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, ChainingSurvivesRemoteContentionExactly) {
  // Chaining must not cost exclusivity: co-located chains on every node
  // race with cross-node traffic on the same resource, and the
  // unsynchronized witness counter still comes out exact.
  const int n = 3;
  const int threads_per_node = 3;
  const int rounds = 15;
  ThreadedLockSpace space(make_config(n, 1));
  long long counter = 0;
  std::atomic<bool> first{true};
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= n; ++v) {
    for (int t = 0; t < threads_per_node; ++t) {
      threads.emplace_back([&space, &counter, &first, v] {
        for (int i = 0; i < rounds; ++i) {
          ScopedLock guard(space, ResourceId{0}, v);
          if (first.exchange(false)) {
            await_local_waiters(space, ResourceId{0}, v,
                                threads_per_node - 1);
          }
          const long long read = counter;
          std::this_thread::yield();
          counter = read + 1;
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter, static_cast<long long>(n) * threads_per_node * rounds);
  EXPECT_GT(space.chained_grants(), 0u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, TokenResidentAcquireRunsNoPoolTask) {
  // The paper's procedure P1: a node holding the token enters at once.
  // With the token resting at the caller and its strand idle, the gate
  // runs request and release on the caller's own thread, so lock/unlock
  // costs no pool task, no message and no condvar sleep.
  ThreadedLockSpaceConfig config = make_config(2, 1);
  config.workers = 1;
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = 0;
  const NodeId home = space.home_node(r);  // Neilsen's initial holder
  const auto pool_tasks = [&space] {
    return space.telemetry_snapshot().counter("exec.tasks_executed");
  };
  const std::uint64_t before = pool_tasks();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(space.try_lock_for(r, home, std::chrono::seconds(5)),
              LockError::kOk);
    space.unlock(r, home);
  }
  EXPECT_EQ(pool_tasks(), before);
  EXPECT_EQ(space.entries(r), 100u);
  EXPECT_EQ(space.messages_sent(), 0u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, RemoteAcquireOnAQuiescentSpaceRunsNoPoolTask) {
  // The paper's remote entry: one REQUEST to the holder, one PRIVILEGE
  // back. On a quiescent space both destination strands are idle, so the
  // caller's own lock() runs the REQUEST at the holder and the PRIVILEGE
  // at home on its trampoline: the grant lands before the caller would
  // sleep, and no pool task runs.
  ThreadedLockSpaceConfig config = make_config(2, 1);
  config.workers = 1;
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = 0;
  const NodeId holder = space.home_node(r);
  const NodeId caller = holder == 1 ? 2 : 1;
  const auto counter = [&space](const char* name) {
    return space.telemetry_snapshot().counter(name);
  };
  const std::uint64_t pool_tasks = counter("exec.tasks_executed");
  ASSERT_EQ(space.try_lock_for(r, caller, std::chrono::seconds(5)),
            LockError::kOk);
  space.unlock(r, caller);
  EXPECT_EQ(counter("exec.tasks_executed"), pool_tasks);
  EXPECT_EQ(counter("client.parked_waits"), 0u);
  EXPECT_EQ(counter("client.handoff_yields"), 0u);
  EXPECT_EQ(space.messages_sent(), 2u);
  EXPECT_EQ(space.entries(r), 1u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, ReleaseToAParkedRemoteWaiterYieldsOnce) {
  // A remote waiter that parked behind the holder is woken by the
  // holder's unlock, which runs the PRIVILEGE's delivery on its own
  // trampoline and then yields the CPU once to the thread it woke.
  ThreadedLockSpaceConfig config = make_config(2, 1);
  config.workers = 1;
  ThreadedLockSpace space(std::move(config));
  const ResourceId r = 0;
  const NodeId holder = space.home_node(r);
  const NodeId remote = holder == 1 ? 2 : 1;
  const auto counter = [&space](const char* name) {
    return space.telemetry_snapshot().counter(name);
  };
  const std::uint64_t pool_tasks = counter("exec.tasks_executed");
  space.lock(r, holder);
  std::thread waiter([&space, r, remote] {
    ASSERT_EQ(space.try_lock_for(r, remote, std::chrono::seconds(30)),
              LockError::kOk);
    space.unlock(r, remote);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter("client.parked_waits") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(counter("client.parked_waits"), 1u) << "the waiter never parked";
  space.unlock(r, holder);
  waiter.join();
  EXPECT_EQ(counter("client.handoff_yields"), 1u);
  EXPECT_EQ(counter("client.parked_waits"), 1u);
  EXPECT_EQ(counter("exec.tasks_executed"), pool_tasks);
  EXPECT_EQ(space.entries(r), 2u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(ThreadedLockSpace, OneCpuClosedLoopStressKeepsExclusionExact) {
  // Every thread of this test shares one CPU: the runner pins itself, and
  // the pool workers and clients it starts inherit its mask. There, a
  // client that holds the CPU runs whole protocol rounds on its own
  // trampoline while the others wait to be scheduled, and a parked waiter
  // depends on the hand-off yield to get the CPU back.
  constexpr int kNodes = 4;
  constexpr int kResources = 64;
  std::thread runner([] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
    ASSERT_LT(cpu, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);

    ThreadedLockSpaceConfig config = make_config(kNodes, kResources);
    config.workers = 2;
    ThreadedLockSpace space(std::move(config));
    // Unsynchronized per-resource counters: a lost update means two
    // clients were inside one resource at once.
    std::vector<long long> counters(kResources, 0);
    std::vector<std::uint64_t> entries(kNodes, 0);  // one slot per client
    std::atomic<int> not_ok{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (NodeId v = 1; v <= kNodes; ++v) {
      clients.emplace_back([&, v] {
        Rng rng(static_cast<std::uint64_t>(v) * 7919);
        std::uint64_t& mine = entries[static_cast<std::size_t>(v) - 1];
        while (!stop.load(std::memory_order_relaxed)) {
          const auto r =
              static_cast<ResourceId>(rng.uniform_int(0, kResources - 1));
          if (space.try_lock_for(r, v, std::chrono::seconds(2)) !=
              LockError::kOk) {
            not_ok.fetch_add(1);
            continue;
          }
          ++counters[static_cast<std::size_t>(r)];
          ++mine;
          space.unlock(r, v);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
    for (auto& client : clients) client.join();

    std::uint64_t client_entries = 0;
    for (const std::uint64_t e : entries) client_entries += e;
    long long witnessed = 0;
    for (const long long c : counters) witnessed += c;
    EXPECT_GT(client_entries, 0u);
    EXPECT_EQ(not_ok.load(), 0);
    EXPECT_EQ(space.total_entries(), client_entries);
    EXPECT_EQ(static_cast<std::uint64_t>(witnessed), client_entries);
    EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
    // Counted per acquire and per unlock: a yield needs a parked waiter
    // (one client per node, so one waiter per gate), and nearly every
    // message runs on a client's trampoline instead of the pool.
    const telemetry::MetricsSnapshot snap = space.telemetry_snapshot();
    const std::uint64_t parked = snap.counter("client.parked_waits");
    EXPECT_LE(parked, client_entries);
    EXPECT_LE(snap.counter("client.handoff_yields"), parked);
    EXPECT_LT(snap.counter("exec.tasks_executed") * 2, client_entries);
  });
  runner.join();
}

TEST(ThreadedLockSpace, SnapshotRollsUpClientWait) {
  // The gate records wait time on per-resource lanes only; the snapshot
  // folds them into the process-wide client.wait_ns (1-in-8 sampled, so
  // 80 entries on one thread leave ten samples).
  ThreadedLockSpace space(make_config(2, 2));
  for (int i = 0; i < 80; ++i) {
    ScopedLock guard(space, ResourceId{i % 2}, NodeId{1 + i % 2});
  }
  const telemetry::MetricsSnapshot snap = space.telemetry_snapshot();
  const telemetry::HistogramSnapshot* wait = snap.histogram("client.wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_GT(wait->count, 0u);
}

// ---- One resource: every algorithm, timeouts, topologies, message cost ----
//
// One-resource ThreadedLockSpace cases under the suite names Runtime and
// RuntimeAllAlgorithms, kept stable so their results stay comparable
// across the test history.

/// One resource ("res/0") over `n` nodes on a random tree.
ThreadedLockSpaceConfig one_resource(int n, const std::string& algorithm,
                                     unsigned jitter_us = 0) {
  ThreadedLockSpaceConfig config = make_config(n, 1, algorithm, jitter_us);
  config.tree = topology::Tree::random_tree(n, 17);
  return config;
}

class RuntimeAllAlgorithms
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RuntimeAllAlgorithms, SharedCounterHasNoLostUpdates) {
  const int n = 5;
  const int increments_per_node = 40;
  ThreadedLockSpace space(one_resource(n, GetParam()));

  long long counter = 0;  // deliberately unsynchronized
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= n; ++v) {
    threads.emplace_back([&space, &counter, v] {
      for (int i = 0; i < increments_per_node; ++i) {
        ScopedLock guard(space, ResourceId{0}, v);
        const long long read = counter;
        std::this_thread::yield();  // widen the race window
        counter = read + 1;
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter, static_cast<long long>(n) * increments_per_node);
  EXPECT_EQ(space.total_entries(),
            static_cast<std::uint64_t>(n) * increments_per_node);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST_P(RuntimeAllAlgorithms, JitteryDeliverySurvives) {
  const int n = 4;
  ThreadedLockSpace space(one_resource(n, GetParam(), /*jitter_us=*/200));
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= n; ++v) {
    threads.emplace_back([&space, v] {
      for (int i = 0; i < 10; ++i) {
        space.lock(ResourceId{0}, v);
        space.unlock(ResourceId{0}, v);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(space.total_entries(), 40u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RuntimeAllAlgorithms,
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

TEST(Runtime, UncontendedLockIsReentrantFree) {
  ThreadedLockSpace space(one_resource(3, "Neilsen"));
  for (int i = 0; i < 100; ++i) {
    space.lock(0, 1);
    space.unlock(0, 1);
  }
  EXPECT_EQ(space.total_entries(), 100u);
}

TEST(Runtime, TryLockForSucceedsQuickly) {
  ThreadedLockSpace space(one_resource(3, "Neilsen"));
  EXPECT_EQ(space.try_lock_for(0, 2, std::chrono::milliseconds(2000)),
            LockError::kOk);
  space.unlock(0, 2);
}

TEST(Runtime, TryLockForTimesOutWhileBlocked) {
  ThreadedLockSpace space(one_resource(3, "Neilsen"));
  space.lock(0, 1);
  EXPECT_EQ(space.try_lock_for(0, 2, std::chrono::milliseconds(50)),
            LockError::kTimeout);
  space.unlock(0, 1);
  // The request is still outstanding and must eventually be granted.
  space.lock(0, 2);
  space.unlock(0, 2);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(Runtime, TryLockForTimeoutThenLockCompletesSameRequest) {
  // Follow-up semantics of a remote try_lock_for timeout: the protocol
  // request stays outstanding (requests cannot be cancelled), the grant
  // that lands while no thread waits is handed back rather than lost, and
  // a later lock() completes — exactly one entry, no double-posted
  // request, no lost wakeup.
  ThreadedLockSpace space(one_resource(3, "Neilsen"));
  space.lock(0, 1);
  EXPECT_EQ(space.try_lock_for(0, 2, std::chrono::milliseconds(50)),
            LockError::kTimeout);
  // Release while node 2 is NOT blocked in a wait.
  space.unlock(0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  space.lock(0, 2);
  EXPECT_EQ(space.total_entries(), 2u);  // holder's + exactly one for 2
  space.unlock(0, 2);
  // The outstanding-request bookkeeping is fully reset: a fresh cycle
  // issues a new request and completes.
  space.lock(0, 2);
  space.unlock(0, 2);
  EXPECT_EQ(space.total_entries(), 3u);
  // A double-posted request would trip the protocol's one-outstanding-
  // request precondition on the strand and surface here.
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(Runtime, ManyNodesLineTopology) {
  ThreadedLockSpaceConfig config = make_config(12, 1);
  config.tree = topology::Tree::line(12);
  ThreadedLockSpace space(std::move(config));
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= 12; ++v) {
    threads.emplace_back([&space, v] {
      for (int i = 0; i < 5; ++i) ScopedLock guard(space, ResourceId{0}, v);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(space.total_entries(), 60u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

TEST(Runtime, MessageCountingMatchesProtocolCost) {
  // Star topology, token at the hub: locking from the hub is free;
  // locking from a leaf costs exactly REQUEST + PRIVILEGE.
  ThreadedLockSpaceConfig config = make_config(4, 1);
  Directory placement(4, config.directory_vnodes, config.seed);
  const NodeId hub = placement.home_node(placement.open(config.resources[0]));
  config.tree = topology::Tree::star(4, hub);
  ThreadedLockSpace space(std::move(config));
  ASSERT_EQ(space.home_node(0), hub);  // Neilsen's initial token holder

  space.lock(0, hub);
  space.unlock(0, hub);
  EXPECT_EQ(space.messages_sent(), 0u);

  const NodeId leaf = hub == 1 ? 2 : 1;
  space.lock(0, leaf);
  space.unlock(0, leaf);
  EXPECT_EQ(space.messages_sent(), 2u);  // REQUEST + PRIVILEGE
}

}  // namespace
}  // namespace dmx::service
