// Tests for the sharded multi-resource lock service (src/service): the
// consistent-hash directory, the deterministic-sim LockSpace, and the
// Zipf-skewed multi-resource workload driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "baselines/registry.hpp"
#include "service/directory.hpp"
#include "service/lock_space.hpp"
#include "service/space_workload.hpp"
#include "topology/tree.hpp"

namespace dmx::service {
namespace {

LockSpaceConfig space_config(int n, std::uint64_t seed = 1) {
  LockSpaceConfig config;
  config.n = n;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.seed = seed;
  return config;
}

// ---- Directory --------------------------------------------------------------

TEST(Directory, PlacementIsDeterministic) {
  const Directory a(8, 16, 42);
  const Directory b(8, 16, 42);
  for (const char* name : {"users/alice", "users/bob", "orders/1", "x"}) {
    EXPECT_EQ(a.place(name), b.place(name)) << name;
  }
}

TEST(Directory, OpenAssignsDenseIdsAndStableHomes) {
  Directory dir(8);
  const ResourceId r0 = dir.open("a");
  const ResourceId r1 = dir.open("b");
  EXPECT_EQ(r0, 0);
  EXPECT_EQ(r1, 1);
  EXPECT_EQ(dir.open("a"), r0);  // re-open returns the original id
  EXPECT_EQ(dir.resource_count(), 2);
  EXPECT_EQ(dir.name(r1), "b");
  EXPECT_EQ(dir.lookup("b"), r1);
  EXPECT_EQ(dir.lookup("missing"), kNilResource);

  // Opening more resources never moves existing ones.
  const NodeId home_a = dir.home_node(r0);
  for (int i = 0; i < 100; ++i) dir.open("extra-" + std::to_string(i));
  EXPECT_EQ(dir.home_node(r0), home_a);
}

TEST(Directory, GrowingNodeSetMovesFewNames) {
  // The consistent-hashing guarantee: going from 8 to 9 nodes relocates
  // roughly 1/9 of the names, not all of them.
  const Directory small(8, 32, 7);
  const Directory large(9, 32, 7);
  int moved = 0;
  const int kNames = 400;
  for (int i = 0; i < kNames; ++i) {
    const std::string name = "lock-" + std::to_string(i);
    if (small.place(name) != large.place(name)) ++moved;
  }
  EXPECT_GT(moved, 0);            // the new node does take ownership
  EXPECT_LT(moved, kNames / 3);   // ... of a minority of names
}

TEST(Directory, SpreadsNamesAcrossNodes) {
  Directory dir(8, 32, 3);
  std::vector<int> per_node(9, 0);
  for (int i = 0; i < 512; ++i) {
    const ResourceId r = dir.open("k" + std::to_string(i));
    ++per_node[static_cast<std::size_t>(dir.home_node(r))];
  }
  // Every node owns some names, and no node owns a majority (512 names
  // over 8 nodes with 32 vnodes each lands well within these bounds).
  for (NodeId v = 1; v <= 8; ++v) {
    EXPECT_GT(per_node[static_cast<std::size_t>(v)], 0) << "node " << v;
    EXPECT_LT(per_node[static_cast<std::size_t>(v)], 256) << "node " << v;
  }
}

// ---- LockSpace --------------------------------------------------------------

TEST(LockSpace, UncontendedAcquireAtHomeIsSynchronousAndFree) {
  LockSpace space(space_config(4));
  const ResourceId r = space.open("alpha");
  const NodeId home = space.home_node(r);
  const Ticket ticket = space.acquire(r, home);
  EXPECT_TRUE(ticket->granted);  // token already resident: no messages
  EXPECT_EQ(space.network().stats().total_sent, 0u);
  space.release(r, home);
  EXPECT_EQ(space.entries(r), 1u);
}

TEST(LockSpace, RemoteAcquireCompletesThroughTheNetwork) {
  LockSpace space(space_config(4));
  const ResourceId r = space.open("alpha");
  const NodeId home = space.home_node(r);
  const NodeId remote = home == 1 ? 2 : 1;
  const Ticket ticket = space.acquire(r, remote);
  EXPECT_FALSE(ticket->granted);
  space.run_to_quiescence();
  EXPECT_TRUE(ticket->granted);
  EXPECT_TRUE(space.is_in_cs(r, remote));
  space.release(r, remote);
  EXPECT_GT(space.network().stats(r).total_sent, 0u);
}

TEST(LockSpace, DistinctResourcesAdmitConcurrentCriticalSections) {
  LockSpace space(space_config(6));
  const ResourceId a = space.open("a");
  const ResourceId b = space.open("b");
  // Park both CSs at their home nodes simultaneously: per-resource
  // exclusivity is independent across resources (and one node may hold
  // several resources at once when the homes coincide).
  const NodeId ha = space.home_node(a);
  const NodeId hb = space.home_node(b);
  space.acquire(a, ha);
  space.acquire(b, hb);
  space.run_to_quiescence();
  EXPECT_EQ(space.occupant(a), ha);
  EXPECT_EQ(space.occupant(b), hb);
  EXPECT_EQ(space.total_entries(), 2u);
  space.release(a, ha);
  space.release(b, hb);
  space.run_to_quiescence();
}

TEST(LockSpace, SecondAcquireFromOneNodeQueuesBehindTheFirst) {
  LockSpace space(space_config(4));
  const ResourceId r = space.open("solo");
  const NodeId home = space.home_node(r);
  const Ticket first = space.acquire(r, home);
  const Ticket second = space.acquire(r, home);
  EXPECT_TRUE(first->granted);
  EXPECT_FALSE(second->granted);
  EXPECT_EQ(space.local_queue_depth(r, home), 1u);
  space.release(r, home);
  EXPECT_TRUE(second->granted);
  space.release(r, home);
  EXPECT_TRUE(space.is_idle(r, home));
}

TEST(LockSpace, PerResourceAlgorithmSelection) {
  LockSpaceConfig config = space_config(5);
  config.tree = topology::Tree::star(5, 1);
  LockSpace space(std::move(config));
  const ResourceId neilsen = space.open("by-default");
  const ResourceId raymond =
      space.open("by-raymond", baselines::algorithm_by_name("Raymond"));
  const ResourceId suzuki =
      space.open("by-suzuki", baselines::algorithm_by_name("Suzuki-Kasami"));
  EXPECT_EQ(space.algorithm(neilsen).name, "Neilsen");
  EXPECT_EQ(space.algorithm(raymond).name, "Raymond");
  EXPECT_EQ(space.algorithm(suzuki).name, "Suzuki-Kasami");
  // Re-opening under a different algorithm is a caller bug...
  EXPECT_THROW(
      space.open("by-raymond", baselines::algorithm_by_name("Neilsen")),
      std::logic_error);
  // ... but name-based acquire of an existing resource reuses it as-is,
  // whatever algorithm it was opened with.
  const Ticket ticket = space.acquire("by-raymond", space.home_node(raymond));
  EXPECT_TRUE(ticket->granted);
  space.release(raymond, space.home_node(raymond));

  // All three protocols serve their resources over the one network.
  for (const ResourceId r : {neilsen, raymond, suzuki}) {
    for (NodeId v = 1; v <= 5; ++v) {
      space.acquire(r, v, [&space](ResourceId res, NodeId entered) {
        space.release(res, entered);
      });
    }
  }
  space.run_to_quiescence();
  EXPECT_EQ(space.total_entries(), 16u);  // 3 resources x 5 nodes + reuse
  space.check_all_invariants();
}

TEST(LockSpace, AcquireByNameOpensOnDemand) {
  LockSpace space(space_config(4));
  const Ticket ticket = space.acquire("lazy/lock", 2);
  space.run_to_quiescence();
  EXPECT_TRUE(ticket->granted);
  const ResourceId r = space.lookup("lazy/lock");
  ASSERT_NE(r, kNilResource);
  space.release(r, 2);
  EXPECT_EQ(space.entries(r), 1u);
}

TEST(LockSpace, ContendedResourceSerializesWhileOthersProceed) {
  LockSpace space(space_config(6));
  const ResourceId hot = space.open("hot");
  const ResourceId cold = space.open("cold");
  std::vector<std::pair<ResourceId, NodeId>> grants;
  const auto log_and_hold = [&](ResourceId r, NodeId v) {
    grants.emplace_back(r, v);
    space.simulator().schedule_after(
        3, [&space, r, v] { space.release(r, v); });
  };
  for (NodeId v = 1; v <= 6; ++v) space.acquire(hot, v, log_and_hold);
  space.acquire(cold, 3, log_and_hold);
  space.run_to_quiescence();
  EXPECT_EQ(grants.size(), 7u);
  EXPECT_EQ(space.entries(hot), 6u);
  EXPECT_EQ(space.entries(cold), 1u);
  space.check_all_invariants();
}

TEST(LockSpace, DuplicatedTokenOnOneResourceIsDetectedPerResource) {
  // A forged second PRIVILEGE for one resource must trip that resource's
  // token-uniqueness check (counted via the network's per-resource
  // in-flight counters) even while 7 other resources run cleanly.
  LockSpace space(space_config(4));
  for (int i = 0; i < 8; ++i) space.open("res-" + std::to_string(i));
  space.network().duplicate_next("PRIVILEGE");
  bool detected = false;
  try {
    SpaceWorkloadConfig wl;
    wl.target_entries = 200;
    wl.clients_per_node = 2;
    wl.seed = 5;
    run_space_workload(space, wl);
  } catch (const std::logic_error& e) {
    detected = true;
    EXPECT_NE(std::string(e.what()).find("token count"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(detected);
}

TEST(LockSpace, ResidentTokenCounterMatchesScanOnEveryEvent) {
  // check_invariants() now reads a harness-maintained per-resource
  // resident-token counter instead of scanning all N nodes. Cross-check
  // the counter against an explicit has_token() scan after every single
  // event of a busy mixed-algorithm workload.
  LockSpace space(space_config(5, /*seed=*/11));
  space.open("tok/neilsen-0");
  space.open("tok/raymond", baselines::algorithm_by_name("Raymond"));
  space.open("tok/suzuki", baselines::algorithm_by_name("Suzuki-Kasami"));
  space.open("tok/neilsen-1");
  std::uint64_t checked = 0;
  space.set_post_event_hook([&checked](LockSpace& s, ResourceId r) {
    int scanned = 0;
    for (NodeId v = 1; v <= s.nodes(); ++v) {
      if (s.node(r, v).has_token()) ++scanned;
    }
    ASSERT_EQ(s.resident_tokens(r), scanned) << s.name(r);
    ++checked;
  });
  SpaceWorkloadConfig wl;
  wl.target_entries = 400;
  wl.clients_per_node = 2;
  wl.zipf_s = 0.5;
  wl.seed = 11;
  run_space_workload(space, wl);
  EXPECT_GT(checked, 400u);
  // Quiescent: every resource's token is resident somewhere, exactly once.
  for (ResourceId r = 0; r < space.resource_count(); ++r) {
    EXPECT_EQ(space.resident_tokens(r), 1) << space.name(r);
  }
}

TEST(LockSpace, ResidentTokenCounterStaysZeroForNonTokenAlgorithms) {
  LockSpaceConfig config = space_config(3);
  config.algorithm = baselines::algorithm_by_name("Ricart-Agrawala");
  LockSpace space(std::move(config));
  const ResourceId r = space.open("quorumless");
  const Ticket ticket = space.acquire(r, 2);
  space.run_to_quiescence();
  EXPECT_TRUE(ticket->granted);
  space.release(r, 2);
  space.run_to_quiescence();
  EXPECT_EQ(space.resident_tokens(r), 0);
}

// ---- Local grant chaining (lease) -------------------------------------------

TEST(LockSpace, QueueLocalHandsOffToColocatedWaiterWithoutMessages) {
  LockSpaceConfig config = space_config(4);
  LockSpace space(std::move(config));
  const ResourceId r = space.open("hot");
  const NodeId home = space.home_node(r);

  const Ticket holder = space.acquire(r, home);
  EXPECT_TRUE(holder->granted);
  // Second acquire from the same node queues locally instead of throwing.
  const Ticket waiter = space.acquire(r, home);
  EXPECT_FALSE(waiter->granted);
  EXPECT_EQ(space.local_queue_depth(r, home), 1u);

  const std::uint64_t sent_before = space.network().stats().total_sent;
  space.release(r, home);
  // The release handed the CS straight to the waiter: no protocol traffic.
  EXPECT_TRUE(waiter->granted);
  EXPECT_EQ(space.occupant(r), home);
  EXPECT_EQ(space.network().stats().total_sent, sent_before);
  EXPECT_EQ(space.chained_grants(), 1u);
  EXPECT_EQ(space.local_queue_depth(r, home), 0u);
  space.release(r, home);
  EXPECT_EQ(space.entries(r), 2u);
  space.check_all_invariants();
}

TEST(LockSpace, LeaseCapYieldsAndPromotesWaitersInFifoOrder) {
  // max_chain = 1 with renewal off: grant A chains, B must go back
  // through the protocol (a lease yield), C chains again off B's fresh
  // window — and the service order is strictly the local arrival order.
  LockSpaceConfig config = space_config(4);
  config.lease.max_chain = 1;
  config.lease.renew_when_no_remote = false;
  LockSpace space(std::move(config));
  const ResourceId r = space.open("hot");
  const NodeId home = space.home_node(r);

  std::vector<int> order;
  space.acquire(r, home);
  space.acquire(r, home, [&order](ResourceId, NodeId) { order.push_back(0); });
  space.acquire(r, home, [&order](ResourceId, NodeId) { order.push_back(1); });
  space.acquire(r, home, [&order](ResourceId, NodeId) { order.push_back(2); });
  EXPECT_EQ(space.local_queue_depth(r, home), 3u);

  for (int i = 0; i < 4; ++i) {
    space.run_to_quiescence();
    space.release(r, home);
  }
  space.run_to_quiescence();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(space.chained_grants(), 2u);  // grants 0 and 2 rode the chain
  EXPECT_EQ(space.lease_yields(), 1u);    // grant 1 went via the protocol
  EXPECT_EQ(space.entries(r), 4u);
  space.check_all_invariants();
}

TEST(LockSpace, LeaseRenewsAtCapWhenHolderSeesNoRemoteDemand) {
  // Neilsen's holder observes remote interest, and there is none: at the
  // cap the lease renews in place, so every hand-off still chains and no
  // pointless protocol round is paid.
  LockSpaceConfig config = space_config(4);
  config.lease.max_chain = 1;  // renewal on (default)
  LockSpace space(std::move(config));
  const ResourceId r = space.open("hot");
  const NodeId home = space.home_node(r);

  space.acquire(r, home);
  for (int i = 0; i < 3; ++i) space.acquire(r, home);
  for (int i = 0; i < 4; ++i) space.release(r, home);
  EXPECT_EQ(space.chained_grants(), 3u);
  EXPECT_EQ(space.lease_yields(), 0u);
  EXPECT_EQ(space.entries(r), 4u);
  space.check_all_invariants();
}

TEST(LockSpace, BlindAlgorithmAlwaysYieldsAtTheCap) {
  // Central's client nodes cannot see remote demand, so renewal is never
  // sound and the cap is unconditional — the property the nine-algorithm
  // bounded-waiting witness rests on.
  LockSpaceConfig config = space_config(4);
  config.algorithm = baselines::algorithm_by_name("Central");
  config.lease.max_chain = 1;  // renewal on, but must not apply
  LockSpace space(std::move(config));
  const ResourceId r = space.open("hot");
  const NodeId home = space.home_node(r);

  space.acquire(r, home);
  space.run_to_quiescence();
  for (int i = 0; i < 2; ++i) space.acquire(r, home);
  for (int i = 0; i < 3; ++i) {
    space.run_to_quiescence();
    space.release(r, home);
  }
  space.run_to_quiescence();
  EXPECT_EQ(space.chained_grants(), 1u);
  EXPECT_EQ(space.lease_yields(), 1u);
  EXPECT_EQ(space.entries(r), 3u);
  space.check_all_invariants();
}

TEST(LockSpace, RemoteRequesterBreaksTheChainAtTheCap) {
  // With a remote requester visible at the holder, renewal is off the
  // table at the cap: the token must leave the node, the remote side gets
  // its turn, and the remaining local waiter is served afterwards.
  LockSpaceConfig config = space_config(4);
  config.lease.max_chain = 1;
  LockSpace space(std::move(config));
  const ResourceId r = space.open("hot");
  const NodeId home = space.home_node(r);
  const NodeId remote = home == 1 ? 2 : 1;

  space.acquire(r, home);
  for (int i = 0; i < 2; ++i) space.acquire(r, home);
  std::vector<NodeId> grants;
  const Ticket remote_ticket =
      space.acquire(r, remote, [&grants](ResourceId, NodeId v) {
        grants.push_back(v);
      });
  space.run_to_quiescence();  // the remote REQUEST reaches the holder

  space.release(r, home);  // chain 1: still within the lease
  EXPECT_EQ(space.chained_grants(), 1u);
  space.run_to_quiescence();
  space.release(r, home);  // at the cap, remote visible: must yield
  space.run_to_quiescence();
  EXPECT_TRUE(remote_ticket->granted);
  EXPECT_EQ(grants, (std::vector<NodeId>{remote}));
  EXPECT_EQ(space.occupant(r), remote);
  space.release(r, remote);
  space.run_to_quiescence();
  // The last local waiter was promoted into the protocol and served after
  // the remote requester.
  EXPECT_EQ(space.occupant(r), home);
  space.release(r, home);
  space.run_to_quiescence();
  EXPECT_EQ(space.entries(r), 4u);
  EXPECT_EQ(space.local_queue_depth(r, home), 0u);
  space.check_all_invariants();
}

// ---- Space workload ---------------------------------------------------------

TEST(SpaceWorkload, CompletesTargetAcrossResources) {
  LockSpace space(space_config(6));
  for (int i = 0; i < 12; ++i) space.open("r" + std::to_string(i));
  SpaceWorkloadConfig wl;
  wl.target_entries = 600;
  wl.clients_per_node = 2;
  wl.mean_think_ticks = 2.0;
  wl.hold_lo = 0;
  wl.hold_hi = 2;
  const SpaceWorkloadResult result = run_space_workload(space, wl);
  EXPECT_GE(result.entries, 600u);
  EXPECT_GT(result.makespan, 0);
  std::uint64_t by_resource = 0;
  for (const std::uint64_t e : result.entries_by_resource) by_resource += e;
  EXPECT_EQ(by_resource, result.entries);
}

TEST(SpaceWorkload, ZipfSkewConcentratesOnHotResources) {
  LockSpace space(space_config(8));
  const int m = 32;
  for (int i = 0; i < m; ++i) space.open("r" + std::to_string(i));
  SpaceWorkloadConfig wl;
  wl.target_entries = 3000;
  wl.clients_per_node = 2;
  wl.zipf_s = 1.2;
  wl.mean_think_ticks = 1.0;
  wl.seed = 11;
  const SpaceWorkloadResult result = run_space_workload(space, wl);
  // Rank 0 is the hottest name; the top 4 ranks must dominate the tail
  // (with s=1.2 they carry ~60% of the probability mass).
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  for (int i = 0; i < m; ++i) {
    (i < 4 ? head : tail) += result.entries_by_resource[
        static_cast<std::size_t>(i)];
  }
  EXPECT_GT(head, tail);
  EXPECT_GT(result.entries_by_resource[0], result.entries_by_resource[m - 1]);
}

TEST(SpaceWorkload, DeterministicGivenSeed) {
  const auto run_once = [] {
    LockSpace space(space_config(6, /*seed=*/9));
    for (int i = 0; i < 8; ++i) space.open("r" + std::to_string(i));
    SpaceWorkloadConfig wl;
    wl.target_entries = 400;
    wl.clients_per_node = 2;
    wl.zipf_s = 0.9;
    wl.mean_think_ticks = 2.0;
    wl.hold_lo = 0;
    wl.hold_hi = 3;
    wl.seed = 17;
    const SpaceWorkloadResult result = run_space_workload(space, wl);
    return std::tuple{result.entries, result.messages, result.makespan};
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SpaceWorkload, MoreClientsThanResourcesStillCompletes) {
  LockSpace space(space_config(3));
  space.open("only");
  SpaceWorkloadConfig wl;
  wl.target_entries = 60;
  wl.clients_per_node = 4;  // 12 clients all fighting over one resource
  wl.seed = 3;
  const SpaceWorkloadResult result = run_space_workload(space, wl);
  EXPECT_GE(result.entries, 60u);
}

// ---- Acceptance: 64 resources x 8 nodes, Zipf, 10k entries ------------------

TEST(SpaceWorkload, SixtyFourResourcesTenThousandEntriesOnSim) {
  LockSpace space(space_config(8, /*seed=*/2026));
  for (int i = 0; i < 64; ++i) space.open("shard/" + std::to_string(i));
  SpaceWorkloadConfig wl;
  wl.target_entries = 10000;
  wl.clients_per_node = 4;
  wl.zipf_s = 0.99;
  wl.mean_think_ticks = 0.0;  // saturation
  wl.hold_lo = 0;
  wl.hold_hi = 2;
  wl.seed = 2026;
  // Per-resource CS exclusivity and token uniqueness are re-checked by the
  // LockSpace after every one of the ~hundred-thousand events this run
  // executes; a violation throws and fails the test.
  const SpaceWorkloadResult result = run_space_workload(space, wl);
  EXPECT_GE(result.entries, 10000u);
  EXPECT_EQ(space.resource_count(), 64);
  space.check_all_invariants();
  // Every node went home with no waiter stranded.
  for (ResourceId r = 0; r < 64; ++r) {
    for (NodeId v = 1; v <= 8; ++v) {
      EXPECT_FALSE(space.is_waiting(r, v));
    }
  }
}

TEST(SpaceWorkload, ThroughputScalesWithResourceCount) {
  // The saturation regime of bench_service, asserted as a regression
  // floor: 64 independent resources must admit >= 3x the aggregate
  // virtual-time throughput of a single serialized resource.
  const auto throughput = [](int resources) {
    LockSpace space(space_config(8, /*seed=*/5));
    for (int i = 0; i < resources; ++i) {
      space.open("s/" + std::to_string(i));
    }
    SpaceWorkloadConfig wl;
    wl.target_entries = 4000;
    wl.clients_per_node = 4;
    wl.zipf_s = 0.0;
    wl.mean_think_ticks = 0.0;
    wl.seed = 5;
    return run_space_workload(space, wl).entries_per_kilotick;
  };
  const double single = throughput(1);
  const double sharded = throughput(64);
  EXPECT_GE(sharded, 3.0 * single)
      << "single=" << single << " sharded=" << sharded;
}

}  // namespace
}  // namespace dmx::service
