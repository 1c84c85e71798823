// Tests for the client gate (service/gate.hpp) on its own: two gates of
// one Neilsen resource over a minimal in-process host that posts every
// message straight to the destination strand, driven with stimuli the
// spaces can only produce through timing — an epoch bump mid-wait, a
// ghost unlock.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "baselines/registry.hpp"
#include "service/gate.hpp"
#include "topology/tree.hpp"

namespace dmx::service {
namespace {

using namespace std::chrono_literals;

/// Delivers every message to the destination gate's strand (gate index =
/// node id - 1, one resource).
class LoopbackHost final : public GateHost {
 public:
  GateSet* set = nullptr;
  void route(ResourceId, NodeId from, NodeId to, net::MessagePtr message,
             Epoch tag) override {
    set->gate(static_cast<std::size_t>(to) - 1)
        .post_deliver(tag, from, std::move(message));
  }
};

/// One Neilsen resource over two nodes; the token starts at node 1.
struct TwoNodeGates {
  TwoNodeGates()
      : set(2, LeaseConfig{}, /*jitter_us=*/0,
            exec::ExecutorConfig{/*workers=*/1, /*spin=*/64}) {
    host.set = &set;
    const proto::Algorithm algorithm = baselines::algorithm_by_name("Neilsen");
    set.add_resource("res", algorithm, /*home=*/1);
    proto::ClusterSpec spec;
    spec.n = 2;
    spec.initial_token_holder = 1;
    spec.tree = &tree;
    auto nodes = algorithm.factory(spec);
    for (NodeId v = 1; v <= 2; ++v) {
      set.add_gate(host, 0, v, static_cast<std::uint64_t>(v),
                   std::move(nodes[static_cast<std::size_t>(v)]));
    }
  }

  topology::Tree tree = topology::Tree::star(2, 1);
  LoopbackHost host;
  GateSet set;
};

TEST(ClientGate, EpochBumpMidWaitKeepsDeadline) {
  // The threaded twin of DistributedLockSpace.EpochBumpMidWaitKeepsDeadline.
  // A repair bumps the resource's epoch and wakes parked clients so they
  // re-check their predicates; that wake must neither end the wait early
  // (the waiter is not granted, not timed out, and the resource is still
  // available) nor re-park it against a recomputed deadline.
  TwoNodeGates gates;
  Gate& node1 = gates.set.gate(0);
  ASSERT_EQ(node1.lock(nullptr), LockError::kOk);  // token-resident

  LockError got = LockError::kOk;
  const auto wait_started = std::chrono::steady_clock::now();
  std::thread waiter([&node1, &got] {
    const std::chrono::milliseconds timeout = 400ms;
    got = node1.lock(&timeout);
  });
  std::this_thread::sleep_for(100ms);
  // The repair stimulus, with no world installed behind the new epoch.
  node1.fence.store(1, std::memory_order_seq_cst);
  node1.wake();
  std::this_thread::sleep_for(100ms);
  node1.wake();
  // The holder's world is fenced: the release and the follow-up request
  // drop themselves, so no grant can reach the waiter; the deadline
  // governs.
  EXPECT_TRUE(node1.unlock());
  waiter.join();
  const auto waited = std::chrono::steady_clock::now() - wait_started;

  EXPECT_EQ(got, LockError::kTimeout);
  EXPECT_GE(waited, 380ms);
  EXPECT_LT(waited, 1500ms);
  EXPECT_EQ(gates.set.resource(0).entries.load(), 1u);
  EXPECT_FALSE(gates.set.first_error().has_value())
      << *gates.set.first_error();
}

TEST(ClientGate, UnlockReportsWhetherItReleasedIntoTheProtocol) {
  TwoNodeGates gates;
  Gate& node1 = gates.set.gate(0);

  // No local waiter: the CS goes back to the protocol.
  ASSERT_EQ(node1.lock(nullptr), LockError::kOk);
  EXPECT_TRUE(node1.unlock());

  // A parked sibling: the CS is chained to it, no protocol release.
  ASSERT_EQ(node1.lock(nullptr), LockError::kOk);
  std::thread sibling([&node1] {
    ASSERT_EQ(node1.lock(nullptr), LockError::kOk);
    EXPECT_TRUE(node1.unlock());
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (node1.local_waiters() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(node1.unlock());
  sibling.join();
  EXPECT_EQ(gates.set.chained_grants(), 1u);

  // An unlock without a hold is a caller bug until the node is abandoned;
  // then it is a ghost of a revoked holder, tolerated and reported as such.
  EXPECT_THROW(node1.unlock(), std::logic_error);
  node1.abandon();
  EXPECT_FALSE(node1.unlock());

  EXPECT_EQ(gates.set.resource(0).entries.load(), 3u);
  EXPECT_EQ(gates.set.resource(0).occupancy.load(), 0);
  EXPECT_FALSE(gates.set.first_error().has_value())
      << *gates.set.first_error();
}

}  // namespace
}  // namespace dmx::service
