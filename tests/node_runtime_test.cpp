// Tests for one NodeRuntime (service/node_runtime.hpp) over a recording
// fake Transport: the REPAIR/ACK ballot edge cases and frame admission,
// driven frame by frame instead of by killing processes. The fake keeps
// every frame the runtime sends; the test plays every other node.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "core/messages.hpp"
#include "service/gate.hpp"
#include "service/node_runtime.hpp"
#include "service/repair_messages.hpp"
#include "topology/tree.hpp"

namespace dmx::service {
namespace {

using namespace std::chrono_literals;

/// Records every frame the runtime sends.
class RecordingTransport final : public Transport {
 public:
  struct Frame {
    NodeId to = kNilNode;
    Epoch epoch = 0;
    std::string describe;
  };

  void send_frame(NodeId to, Epoch epoch, ResourceId,
                  net::MessagePtr message) override {
    std::lock_guard<std::mutex> guard(mutex_);
    frames_.push_back(Frame{to, epoch, message->describe()});
  }

  std::vector<Frame> frames() {
    std::lock_guard<std::mutex> guard(mutex_);
    return frames_;
  }

  /// Polls until a frame matching `text` to `to` at `epoch` was sent.
  bool wait_for(NodeId to, Epoch epoch, const std::string& text) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const Frame& f : frames()) {
        if (f.to == to && f.epoch == epoch &&
            f.describe.find(text) != std::string::npos) {
          return true;
        }
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }

 private:
  std::mutex mutex_;
  std::vector<Frame> frames_;
};

/// Node `self` of an n-node Neilsen cluster with one resource whose token
/// starts at node 1.
struct OneRuntime {
  OneRuntime(int n, NodeId self)
      : tree(topology::Tree::star(n, 1)),
        set(n, LeaseConfig{}, /*jitter_us=*/0,
            exec::ExecutorConfig{/*workers=*/1, /*spin=*/64}) {
    const proto::Algorithm algorithm = baselines::algorithm_by_name("Neilsen");
    set.add_resource("res", algorithm, /*home=*/1);
    runtime = std::make_unique<NodeRuntime>(set, transport, self,
                                            /*recovery_enabled=*/true);
    proto::ClusterSpec spec;
    spec.n = n;
    spec.initial_token_holder = 1;
    spec.tree = &tree;
    auto nodes = algorithm.factory(spec);
    runtime->add_gate(0, /*seed=*/1,
                      std::move(nodes[static_cast<std::size_t>(self)]));
  }
  /// The pool stops before the runtime its strand tasks route through.
  ~OneRuntime() { set.shutdown(); }

  void frame(NodeId from, Epoch epoch, net::MessagePtr message) {
    runtime->on_frame(from, epoch, /*r=*/0, std::move(message));
  }
  void repair(NodeId from, Epoch epoch, NodeId winner,
              std::vector<NodeId> members) {
    frame(from, epoch,
          std::make_unique<RepairMessage>(epoch, winner, std::move(members)));
  }

  topology::Tree tree;
  RecordingTransport transport;
  GateSet set;
  std::unique_ptr<NodeRuntime> runtime;
};

TEST(NodeRuntime, RepairFromANonWinnerIsRejected) {
  OneRuntime node(3, /*self=*/2);
  // Node 3 announces a world whose winner is node 1.
  node.repair(/*from=*/3, /*epoch=*/4, /*winner=*/1, {1, 2, 3});
  EXPECT_EQ(node.runtime->epoch(0), 0u);
  EXPECT_TRUE(node.transport.frames().empty());
  ASSERT_TRUE(node.set.first_error().has_value());
  EXPECT_NE(node.set.first_error()->find("names winner 1"),
            std::string::npos)
      << *node.set.first_error();

  // The genuine announcement is still adopted and acked.
  node.repair(/*from=*/1, /*epoch=*/4, /*winner=*/1, {1, 2, 3});
  EXPECT_EQ(node.runtime->epoch(0), 4u);
  EXPECT_TRUE(node.transport.wait_for(1, 4, "REPAIR-ACK(e=4)"));
}

TEST(NodeRuntime, RepairThatLeavesOutALiveParticipantIsRejected) {
  OneRuntime node(3, /*self=*/2);
  // The membership leaves out this node.
  node.repair(/*from=*/1, /*epoch=*/4, /*winner=*/1, {1, 3});
  EXPECT_EQ(node.runtime->epoch(0), 0u);
  EXPECT_TRUE(node.transport.frames().empty());
  ASSERT_TRUE(node.set.first_error().has_value());
  EXPECT_NE(node.set.first_error()->find("excludes a live participant"),
            std::string::npos)
      << *node.set.first_error();
}

TEST(NodeRuntime, AckAboveTheTargetMakesTheWinnerAnnounceAgainHigher) {
  OneRuntime node(3, /*self=*/1);
  node.runtime->on_peer_down(3);
  // Node 1 is the smallest survivor of {1, 2}: it fences at ballot
  // (0 / 3 + 1) * 3 + 1 = 4 and announces to node 2.
  EXPECT_EQ(node.runtime->epoch(0), 4u);
  EXPECT_TRUE(node.transport.wait_for(2, 4, "REPAIR(e=4,w=1,[1,2])"));

  // Node 2 answers from a fence a dead predecessor raised to 10: the
  // winner announces above it, at (10 / 3 + 1) * 3 + 1 = 13.
  node.frame(2, 10, std::make_unique<RepairAckMessage>(10));
  EXPECT_EQ(node.runtime->epoch(0), 13u);
  EXPECT_TRUE(node.transport.wait_for(2, 13, "REPAIR(e=13,w=1,[1,2])"));

  // The matching ack installs the world, in which the winner holds the
  // regenerated token.
  node.frame(2, 13, std::make_unique<RepairAckMessage>(13));
  const std::chrono::milliseconds timeout = 5000ms;
  EXPECT_EQ(node.runtime->gate(0).lock(&timeout), LockError::kOk);
  node.runtime->unlock(0);
  EXPECT_FALSE(node.set.first_error().has_value()) << *node.set.first_error();
}

TEST(NodeRuntime, AboveFenceFrameIsParkedThenDrainedBehindTheReset) {
  OneRuntime node(3, /*self=*/2);
  // A REQUEST from node 3 minted in world 4, which this node has not
  // heard of yet: parked, not delivered.
  node.frame(3, 4, std::make_unique<core::RequestMessage>(3, 3));
  std::this_thread::sleep_for(20ms);
  EXPECT_TRUE(node.transport.frames().empty());

  // World 4 (a star rooted at the winner, node 1) installs. The parked
  // REQUEST runs behind the reset: node 2 forwards it toward node 1 in
  // world 4. Run in the old world it would have been dropped as fenced.
  node.repair(/*from=*/1, /*epoch=*/4, /*winner=*/1, {1, 2, 3});
  EXPECT_TRUE(node.transport.wait_for(1, 4, "REQUEST(2,3)"));
  EXPECT_EQ(node.runtime->stale_frames(), 0u);
  EXPECT_FALSE(node.set.first_error().has_value()) << *node.set.first_error();
}

TEST(NodeRuntime, ParkedFrameQueueHoldsExactly4096) {
  OneRuntime node(3, /*self=*/2);
  for (int i = 0; i < 4096; ++i) {
    node.frame(3, 7, std::make_unique<core::PrivilegeMessage>());
  }
  EXPECT_FALSE(node.set.first_error().has_value()) << *node.set.first_error();
  node.frame(3, 7, std::make_unique<core::PrivilegeMessage>());
  ASSERT_TRUE(node.set.first_error().has_value());
  EXPECT_NE(node.set.first_error()->find("parked frame queue overflow"),
            std::string::npos)
      << *node.set.first_error();
}

TEST(NodeRuntime, FrameFromOutsideTheClusterOrFromSelfIsRejected) {
  for (const NodeId from : {NodeId{0}, NodeId{4}, NodeId{2}}) {
    OneRuntime node(3, /*self=*/2);
    node.frame(from, 0, std::make_unique<core::RequestMessage>(from, from));
    std::this_thread::sleep_for(5ms);
    EXPECT_TRUE(node.transport.frames().empty()) << "from " << from;
    ASSERT_TRUE(node.set.first_error().has_value()) << "from " << from;
    EXPECT_NE(node.set.first_error()->find("rejected at node 2"),
              std::string::npos)
        << *node.set.first_error();
  }
}

}  // namespace
}  // namespace dmx::service
