// Tests for the simulated network: FIFO channels, latency models,
// counters, in-flight introspection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/latency.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace dmx::net {
namespace {

class TestMessage final : public Message {
 public:
  explicit TestMessage(int value, std::string_view kind = "TEST")
      : Message(MessageKind::of(kind)), value_(value) {}
  int value() const { return value_; }
  std::size_t payload_bytes() const override { return sizeof(int); }
  MessagePtr clone() const override {
    return std::make_unique<TestMessage>(*this);
  }

 private:
  int value_;
};

struct Delivery {
  NodeId from;
  NodeId to;
  int value;
  Tick at;
};

class NetTest : public ::testing::Test {
 protected:
  void install(int n, std::unique_ptr<LatencyModel> latency,
               std::uint64_t seed = 1) {
    network = std::make_unique<Network>(sim, n, std::move(latency), seed);
    network->set_delivery_handler([this](const Envelope& env) {
      const auto& msg = dynamic_cast<const TestMessage&>(*env.message);
      deliveries.push_back({env.from, env.to, msg.value(), sim.now()});
    });
  }

  sim::Simulator sim;
  std::unique_ptr<Network> network;
  std::vector<Delivery> deliveries;
};

TEST_F(NetTest, DeliversWithFixedLatency) {
  install(2, std::make_unique<FixedLatency>(5));
  network->send(1, 2, std::make_unique<TestMessage>(7));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].value, 7);
  EXPECT_EQ(deliveries[0].at, 5);
}

TEST_F(NetTest, PerChannelFifoWithFixedLatency) {
  install(2, std::make_unique<FixedLatency>(3));
  for (int i = 0; i < 10; ++i) {
    network->send(1, 2, std::make_unique<TestMessage>(i));
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(deliveries[static_cast<std::size_t>(i)].value, i);
  }
}

TEST_F(NetTest, PerChannelFifoSurvivesRandomLatency) {
  // Exponential latency would reorder; the network must clamp deliveries
  // to preserve per-channel order (the paper's no-overtaking assumption).
  install(3, std::make_unique<ExponentialLatency>(20.0), 99);
  for (int i = 0; i < 200; ++i) {
    network->send(1, 2, std::make_unique<TestMessage>(i));
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(deliveries[static_cast<std::size_t>(i)].value, i);
  }
}

TEST_F(NetTest, DifferentChannelsMayInterleave) {
  install(3, std::make_unique<FixedLatency>(2));
  network->send(1, 3, std::make_unique<TestMessage>(1));
  sim.run_until(1);
  network->send(2, 3, std::make_unique<TestMessage>(2));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].value, 1);
  EXPECT_EQ(deliveries[1].value, 2);
}

TEST_F(NetTest, CountsPerKindAndBytes) {
  install(2, std::make_unique<FixedLatency>(1));
  network->send(1, 2, std::make_unique<TestMessage>(1, "A"));
  network->send(1, 2, std::make_unique<TestMessage>(2, "A"));
  network->send(2, 1, std::make_unique<TestMessage>(3, "B"));
  sim.run();
  EXPECT_EQ(network->stats().total_sent, 3u);
  EXPECT_EQ(network->stats().sent("A"), 2u);
  EXPECT_EQ(network->stats().sent("B"), 1u);
  EXPECT_EQ(network->stats().sent("C"), 0u);
  EXPECT_EQ(network->stats().total_payload_bytes, 3 * sizeof(int));
}

TEST_F(NetTest, ResetStatsZeroesCounters) {
  install(2, std::make_unique<FixedLatency>(1));
  network->send(1, 2, std::make_unique<TestMessage>(1));
  sim.run();
  network->reset_stats();
  EXPECT_EQ(network->stats().total_sent, 0u);
  EXPECT_EQ(network->stats().sent("TEST"), 0u);
}

TEST_F(NetTest, InFlightTracking) {
  install(3, std::make_unique<FixedLatency>(10));
  network->send(1, 2, std::make_unique<TestMessage>(1, "X"));
  network->send(1, 3, std::make_unique<TestMessage>(2, "Y"));
  // Unresourced sends ride resource 0 at epoch 0.
  EXPECT_EQ(network->in_flight_count(), 2u);
  EXPECT_EQ(network->in_flight_count(0, Epoch{0}, MessageKind::lookup("X")),
            1u);
  EXPECT_EQ(network->in_flight_count(0, Epoch{0}, MessageKind::lookup("Y")),
            1u);
  EXPECT_EQ(network->in_flight_count(0, Epoch{0}, MessageKind::lookup("Z")),
            0u);
  sim.run();
  EXPECT_EQ(network->in_flight_count(), 0u);
}

TEST_F(NetTest, ForEachInFlightVisitsAll) {
  install(3, std::make_unique<FixedLatency>(10));
  network->send(1, 2, std::make_unique<TestMessage>(1));
  network->send(2, 3, std::make_unique<TestMessage>(2));
  int visited = 0;
  network->for_each_in_flight([&](const Envelope& env) {
    ++visited;
    EXPECT_GE(env.deliver_at, 10);
  });
  EXPECT_EQ(visited, 2);
}

TEST_F(NetTest, SelfSendRejected) {
  install(2, std::make_unique<FixedLatency>(1));
  EXPECT_THROW(network->send(1, 1, std::make_unique<TestMessage>(0)),
               std::logic_error);
}

TEST_F(NetTest, OutOfRangeNodesRejected) {
  install(2, std::make_unique<FixedLatency>(1));
  EXPECT_THROW(network->send(0, 2, std::make_unique<TestMessage>(0)),
               std::logic_error);
  EXPECT_THROW(network->send(1, 3, std::make_unique<TestMessage>(0)),
               std::logic_error);
}

TEST_F(NetTest, ObserverSeesSendAndDeliver) {
  struct Spy : NetworkObserver {
    int sends = 0;
    int delivers = 0;
    void on_send(const Envelope&) override { ++sends; }
    void on_deliver(const Envelope&) override { ++delivers; }
  };
  install(2, std::make_unique<FixedLatency>(1));
  Spy spy;
  network->set_observer(&spy);
  network->send(1, 2, std::make_unique<TestMessage>(1));
  EXPECT_EQ(spy.sends, 1);
  EXPECT_EQ(spy.delivers, 0);
  sim.run();
  EXPECT_EQ(spy.delivers, 1);
}

TEST_F(NetTest, PartitionSeversBothDirectionsUntilHealed) {
  install(3, std::make_unique<FixedLatency>(1));
  network->partition(1, 2);
  EXPECT_TRUE(network->is_partitioned(1, 2));
  EXPECT_TRUE(network->is_partitioned(2, 1));  // symmetric
  EXPECT_FALSE(network->is_partitioned(1, 3));
  network->send(1, 2, std::make_unique<TestMessage>(1));
  network->send(2, 1, std::make_unique<TestMessage>(2));
  network->send(1, 3, std::make_unique<TestMessage>(3));  // unaffected link
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].value, 3);
  EXPECT_EQ(network->stats().total_sent, 3u);  // severed sends still count
  EXPECT_EQ(network->stats().total_dropped, 2u);

  network->heal(1, 2);
  EXPECT_FALSE(network->is_partitioned(1, 2));
  network->send(1, 2, std::make_unique<TestMessage>(4));
  network->send(2, 1, std::make_unique<TestMessage>(5));
  sim.run();
  EXPECT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(network->stats().total_dropped, 2u);
}

TEST_F(NetTest, PartitionLeavesInFlightEnvelopesToDeliver) {
  // A partition severs the LINK, not the wire already traversed: it drops
  // at send time only. Envelopes mid-flight when the link goes down still
  // deliver, and the per-resource/epoch/kind in-flight counter must agree
  // with that — in particular a PRIVILEGE (the token) launched before the
  // partition keeps existing exactly once, so the token-uniqueness
  // witness (in-flight PRIVILEGE count plus holder count) is unaffected.
  install(3, std::make_unique<FixedLatency>(10));
  const ResourceId r = 0;
  const MessageKind privilege = MessageKind::of("PRIVILEGE");
  network->send(r, 1, 2,
                std::make_unique<TestMessage>(1, "PRIVILEGE"));  // the token
  network->send(r, 1, 2, std::make_unique<TestMessage>(2, "TEST"));
  sim.run_until(5);
  EXPECT_EQ(network->in_flight_count(), 2u);
  EXPECT_EQ(network->in_flight_count(r, Epoch{0}, privilege), 1u);

  network->partition(1, 2);  // both envelopes are mid-flight, due at t=10

  // In flight means in flight: the partition changed nothing about them.
  EXPECT_EQ(network->in_flight_count(), 2u);
  EXPECT_EQ(network->in_flight_count(r, Epoch{0}, privilege), 1u);

  // New traffic on the severed link is dropped at send, and the dropped
  // PRIVILEGE never enters the in-flight accounting (it never existed on
  // the wire — the counter must not leak upward and later underflow).
  network->send(r, 2, 1, std::make_unique<TestMessage>(3, "PRIVILEGE"));
  EXPECT_EQ(network->in_flight_count(r, Epoch{0}, privilege), 1u);
  EXPECT_EQ(network->stats().total_dropped, 1u);

  int discards = 0;
  network->set_discard_handler(
      [&](const Envelope&, Network::DiscardReason) { ++discards; });
  sim.run();

  // Both pre-partition envelopes delivered (no discards), counters drained
  // to zero exactly once each.
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].value, 1);
  EXPECT_EQ(deliveries[1].value, 2);
  EXPECT_EQ(discards, 0);
  EXPECT_EQ(network->in_flight_count(), 0u);
  EXPECT_EQ(network->in_flight_count(r, Epoch{0}, privilege), 0u);
  // Exactly one token ever existed: one PRIVILEGE sent, none duplicated.
  EXPECT_EQ(network->stats().sent(privilege), 2u);  // 1 delivered + 1 dropped
  EXPECT_EQ(network->stats().total_duplicated, 0u);
}

TEST_F(NetTest, DeadNodeEatsInFlightTrafficAtDelivery) {
  install(3, std::make_unique<FixedLatency>(10));
  int discards = 0;
  network->set_discard_handler(
      [&](const Envelope& env, Network::DiscardReason reason) {
        EXPECT_EQ(env.to, 2);
        EXPECT_EQ(reason, Network::DiscardReason::kDeadDestination);
        ++discards;
      });
  network->send(1, 2, std::make_unique<TestMessage>(1));
  sim.run_until(5);
  network->set_node_down(2);  // message is mid-flight, due at t=10
  network->send(1, 2, std::make_unique<TestMessage>(2));  // dropped at send
  sim.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(discards, 1);  // only the in-flight one reaches the handler
  EXPECT_EQ(network->stats().total_dropped, 2u);
  EXPECT_EQ(network->in_flight_count(), 0u);

  network->set_node_up(2);
  network->send(1, 2, std::make_unique<TestMessage>(3));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].value, 3);
}

TEST_F(NetTest, StaleEpochEnvelopesAreFencedAtDelivery) {
  install(2, std::make_unique<FixedLatency>(10));
  std::vector<Network::DiscardReason> reasons;
  network->set_discard_handler(
      [&](const Envelope&, Network::DiscardReason reason) {
        reasons.push_back(reason);
      });
  // Epoch-0 message departs; the resource moves to epoch 1 mid-flight.
  network->send(0, 1, 2, std::make_unique<TestMessage>(1, "PRIVILEGE"), 0);
  EXPECT_EQ(network->in_flight_count(0, Epoch{0}, MessageKind::of("PRIVILEGE")),
            1u);
  sim.run_until(5);
  network->set_resource_epoch(0, 1);
  network->send(0, 2, 1, std::make_unique<TestMessage>(2, "PRIVILEGE"), 1);
  sim.run();
  // The stale envelope was fenced, the current-epoch one delivered.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].value, 2);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], Network::DiscardReason::kStaleEpoch);
  EXPECT_EQ(network->stats().total_fenced, 1u);
  EXPECT_EQ(network->in_flight_count(0, Epoch{0}, MessageKind::of("PRIVILEGE")),
            0u);
  EXPECT_EQ(network->in_flight_count(0, Epoch{1}, MessageKind::of("PRIVILEGE")),
            0u);
}

TEST(LatencyModels, FixedAlwaysSame) {
  Rng rng(1);
  FixedLatency model(7);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.sample(1, 2, rng), 7);
  }
}

TEST(LatencyModels, UniformWithinBounds) {
  Rng rng(1);
  UniformLatency model(3, 9);
  for (int i = 0; i < 1000; ++i) {
    const Tick t = model.sample(1, 2, rng);
    EXPECT_GE(t, 3);
    EXPECT_LE(t, 9);
  }
}

TEST(LatencyModels, ExponentialAtLeastOne) {
  Rng rng(1);
  ExponentialLatency model(2.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(model.sample(1, 2, rng), 1);
  }
}

TEST(LatencyModels, SubUnitLatencyRejected) {
  EXPECT_THROW(FixedLatency(0), std::logic_error);
  EXPECT_THROW(UniformLatency(0, 5), std::logic_error);
  EXPECT_THROW(ExponentialLatency(0.5), std::logic_error);
}

}  // namespace
}  // namespace dmx::net
