#include "service/threaded_lock_space.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "proto/world.hpp"
#include "service/repair_messages.hpp"

namespace dmx::service {

ThreadedLockSpace::LoopbackTransport::LoopbackTransport(
    ThreadedLockSpace& space, NodeId self)
    : runtime(space.gates_, *this, self, space.config_.recovery_enabled),
      inbox(space.gates_.executor()), space_(space) {}

void ThreadedLockSpace::LoopbackTransport::send_frame(
    NodeId to, Epoch epoch, ResourceId resource, net::MessagePtr message) {
  LoopbackTransport& dest = space_.node(to);
  if (!linked.load(std::memory_order_seq_cst) ||
      !dest.linked.load(std::memory_order_seq_cst)) {
    return;
  }
  const NodeId from = runtime.self();
  if (!is_repair_control(*message)) {
    dest.runtime.on_frame(from, epoch, resource, std::move(message));
    return;
  }
  if (dest.inbox.enqueue([&dest, from, epoch, resource,
                          message = std::move(message)]() mutable {
        dest.runtime.on_frame(from, epoch, resource, std::move(message));
      })) {
    dest.inbox.submit_claimed();
  }
}

ThreadedLockSpace::ThreadedLockSpace(ThreadedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      gates_(config_.n, config_.lease, config_.jitter_us,
             exec::ExecutorConfig{config_.workers, config_.spin}) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a ThreadedLockSpace needs at least one resource");
  for (const auto& [override_name, override_algorithm] :
       config_.resource_algorithms) {
    DMX_CHECK_MSG(std::find(config_.resources.begin(),
                            config_.resources.end(),
                            override_name) != config_.resources.end(),
                  "algorithm override for unknown resource "
                      << override_name);
  }

  // Every resource's metrics are interned before any protocol instance
  // is built: interleaving the registry lookups with the factories made
  // construction of a 64-resource space ~8% slower.
  for (const std::string& name : config_.resources) {
    const proto::Algorithm* algorithm = &config_.algorithm;
    for (const auto& [override_name, override_algorithm] :
         config_.resource_algorithms) {
      if (override_name == name) algorithm = &override_algorithm;
    }
    const ResourceId r = directory_.open(name);
    gates_.add_resource(name, *algorithm, directory_.home_node(r));
  }

  nodes_.reserve(static_cast<std::size_t>(config_.n));
  for (NodeId v = 1; v <= config_.n; ++v) {
    nodes_.push_back(std::make_unique<LoopbackTransport>(*this, v));
  }
  Rng seeder(config_.seed);
  for (ResourceId r = 0; r < resource_count(); ++r) {
    const GateResource& res = gates_.resource(r);
    proto::World world = proto::initial_world(
        res.algorithm, config_.n, res.home,
        config_.tree ? &*config_.tree : nullptr);
    // The first path-forwarding resource builds the default star; the
    // rest share it.
    if (world.tree) config_.tree = std::move(world.tree);
    for (NodeId v = 1; v <= config_.n; ++v) {
      runtime(v).add_gate(r, seeder.next(),
                          std::move(world.nodes[static_cast<std::size_t>(v)]));
    }
  }
}

void ThreadedLockSpace::check(ResourceId r, NodeId v) const {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
}

const proto::Algorithm& ThreadedLockSpace::algorithm(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return gates_.resource(r).algorithm;
}

bool ThreadedLockSpace::is_node_up(NodeId v) const {
  DMX_CHECK(v >= 1 && v <= config_.n);
  return node(v).linked.load(std::memory_order_seq_cst);
}

Epoch ThreadedLockSpace::epoch(ResourceId r, NodeId v) const {
  check(r, v);
  return runtime(v).epoch(r);
}

Epoch ThreadedLockSpace::epoch(ResourceId r) const {
  Epoch highest = 0;
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (is_node_up(v)) highest = std::max(highest, epoch(r, v));
  }
  return highest;
}

void ThreadedLockSpace::lock(ResourceId r, NodeId v) {
  check(r, v);
  const LockError error = runtime(v).gate(r).lock(nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource " << name(r) << " on node " << v
                                    << " can never be granted (crashed node "
                                       "or dead resource)");
}

LockError ThreadedLockSpace::try_lock_for(ResourceId r, NodeId v,
                                          std::chrono::milliseconds timeout) {
  check(r, v);
  return runtime(v).gate(r).lock(&timeout);
}

void ThreadedLockSpace::unlock(ResourceId r, NodeId v) {
  check(r, v);
  runtime(v).unlock(r);
}

void ThreadedLockSpace::crash(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (!node(v).linked.exchange(false, std::memory_order_seq_cst)) return;
  // The hold of the dead node is retired from the witness before any
  // survivor hears of the crash and can install a regenerated world.
  runtime(v).abandon();
  for (NodeId u = 1; u <= config_.n; ++u) {
    if (u != v && is_node_up(u)) runtime(u).on_peer_down(v);
  }
}

void ThreadedLockSpace::recover(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (node(v).linked.exchange(true, std::memory_order_seq_cst)) return;
  std::vector<NodeId> peers;
  for (NodeId u = 1; u <= config_.n; ++u) {
    if (u == v || !is_node_up(u)) continue;
    runtime(u).on_peers_up({v});
    peers.push_back(u);
  }
  runtime(v).on_peers_up(peers);
}

std::uint64_t ThreadedLockSpace::total_entries() const {
  return gates_.total_entries();
}

std::uint64_t ThreadedLockSpace::entries(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return gates_.resource(r).entries.load(std::memory_order_relaxed);
}

std::uint64_t ThreadedLockSpace::messages_sent() const {
  std::uint64_t sum = 0;
  for (NodeId v = 1; v <= config_.n; ++v) sum += runtime(v).messages_sent();
  return sum;
}

int ThreadedLockSpace::local_waiters(ResourceId r, NodeId v) {
  check(r, v);
  return runtime(v).gate(r).local_waiters();
}

std::optional<std::string> ThreadedLockSpace::first_error() const {
  return gates_.first_error();
}

telemetry::MetricsSnapshot ThreadedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = gates_.snapshot();
  snap.set_counter("service.messages_sent", messages_sent());
  return snap;
}

}  // namespace dmx::service
