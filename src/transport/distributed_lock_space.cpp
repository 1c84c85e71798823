#include "transport/distributed_lock_space.hpp"

#include <utility>

#include "common/check.hpp"
#include "proto/world.hpp"

namespace dmx::transport {

DistributedLockSpace::DistributedLockSpace(DistributedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      gates_(config_.n, config_.lease, /*jitter_us=*/0,
             exec::ExecutorConfig{config_.workers, config_.spin}) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(config_.self >= 1 && config_.self <= config_.n,
                "self id " << config_.self << " outside 1.." << config_.n);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a DistributedLockSpace needs at least one resource");
  for (const std::string& name : config_.resources) {
    gates_.add_resource(name, config_.algorithm,
                        directory_.home_node(directory_.open(name)));
  }
  // Frames and link events reach the runtime only after start().
  loop_ = std::make_unique<EventLoop>(
      EventLoopConfig{.self = config_.self, .mesh_size = config_.n},
      [this](const FrameHeader& header, net::MessagePtr message) {
        runtime_->on_frame(header.from, header.epoch, header.resource,
                           std::move(message));
      },
      [this](NodeId peer) { runtime_->on_peer_down(peer); });
  runtime_ = std::make_unique<service::NodeRuntime>(
      gates_, *loop_, config_.self, config_.recovery_enabled,
      config_.on_repair);
  for (ResourceId r = 0; r < resource_count(); ++r) {
    // Every process derives the same initial world; this one keeps its
    // own instance.
    const service::GateResource& res = gates_.resource(r);
    proto::World world = proto::initial_world(
        res.algorithm, config_.n, res.home,
        config_.tree ? &*config_.tree : nullptr);
    if (world.tree) config_.tree = std::move(world.tree);
    runtime_->add_gate(
        r, config_.seed,
        std::move(world.nodes[static_cast<std::size_t>(config_.self)]));
  }
}

DistributedLockSpace::~DistributedLockSpace() { shutdown(); }

std::uint16_t DistributedLockSpace::listen() { return loop_->listen(); }

void DistributedLockSpace::connect(NodeId peer, std::uint16_t port) {
  DMX_CHECK_MSG(peer < config_.self,
                "mesh convention: node " << config_.self
                                         << " only dials lower ids, not "
                                         << peer);
  loop_->connect(peer, port);
}

void DistributedLockSpace::start() { loop_->start(); }

bool DistributedLockSpace::wait_connected(std::chrono::milliseconds timeout) {
  return loop_->wait_for_peers(config_.n - 1, timeout);
}

void DistributedLockSpace::shutdown() {
  if (shut_down_.exchange(true)) return;
  loop_->stop();
  // Stop the pool after the loop: no more frames can arrive, and queued
  // strand tasks are destroyed unrun when the gates go away.
  gates_.shutdown();
}

service::Gate& DistributedLockSpace::gate(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  return runtime_->gate(r);
}

Epoch DistributedLockSpace::epoch(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return runtime_->epoch(r);
}

void DistributedLockSpace::debug_fence_epoch(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  runtime_->debug_fence_epoch(r);
}

void DistributedLockSpace::lock(ResourceId r) {
  const LockError error = gate(r).lock(nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource "
                    << name(r)
                    << " can never be granted (no live majority)");
}

LockError DistributedLockSpace::try_lock_for(
    ResourceId r, std::chrono::milliseconds timeout) {
  return gate(r).lock(&timeout);
}

void DistributedLockSpace::unlock(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  runtime_->unlock(r);
}

int DistributedLockSpace::local_waiters(ResourceId r) {
  return gate(r).local_waiters();
}

std::uint64_t DistributedLockSpace::entries(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return gates_.resource(r).entries.load(std::memory_order_relaxed);
}

std::uint64_t DistributedLockSpace::total_entries() const {
  return gates_.total_entries();
}

std::optional<std::string> DistributedLockSpace::first_error() const {
  if (auto error = gates_.first_error()) return error;
  return loop_->first_error();
}

telemetry::MetricsSnapshot DistributedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = gates_.snapshot();
  const EventLoopStats& wire = loop_->stats();
  snap.set_counter("wire.frames_sent",
                   wire.frames_sent.load(std::memory_order_relaxed));
  snap.set_counter("wire.frames_received",
                   wire.frames_received.load(std::memory_order_relaxed));
  snap.set_counter("wire.bytes_sent",
                   wire.bytes_sent.load(std::memory_order_relaxed));
  snap.set_counter("wire.bytes_received",
                   wire.bytes_received.load(std::memory_order_relaxed));
  snap.set_counter("wire.partial_frames",
                   wire.partial_frames.load(std::memory_order_relaxed));
  snap.set_counter("wire.backpressure_waits",
                   wire.backpressure_waits.load(std::memory_order_relaxed));
  snap.set_counter("wire.outbox_peak_bytes",
                   wire.outbox_peak_bytes.load(std::memory_order_relaxed));
  snap.set_counter("wire.epoll_wakeups",
                   wire.epoll_wakeups.load(std::memory_order_relaxed));
  snap.set_counter("wire.stale_epoch_frames", runtime_->stale_frames());
  return snap;
}

}  // namespace dmx::transport
