#include "transport/distributed_lock_space.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "quorum/election.hpp"
#include "telemetry/flight_recorder.hpp"
#include "transport/repair_messages.hpp"

namespace dmx::transport {

namespace {

/// Parked protocol frames per resource while an epoch transition is in
/// flight; beyond this the stream is pathological, not merely reordered.
constexpr std::size_t kMaxQueuedFrames = 4096;

}  // namespace

DistributedLockSpace::DistributedLockSpace(DistributedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      gates_(*this, config_.n, config_.lease, /*jitter_us=*/0,
             exec::ExecutorConfig{config_.workers, config_.spin}) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(config_.self >= 1 && config_.self <= config_.n,
                "self id " << config_.self << " outside 1.." << config_.n);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a DistributedLockSpace needs at least one resource");
  if (config_.algorithm.needs_tree && !config_.tree.has_value()) {
    config_.tree = topology::Tree::star(config_.n, 1);
  }

  loop_ = std::make_unique<EventLoop>(
      EventLoopConfig{.self = config_.self, .mesh_size = config_.n},
      [this](const FrameHeader& header, net::MessagePtr message) {
        on_frame(header, std::move(message));
      },
      [this](NodeId peer) { on_peer_down(peer); });

  const int m = static_cast<int>(config_.resources.size());
  peer_down_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(config_.n) + 1);
  for (NodeId v = 0; v <= config_.n; ++v) {
    peer_down_[static_cast<std::size_t>(v)].store(false);
  }
  repair_.reserve(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    repair_.push_back(std::make_unique<RepairState>());
  }

  for (const std::string& name : config_.resources) {
    const ResourceId r = directory_.open(name);
    gates_.add_resource(name, config_.algorithm);
    proto::ClusterSpec spec;
    spec.n = config_.n;
    spec.initial_token_holder = config_.algorithm.name == "Singhal"
                                    ? 1
                                    : directory_.home_node(r);
    spec.tree = config_.tree.has_value() ? &*config_.tree : nullptr;
    spec.seed = config_.seed;
    // The factory builds all n instances (every process derives the same
    // initial world); this process keeps only its own.
    auto protocol_nodes = config_.algorithm.factory(spec);
    DMX_CHECK(protocol_nodes.size() ==
              static_cast<std::size_t>(config_.n) + 1);
    gates_.add_gate(
        r, config_.self, config_.seed,
        std::move(protocol_nodes[static_cast<std::size_t>(config_.self)]));
  }
  repair_hist_ = telemetry::Registry::global().histogram("fault.repair_ns");
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
  return gates_.gate(static_cast<std::size_t>(r));
}

DistributedLockSpace::RepairState& DistributedLockSpace::repair(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *repair_[static_cast<std::size_t>(r)];
}

Epoch DistributedLockSpace::epoch(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return gates_.resource(r).epoch.load(std::memory_order_acquire);
}

void DistributedLockSpace::route(ResourceId r, NodeId from, NodeId to,
                                 net::MessagePtr message, Epoch tag) {
  DMX_CHECK(from == config_.self && to >= 1 && to <= config_.n &&
            to != from);
  // The wire analogue of the threaded substrate's traffic-to-dead-node
  // drop; repair re-requests cover anything lost here.
  if (peer_down_[static_cast<std::size_t>(to)].load(
          std::memory_order_relaxed)) {
    return;
  }
  try {
    // A false return means the peer vanished between the liveness check
    // and the send; the on_peer_down path handles it.
    loop_->send(to, tag, r, *message);
  } catch (const net::WireError& e) {
    gates_.fail(e.what());
  }
}

void DistributedLockSpace::on_frame(const FrameHeader& header,
                                    net::MessagePtr message) {
  if (header.to != config_.self) {
    gates_.record_error("frame addressed to node " +
                        std::to_string(header.to) + " arrived at node " +
                        std::to_string(config_.self));
    return;
  }
  if (header.resource < 0 || header.resource >= resource_count()) {
    gates_.record_error("frame for unknown resource " +
                        std::to_string(header.resource));
    return;
  }
  // Repair control frames are ABOUT the epoch transition, so they bypass
  // the epoch fence that governs protocol traffic.
  if (message->kind_id() == RepairMessage::interned_kind()) {
    handle_repair(header, static_cast<const RepairMessage&>(*message));
    return;
  }
  if (message->kind_id() == RepairAckMessage::interned_kind()) {
    handle_repair_ack(header,
                      static_cast<const RepairAckMessage&>(*message));
    return;
  }

  RepairState& rs = repair(header.resource);
  std::lock_guard<std::mutex> guard(rs.mutex);
  if (header.epoch < rs.target) {
    // Old-world traffic after the fence went up: the sender had not yet
    // processed the repair announcement. Dropping it here is the wire
    // equivalent of the threaded substrate's fenced strand tasks.
    stale_frames_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (header.epoch > rs.installed) {
    // The frame is from a world we have not installed yet (its REPAIR is
    // still in flight, or the install awaits acks); park it and drain it
    // behind the reset task once the matching world lands.
    if (rs.queued.size() >= kMaxQueuedFrames) {
      gates_.record_error("repair frame queue overflow on resource " +
                          std::to_string(header.resource));
      return;
    }
    rs.queued.push_back(
        QueuedFrame{header.epoch, header.from, std::move(message)});
    return;
  }
  gate(header.resource)
      .post_deliver(header.epoch, header.from, std::move(message));
}

void DistributedLockSpace::on_peer_down(NodeId peer) {
  if (peer < 1 || peer > config_.n) return;
  // Dedupe: a REPAIR announcement may have marked the peer down before
  // its EOF reached us, and teardown fires once per socket anyway.
  if (peer_down_[static_cast<std::size_t>(peer)].exchange(
          true, std::memory_order_seq_cst)) {
    return;
  }
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kCrash,
                                    /*resource=*/0, peer);
  if (!config_.recovery_enabled) {
    gates_.record_error("peer node " + std::to_string(peer) +
                        " disconnected without goodbye");
    mark_all_unavailable();
    return;
  }

  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  for (NodeId v = 1; v <= config_.n; ++v) {
    up[static_cast<std::size_t>(v)] =
        peer_down_[static_cast<std::size_t>(v)].load(
            std::memory_order_seq_cst)
            ? 0
            : 1;
  }
  const NodeId winner = quorum::elect_regenerator(config_.n, up);
  if (winner == kNilNode) {
    // No live strict majority: the space stays degraded forever (crashed
    // processes never rejoin the mesh). Waiters are told, not left
    // hanging.
    gates_.record_error("no live majority after node " +
                        std::to_string(peer) + " crashed");
    mark_all_unavailable();
    return;
  }
  if (winner != config_.self) {
    // The winner's own event loop observed the same EOF and announces
    // REPAIR to us; if the winner itself is the next to die, its EOF
    // re-runs this election at every survivor.
    return;
  }
  for (int r = 0; r < resource_count(); ++r) {
    RepairState& rs = repair(r);
    std::lock_guard<std::mutex> guard(rs.mutex);
    start_repair_locked(r, rs, rs.target);
  }
}

void DistributedLockSpace::start_repair_locked(ResourceId r, RepairState& rs,
                                               Epoch at_least) {
  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  for (NodeId v = 1; v <= config_.n; ++v) {
    up[static_cast<std::size_t>(v)] =
        peer_down_[static_cast<std::size_t>(v)].load(
            std::memory_order_seq_cst)
            ? 0
            : 1;
  }
  const NodeId winner = quorum::elect_regenerator(config_.n, up);
  if (winner == kNilNode) {
    gates_.mark_unavailable(r);
    gate(r).wake();
    return;
  }
  if (winner != config_.self) return;

  // Ballot-style epoch: round * n + winner id. Distinct winners can never
  // mint the same epoch, so two repairs racing after a mid-repair winner
  // death cannot fence different worlds at the same number (survivors of
  // one would silently satisfy the ack count of the other).
  const Epoch base = std::max(rs.target, at_least);
  const Epoch n = static_cast<Epoch>(config_.n);
  const Epoch e = (base / n + 1) * n + static_cast<Epoch>(config_.self);
  rs.target = e;
  rs.winner = winner;
  rs.membership = std::make_shared<const fault::Membership>(
      fault::Membership::survivors(config_.n, up));
  rs.acks.assign(static_cast<std::size_t>(config_.n) + 1, 0);
  rs.acks[static_cast<std::size_t>(config_.self)] = 1;
  rs.acks_missing = rs.membership->size() - 1;
  // Fence first: from here on no grant minted in the old world can be
  // consumed (the gate revalidates its grant's epoch against this), and
  // every old-tagged strand task drops itself.
  gates_.resource(r).epoch.store(e, std::memory_order_seq_cst);
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart,
                                      r);
  }

  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(rs.membership->size()));
  for (NodeId rank = 1; rank <= rs.membership->size(); ++rank) {
    members.push_back(rs.membership->original_of(rank));
  }
  const RepairMessage announce(e, winner, std::move(members));
  for (NodeId rank = 1; rank <= rs.membership->size(); ++rank) {
    const NodeId v = rs.membership->original_of(rank);
    if (v == config_.self) continue;
    // Non-blocking: this runs on the loop thread (or under rs.mutex,
    // which the loop thread takes), and only the loop drains outboxes.
    loop_->send(v, e, r, announce, /*block_on_backpressure=*/false);
  }
  gate(r).wake();
  try_install_locked(r, rs);
}

void DistributedLockSpace::handle_repair(const FrameHeader& header,
                                         const RepairMessage& message) {
  const ResourceId r = header.resource;
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  if (message.epoch() <= rs.target) {
    // Already fenced at (or past) this epoch. Ack with OUR target: equal
    // means a plain re-ack; above tells the lagging winner to re-announce
    // past a dead predecessor's higher fence.
    loop_->send(header.from, rs.target, r, RepairAckMessage(rs.target),
                /*block_on_backpressure=*/false);
    return;
  }
  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  bool self_in = false;
  for (const NodeId v : message.members()) {
    if (v < 1 || v > config_.n) {
      gates_.record_error("repair membership contains node " +
                          std::to_string(v) + " outside 1.." +
                          std::to_string(config_.n));
      return;
    }
    up[static_cast<std::size_t>(v)] = 1;
    self_in = self_in || v == config_.self;
  }
  if (!self_in || !up[static_cast<std::size_t>(message.winner())]) {
    gates_.record_error("repair membership from node " +
                        std::to_string(header.from) +
                        " excludes a live participant");
    return;
  }
  rs.target = message.epoch();
  rs.winner = message.winner();
  rs.membership = std::make_shared<const fault::Membership>(
      fault::Membership::survivors(config_.n, up));
  // The announcement is also a liveness report: nodes outside the
  // survivor set are dead even if their EOF has not reached us yet
  // (store, not exchange — the winner already ran the election).
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (v != config_.self && !up[static_cast<std::size_t>(v)]) {
      peer_down_[static_cast<std::size_t>(v)].store(
          true, std::memory_order_seq_cst);
    }
  }
  gates_.resource(r).epoch.store(rs.target, std::memory_order_seq_cst);
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart,
                                      r);
  }

  if (gate(r).holding()) {
    // The old-world critical section finishes undisturbed; unlock installs
    // the fresh world and acks then. The fence above already guarantees no
    // SECOND old-world entry can happen meanwhile.
    rs.await_unlock = true;
  } else {
    install_world_locked(r, rs);
    loop_->send(header.from, rs.installed, r, RepairAckMessage(rs.installed),
                /*block_on_backpressure=*/false);
  }
  gate(r).wake();
}

void DistributedLockSpace::handle_repair_ack(const FrameHeader& header,
                                             const RepairAckMessage& message) {
  const ResourceId r = header.resource;
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  if (rs.winner != config_.self) return;
  if (message.epoch() > rs.target) {
    // The acker is fenced past us: a predecessor winner announced a
    // higher epoch before dying. Re-announce above it so every survivor
    // converges on one world.
    start_repair_locked(r, rs, message.epoch());
    return;
  }
  if (message.epoch() < rs.target) return;  // ack for a superseded epoch
  const NodeId from = header.from;
  if (from < 1 || from > config_.n ||
      rs.acks[static_cast<std::size_t>(from)] != 0) {
    return;
  }
  rs.acks[static_cast<std::size_t>(from)] = 1;
  --rs.acks_missing;
  try_install_locked(r, rs);
}

void DistributedLockSpace::try_install_locked(ResourceId r, RepairState& rs) {
  if (rs.installed == rs.target) return;
  if (rs.winner != config_.self) return;
  if (rs.acks_missing > 0) return;
  if (gate(r).holding()) {
    rs.await_unlock = true;
    return;
  }
  // Every survivor is fenced and nobody is inside the old critical
  // section anywhere: installing re-mints the token. The hook lets the
  // embedder retire state the dead holder abandoned (the test harness
  // clears its shared-memory occupancy here).
  if (config_.on_repair) config_.on_repair(rs.target, *rs.membership);
  install_world_locked(r, rs);
}

void DistributedLockSpace::install_world_locked(ResourceId r,
                                                RepairState& rs) {
  const Epoch e = rs.target;
  proto::ClusterSpec spec;
  spec.n = rs.membership->size();
  spec.initial_token_holder = rs.membership->rank_of(rs.winner);
  spec.seed = config_.seed;
  spec.epoch = e;
  if (config_.algorithm.needs_tree) {
    // Star over the survivors rooted at the winner: diameter 2 from any
    // survivor to the regenerated token, independent of who died.
    rs.trees.push_back(std::make_unique<topology::Tree>(
        topology::Tree::star(spec.n, spec.initial_token_holder)));
    spec.tree = rs.trees.back().get();
  }
  auto fresh = config_.algorithm.factory(spec);
  DMX_CHECK(fresh.size() == static_cast<std::size_t>(spec.n) + 1);
  const NodeId my_rank = rs.membership->rank_of(config_.self);
  service::Gate& x = gate(r);
  // The reset task is unfenced — it IS the epoch transition on this
  // strand; every later same-strand task observes the fresh world.
  x.post_reset(e, rs.membership,
               std::move(fresh[static_cast<std::size_t>(my_rank)]));
  // Re-issue behind the reset for parked waiters; any message it triggers
  // lands behind the destination's own reset or in its parked queue.
  x.post_rerequest(e);
  // Frames from world e that arrived before it was installed drain now,
  // behind the reset in strand FIFO; anything older is stale, anything
  // newer keeps waiting for its own install.
  std::size_t kept = 0;
  for (QueuedFrame& qf : rs.queued) {
    if (qf.epoch == e) {
      x.post_deliver(e, qf.from, std::move(qf.message));
    } else if (qf.epoch > e) {
      rs.queued[kept++] = std::move(qf);
    } else {
      stale_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  rs.queued.resize(kept);
  rs.installed = e;
  rs.await_unlock = false;
  if (rs.repair_started_ns != 0) {
    telemetry::observe(repair_hist_,
                       telemetry::now_ns() - rs.repair_started_ns);
    rs.repair_started_ns = 0;
  }
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairDone, r,
                                    rs.winner, static_cast<std::int64_t>(e));
  x.wake();
}

void DistributedLockSpace::mark_all_unavailable() {
  for (int r = 0; r < resource_count(); ++r) {
    gates_.mark_unavailable(r);
    gate(r).wake();
  }
}

void DistributedLockSpace::debug_fence_epoch(ResourceId r) {
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  rs.target += 1;
  gates_.resource(r).epoch.store(rs.target, std::memory_order_seq_cst);
  gate(r).wake();
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
  if (!gate(r).unlock()) return;
  // Complete a repair that deferred while this client held the lock.
  // Taken without the client mutex: the repair path acquires it under
  // rs.mutex, never the reverse.
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> repair_guard(rs.mutex);
  if (!rs.await_unlock) return;
  rs.await_unlock = false;
  if (rs.winner == config_.self) {
    try_install_locked(r, rs);
  } else if (rs.installed < rs.target) {
    const NodeId winner = rs.winner;
    install_world_locked(r, rs);
    // Non-blocking even off the loop thread: rs.mutex is held, and the
    // loop thread takes it in on_frame — waiting for the loop to drain an
    // outbox here could deadlock.
    loop_->send(winner, rs.installed, r, RepairAckMessage(rs.installed),
                /*block_on_backpressure=*/false);
  }
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
  snap.set_counter("wire.stale_epoch_frames",
                   stale_frames_.load(std::memory_order_relaxed));
  return snap;
}

}  // namespace dmx::transport
