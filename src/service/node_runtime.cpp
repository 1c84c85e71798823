#include "service/node_runtime.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "proto/world.hpp"
#include "quorum/election.hpp"
#include "service/repair_messages.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::service {

namespace {

/// Parked protocol frames per resource while an epoch transition is in
/// flight; beyond this the stream is pathological, not merely reordered.
constexpr std::size_t kMaxQueuedFrames = 4096;

/// Slot::open while the target world is not installed.
constexpr Epoch kNoWorld = ~Epoch{0};

}  // namespace

NodeRuntime::NodeRuntime(GateSet& set, Transport& transport, NodeId self,
                         bool recovery_enabled, RepairHook on_repair)
    : set_(set), transport_(transport), self_(self), n_(set.nodes()),
      recovery_enabled_(recovery_enabled),
      on_repair_(std::move(on_repair)),
      up_(std::make_unique<std::atomic<bool>[]>(
          static_cast<std::size_t>(n_) + 1)),
      initial_membership_(std::make_shared<const fault::Membership>(
          fault::Membership::identity(n_))) {
  DMX_CHECK_MSG(self_ >= 1 && self_ <= n_,
                "self id " << self_ << " outside 1.." << n_);
  for (NodeId v = 1; v <= n_; ++v) {
    up_[static_cast<std::size_t>(v)].store(true, std::memory_order_relaxed);
  }
}

void NodeRuntime::add_gate(ResourceId r, std::uint64_t seed,
                           std::unique_ptr<proto::MutexNode> node) {
  DMX_CHECK(r == resources_ && r < set_.resource_count());
  Slot& s = slots_.emplace_back();
  s.membership = initial_membership_;
  s.gate = &set_.add_gate(*this, r, self_, seed, std::move(node));
  ++resources_;
}

void NodeRuntime::route(ResourceId r, NodeId from, NodeId to,
                        net::MessagePtr message, Epoch tag) {
  DMX_CHECK(from == self_ && to >= 1 && to <= n_ && to != from);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  try {
    transport_.send_frame(to, tag, r, std::move(message));
  } catch (const std::exception& e) {
    set_.fail(e.what());
  }
}

// --- Admission --------------------------------------------------------------

void NodeRuntime::on_frame(NodeId from, Epoch epoch, ResourceId r,
                           net::MessagePtr message) {
  if (from < 1 || from > n_ || from == self_) {
    set_.record_error("frame claiming to come from node " +
                      std::to_string(from) + " rejected at node " +
                      std::to_string(self_));
    return;
  }
  if (r < 0 || r >= resources_) {
    set_.record_error("frame for unknown resource " + std::to_string(r));
    return;
  }
  // Repair control frames are ABOUT the epoch transition, so they bypass
  // the fence that governs protocol traffic.
  Slot& s = slot(r);
  if (message->kind_id() == RepairMessage::interned_kind()) {
    locked(s, [&] {
      handle_repair_locked(from, r, s,
                           static_cast<const RepairMessage&>(*message));
    });
    return;
  }
  if (message->kind_id() == RepairAckMessage::interned_kind()) {
    locked(s, [&] {
      handle_repair_ack_locked(from, r, s,
                               static_cast<const RepairAckMessage&>(*message));
    });
    return;
  }

  // The common case, a frame of the installed, unfenced world, needs no
  // lock: if a repair fences that world meanwhile, its reset reaches the
  // strand first or the frame runs as if it had arrived before the
  // REPAIR. The strand drops fenced frames either way.
  if (epoch == s.open.load(std::memory_order_acquire)) {
    s.gate->post_deliver(epoch, from, std::move(message));
    return;
  }
  locked(s, [&] {
    if (epoch < s.target) {
      // Old-world traffic after the fence went up: the sender had not yet
      // adopted the repair.
      stale_frames_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (epoch > s.installed) {
      // From a world not installed here yet (its REPAIR is in flight, or
      // the install awaits acks): park it behind the reset to come.
      if (s.queued.size() >= kMaxQueuedFrames) {
        set_.record_error("parked frame queue overflow on resource " +
                          set_.resource(r).name + " at node " +
                          std::to_string(self_));
        return;
      }
      s.queued.push_back(QueuedFrame{epoch, from, std::move(message)});
      return;
    }
    s.gate->post_deliver(epoch, from, std::move(message));
  });
}

// --- Liveness ---------------------------------------------------------------

void NodeRuntime::on_peer_down(NodeId peer) { set_links({peer}, false); }

void NodeRuntime::on_peers_up(const std::vector<NodeId>& peers) {
  set_links(peers, true);
}

void NodeRuntime::set_links(const std::vector<NodeId>& peers, bool up) {
  bool changed = false;
  for (const NodeId peer : peers) {
    if (peer < 1 || peer > n_ || peer == self_) continue;
    // Dedupe: teardown may report a link more than once.
    if (up_[static_cast<std::size_t>(peer)].exchange(
            up, std::memory_order_seq_cst) == up) {
      continue;
    }
    changed = true;
    telemetry::FlightRecorder::record(up ? telemetry::FlightEvent::kRecover
                                         : telemetry::FlightEvent::kCrash,
                                      /*resource=*/0, peer);
  }
  if (!changed) return;
  for (ResourceId r = 0; r < resources_; ++r) {
    Slot& s = slot(r);
    locked(s, [&] { reconcile_locked(r, s, /*at_least=*/0); });
  }
}

std::vector<std::uint8_t> NodeRuntime::view() const {
  std::vector<std::uint8_t> up(static_cast<std::size_t>(n_) + 1, 0);
  for (NodeId v = 1; v <= n_; ++v) {
    up[static_cast<std::size_t>(v)] =
        up_[static_cast<std::size_t>(v)].load(std::memory_order_seq_cst) ? 1
                                                                          : 0;
  }
  return up;
}

bool NodeRuntime::current(const Slot& s,
                          const std::vector<std::uint8_t>& up) const {
  if (s.target != s.installed && s.winner == kNilNode) return false;
  for (NodeId v = 1; v <= n_; ++v) {
    if ((up[static_cast<std::size_t>(v)] != 0) != s.membership->contains(v)) {
      return false;
    }
  }
  return true;
}

void NodeRuntime::reconcile_locked(ResourceId r, Slot& s, Epoch at_least) {
  const std::vector<std::uint8_t> up = view();
  const NodeId winner = quorum::elect_regenerator(n_, up);
  const NodeId home = set_.resource(r).home;
  if (winner == kNilNode ||
      (!recovery_enabled_ && up[static_cast<std::size_t>(home)] == 0)) {
    // This node can never be granted the resource again (until a repair
    // over a live majority re-admits it).
    fence_locked(s);
    s.gate->mark_unavailable();
    s.gate->wake();
    return;
  }
  if (!recovery_enabled_) return;
  // A live majority will repair the resource: waiters wait for it rather
  // than drain.
  mark_available_locked(s);
  if (winner != self_) {
    // Stop granting in a world the view has outgrown; the winner's
    // REPAIR installs the next one.
    if (!current(s, up)) {
      start_repair_clock_locked(r, s);
      fence_locked(s);
    }
    return;
  }
  if (current(s, up) && at_least <= s.target) return;
  announce_locked(r, s, up, at_least);
}

void NodeRuntime::fence_locked(Slot& s) {
  if (s.winner == kNilNode && s.target > s.installed) return;
  s.target += 1;
  s.winner = kNilNode;
  s.await_unlock = false;
  s.open.store(kNoWorld, std::memory_order_seq_cst);
  s.gate->fence.store(s.target, std::memory_order_seq_cst);
  s.gate->wake();
}

void NodeRuntime::adopt_locked(ResourceId r, Slot& s, Epoch e, NodeId winner,
                               const std::vector<std::uint8_t>& up) {
  s.target = e;
  s.winner = winner;
  s.await_unlock = false;
  s.membership = std::make_shared<const fault::Membership>(
      fault::Membership::survivors(n_, up));
  // Fence first: no grant minted in the old world can be consumed from
  // here on, and every old-tagged strand task drops itself.
  s.open.store(kNoWorld, std::memory_order_seq_cst);
  s.gate->fence.store(e, std::memory_order_seq_cst);
  start_repair_clock_locked(r, s);
}

void NodeRuntime::mark_available_locked(Slot& s) {
  Gate& g = *s.gate;
  if (!g.unavailable.exchange(false, std::memory_order_seq_cst)) return;
  const std::uint64_t since =
      g.unavailable_since_ns.exchange(0, std::memory_order_relaxed);
  if (since != 0) {
    telemetry::observe(set_.unavail_hist(), telemetry::now_ns() - since);
  }
}

void NodeRuntime::start_repair_clock_locked(ResourceId r, Slot& s) {
  if (s.repair_started_ns != 0) return;
  s.repair_started_ns = telemetry::now_ns();
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart, r,
                                    self_);
}

// --- Repair -----------------------------------------------------------------

void NodeRuntime::announce_locked(ResourceId r, Slot& s,
                                  const std::vector<std::uint8_t>& up,
                                  Epoch at_least) {
  // Ballot epoch: round * n + winner id. Distinct winners never mint the
  // same epoch, so two repairs racing after a mid-repair winner death
  // cannot fence different worlds at one number.
  const Epoch base = std::max(s.target, at_least);
  const Epoch n = static_cast<Epoch>(n_);
  const Epoch e = (base / n + 1) * n + static_cast<Epoch>(self_);
  adopt_locked(r, s, e, self_, up);
  s.acks.assign(static_cast<std::size_t>(n_) + 1, 0);
  s.acks[static_cast<std::size_t>(self_)] = 1;
  s.acks_missing = s.membership->size() - 1;

  std::vector<NodeId> members;
  members.reserve(static_cast<std::size_t>(s.membership->size()));
  for (NodeId rank = 1; rank <= s.membership->size(); ++rank) {
    members.push_back(s.membership->original_of(rank));
  }
  for (const NodeId v : members) {
    if (v == self_) continue;
    transport_.send_frame(v, e, r,
                          std::make_unique<RepairMessage>(e, self_, members));
  }
  s.gate->wake();
  try_install_locked(r, s);
}

void NodeRuntime::handle_repair_locked(NodeId from, ResourceId r, Slot& s,
                                       const RepairMessage& message) {
  if (message.winner() != from) {
    set_.record_error("repair from node " + std::to_string(from) +
                      " names winner " + std::to_string(message.winner()));
    return;
  }
  const Epoch e = message.epoch();
  if (e < s.target || (e == s.target && s.winner != kNilNode)) {
    // Already fenced at or past this epoch. An ack above tells a lagging
    // winner to announce past our fence; an equal one is a plain re-ack
    // once installed (a deferred install acks from unlock()).
    if (e < s.target || s.installed == s.target) {
      send_ack_locked(r, s, from);
    }
    return;
  }
  std::vector<std::uint8_t> up(static_cast<std::size_t>(n_) + 1, 0);
  for (const NodeId v : message.members()) {
    if (v < 1 || v > n_) {
      set_.record_error("repair membership contains node " +
                        std::to_string(v) + " outside 1.." +
                        std::to_string(n_));
      return;
    }
    up[static_cast<std::size_t>(v)] = 1;
  }
  if (up[static_cast<std::size_t>(self_)] == 0 ||
      up[static_cast<std::size_t>(from)] == 0) {
    set_.record_error("repair membership from node " + std::to_string(from) +
                      " excludes a live participant");
    return;
  }
  adopt_locked(r, s, e, from, up);
  if (s.gate->holding()) {
    // The old-world critical section finishes undisturbed; unlock()
    // installs and acks. The fence already rules out a second entry.
    s.await_unlock = true;
  } else {
    install_world_locked(r, s);
    send_ack_locked(r, s, from);
  }
  s.gate->wake();
}

void NodeRuntime::handle_repair_ack_locked(NodeId from, ResourceId r,
                                           Slot& s,
                                           const RepairAckMessage& message) {
  if (s.winner != self_) return;
  if (message.epoch() > s.target) {
    // The acker is fenced past us (a predecessor winner announced higher
    // before dying): announce again above it.
    reconcile_locked(r, s, message.epoch());
    return;
  }
  if (message.epoch() < s.target) return;  // superseded epoch
  if (!s.membership->contains(from) ||
      s.acks[static_cast<std::size_t>(from)] != 0) {
    return;
  }
  s.acks[static_cast<std::size_t>(from)] = 1;
  --s.acks_missing;
  try_install_locked(r, s);
}

void NodeRuntime::try_install_locked(ResourceId r, Slot& s) {
  if (s.installed == s.target || s.winner != self_ || s.acks_missing > 0) {
    return;
  }
  if (s.gate->holding()) {
    s.await_unlock = true;
    return;
  }
  // Every member is fenced and nobody is inside the old critical section:
  // installing re-mints the token.
  if (on_repair_) on_repair_(s.target, *s.membership);
  install_world_locked(r, s);
}

void NodeRuntime::install_world_locked(ResourceId r, Slot& s) {
  const Epoch e = s.target;
  const GateResource& res = set_.resource(r);
  proto::World fresh = proto::regenerated_world(
      res.algorithm, s.membership->size(), s.membership->rank_of(s.winner));
  Gate& g = *s.gate;
  // The reset task is unfenced — it IS the epoch transition on this
  // strand; every later same-strand task observes the fresh world.
  g.post_reset(e, s.membership,
               std::move(fresh.nodes[static_cast<std::size_t>(
                   s.membership->rank_of(self_))]));
  // Re-issue behind the reset for parked waiters; any message it
  // triggers lands behind the destination's reset or in its parked queue.
  g.post_rerequest(e);
  // Frames from world e that arrived early drain behind the reset; older
  // ones are stale, newer ones wait for their own install.
  std::size_t kept = 0;
  for (QueuedFrame& qf : s.queued) {
    if (qf.epoch == e) {
      g.post_deliver(e, qf.from, std::move(qf.message));
    } else if (qf.epoch > e) {
      s.queued[kept++] = std::move(qf);
    } else {
      stale_frames_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  s.queued.resize(kept);
  s.installed = e;
  s.open.store(e, std::memory_order_release);
  s.await_unlock = false;
  mark_available_locked(s);
  if (s.repair_started_ns != 0) {
    telemetry::observe(set_.repair_hist(),
                       telemetry::now_ns() - s.repair_started_ns);
    s.repair_started_ns = 0;
  }
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairDone, r,
                                    s.winner, static_cast<std::int64_t>(e));
  g.wake();
}

void NodeRuntime::send_ack_locked(ResourceId r, const Slot& s, NodeId to) {
  transport_.send_frame(to, s.target, r,
                        std::make_unique<RepairAckMessage>(s.target));
}

// --- Client side ------------------------------------------------------------

void NodeRuntime::unlock(ResourceId r) {
  Slot& s = slot(r);
  if (!s.gate->unlock()) return;
  // Complete a repair deferred on this holder. Taken after the gate's
  // client mutex is released: repair takes it under s.mutex.
  {
    std::lock_guard<std::mutex> guard(s.mutex);
    if (!s.await_unlock) return;
  }
  locked(s, [&] { finish_deferred_locked(r, s); });
}

void NodeRuntime::finish_deferred_locked(ResourceId r, Slot& s) {
  if (!s.await_unlock) return;
  s.await_unlock = false;
  if (s.winner == self_) {
    try_install_locked(r, s);
  } else if (s.winner != kNilNode && s.installed < s.target) {
    install_world_locked(r, s);
    send_ack_locked(r, s, s.winner);
  }
}

void NodeRuntime::abandon() {
  std::vector<NodeId> peers;
  for (NodeId v = 1; v <= n_; ++v) {
    if (v != self_) peers.push_back(v);
  }
  for (ResourceId r = 0; r < resources_; ++r) {
    Slot& s = slot(r);
    locked(s, [&] {
      fence_locked(s);
      s.gate->mark_unavailable();
      s.gate->abandon();
    });
  }
  // A dead node hears nobody.
  set_links(peers, false);
}

void NodeRuntime::debug_fence_epoch(ResourceId r) {
  Slot& s = slot(r);
  locked(s, [&] { fence_locked(s); });
}

}  // namespace dmx::service
