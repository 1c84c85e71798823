#include "transport/distributed_lock_space.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "common/check.hpp"
#include "exec/ring.hpp"
#include "exec/strand.hpp"
#include "quorum/election.hpp"
#include "telemetry/flight_recorder.hpp"
#include "transport/repair_messages.hpp"

namespace dmx::transport {

namespace {

/// Parked protocol frames per resource while an epoch transition is in
/// flight; beyond this the stream is pathological, not merely reordered.
constexpr std::size_t kMaxQueuedFrames = 4096;

}  // namespace

/// This process's protocol state machine for one resource, with its
/// strand and the client gate bridging application threads and strand
/// tasks — the single-node cut of ThreadedLockSpace::ResourceNode,
/// including its crash fencing: every protocol task carries the epoch it
/// was minted in and drops itself when it no longer matches the strand's.
/// A repair installs a fresh compact-world instance via an unfenced reset
/// task; post-repair the instance lives in the survivor world, so the
/// Context speaks ranks to it while the wire keeps original ids.
struct DistributedLockSpace::ResourceNode {
  ResourceNode(DistributedLockSpace& space, ResourceId resource)
      : space(space), resource(resource), strand(space.executor_),
        context(*this) {}

  class Context final : public proto::Context {
   public:
    explicit Context(ResourceNode& rn) : rn_(rn) {}
    NodeId self() const override {
      return rn_.membership != nullptr
                 ? rn_.membership->rank_of(rn_.space.config_.self)
                 : rn_.space.config_.self;
    }
    int cluster_size() const override {
      return rn_.membership != nullptr ? rn_.membership->size()
                                       : rn_.space.config_.n;
    }
    void send(NodeId to, net::MessagePtr message) override {
      const NodeId to_original =
          rn_.membership != nullptr ? rn_.membership->original_of(to) : to;
      rn_.space.route(rn_.resource, to_original, std::move(message),
                      rn_.epoch);
    }
    void grant() override { rn_.on_grant(); }

   private:
    ResourceNode& rn_;
  };

  // --- Strand tasks --------------------------------------------------------

  bool fenced(Epoch tag) const { return tag != epoch; }

  void deliver(Epoch tag, NodeId from, net::MessagePtr message) {
    if (space.failed_.load(std::memory_order_relaxed)) return;
    if (fenced(tag)) return;
    try {
      node->on_message(context,
                       membership != nullptr ? membership->rank_of(from)
                                             : from,
                       *message);
    } catch (const std::exception& e) {
      space.fail(e.what());
    }
    publish_remote_pending();
  }

  void request(Epoch tag) {
    if (space.failed_.load(std::memory_order_relaxed)) return;
    if (fenced(tag)) return;
    // A repair's re-issue may have beaten this task into the new world
    // (one outstanding protocol request per node, ever).
    if (request_outstanding) return;
    request_outstanding = true;
    try {
      node->request_cs(context);
    } catch (const std::exception& e) {
      space.fail(e.what());
    }
    publish_remote_pending();
  }

  void release(Epoch tag) {
    if (space.failed_.load(std::memory_order_relaxed)) return;
    if (fenced(tag)) return;
    request_outstanding = false;
    try {
      node->release_cs(context);
    } catch (const std::exception& e) {
      space.fail(e.what());
    }
    publish_remote_pending();
  }

  /// Post-repair request re-issue: the pre-repair protocol request died
  /// with the old epoch, so if application threads are still parked (or a
  /// request was posted and fenced), ask again in the fresh world —
  /// unless a new-epoch request task already ran here.
  void rerequest(Epoch tag) {
    if (space.failed_.load(std::memory_order_relaxed)) return;
    if (fenced(tag)) return;
    if (request_outstanding) return;
    bool want = false;
    {
      std::lock_guard<std::mutex> guard(client_mutex);
      want = requested || waiting > 0;
      requested = want;
    }
    if (!want) return;
    request_outstanding = true;
    try {
      node->request_cs(context);
    } catch (const std::exception& e) {
      space.fail(e.what());
    }
    publish_remote_pending();
  }

  /// Publishes node->has_remote_request() at the end of every strand
  /// task, so a holder's release can consult it without touching
  /// strand-confined state. The value may lag by an in-flight frame —
  /// the lease cap, not this hint, carries the bounded-waiting
  /// guarantee; the hint only decides whether a cap-expired lease may
  /// renew in place.
  void publish_remote_pending() {
    remote_pending.store(node->has_remote_request(),
                         std::memory_order_relaxed);
  }

  void on_grant() {
    bool hand_off = false;
    {
      std::lock_guard<std::mutex> guard(client_mutex);
      if (waiting > 0) {
        granted = true;
        granted_epoch = epoch;
        grant_via_chain = false;
        hand_off = true;
      } else {
        // Every waiter timed out; hand the CS straight back so the
        // resource keeps flowing (mirrors the threaded substrate).
        requested = false;
      }
    }
    if (hand_off) {
      client_cv.notify_all();
      return;
    }
    const Epoch tag = epoch;  // on_grant runs on the strand
    strand.post([this, tag] { release(tag); });
  }

  DistributedLockSpace& space;
  ResourceId resource;
  exec::Strand strand;
  std::unique_ptr<proto::MutexNode> node;  // strand-confined
  /// Reconfiguration epoch this strand's instance belongs to and, post-
  /// repair, the compact membership it speaks. Strand-confined; written
  /// only by reset tasks.
  Epoch epoch = 0;
  std::shared_ptr<const fault::Membership> membership;
  /// Whether this world's instance has an unreleased protocol request in
  /// flight — dedupes the client's posted request against a repair's
  /// re-issue. Strand-confined; cleared by release and by reset.
  bool request_outstanding = false;
  Context context;

  /// Local waiters and grant hand-off; client_mutex guards every field
  /// below except the trailing atomic.
  std::mutex client_mutex;
  std::condition_variable client_cv;
  int waiting = 0;
  bool requested = false;
  bool granted = false;
  /// Arrival-order tickets of the parked waiters: a grant (protocol or
  /// chained) is consumed only by the waiter whose ticket is at the
  /// front, so same-node waiters cannot overtake each other.
  exec::Ring<std::uint64_t> fifo;
  std::uint64_t ticket_seq = 0;
  /// Consecutive local hand-offs in the current lease window, and
  /// telemetry::now_ns() when the window opened (its first grant).
  int chain_len = 0;
  std::uint64_t chain_started_ns = 0;
  /// Epoch the current holder's grant was minted in; a release chains
  /// only while it still matches the resource's epoch (no repair since).
  Epoch held_epoch = 0;
  /// Whether the pending grant rode the local chain (keeps the lease
  /// window open) or came from the protocol (opens a fresh window).
  bool grant_via_chain = false;
  /// Epoch the pending grant was minted in: the consumer revalidates it
  /// against the resource's current epoch, so a grant from a world a
  /// repair has since fenced is discarded instead of entering the CS
  /// alongside the regenerated token.
  Epoch granted_epoch = 0;
  bool held = false;
  /// telemetry::now_ns() when the current holder entered (0 = not held).
  std::uint64_t hold_started_ns = 0;
  /// has_remote_request() as of this strand's last protocol task (see
  /// publish_remote_pending).
  std::atomic<bool> remote_pending{false};
};

DistributedLockSpace::DistributedLockSpace(DistributedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      executor_(exec::ExecutorConfig{config_.workers, config_.spin}) {
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
  entries_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(m));
  occupancy_ =
      std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(m));
  resource_epoch_ = std::make_unique<std::atomic<Epoch>[]>(
      static_cast<std::size_t>(m));
  unavailable_ =
      std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    entries_[static_cast<std::size_t>(r)].store(0);
    occupancy_[static_cast<std::size_t>(r)].store(0);
    resource_epoch_[static_cast<std::size_t>(r)].store(0);
    unavailable_[static_cast<std::size_t>(r)].store(false);
  }
  peer_down_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(config_.n) + 1);
  for (NodeId v = 0; v <= config_.n; ++v) {
    peer_down_[static_cast<std::size_t>(v)].store(false);
  }
  repair_.reserve(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    repair_.push_back(std::make_unique<RepairState>());
  }

  nodes_.reserve(static_cast<std::size_t>(m));
  for (const std::string& name : config_.resources) {
    const ResourceId r = directory_.open(name);
    nodes_.push_back(std::make_unique<ResourceNode>(*this, r));
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
    nodes_.back()->node =
        std::move(protocol_nodes[static_cast<std::size_t>(config_.self)]);
  }

  // Resolve metric ids once, here in cold code (same names as the
  // threaded substrate, so cross-substrate snapshots line up).
  auto& registry = telemetry::Registry::global();
  hold_hist_ = registry.histogram("client.hold_ns");
  chain_hist_ = registry.histogram("client.chain_len");
  repair_hist_ = registry.histogram("fault.repair_ns");
  resource_telemetry_.reserve(static_cast<std::size_t>(m));
  for (ResourceId r = 0; r < m; ++r) {
    const std::string& rname = directory_.name(r);
    ResourceTelemetry rt;
    rt.wait_ns = registry.histogram("client.wait_ns." + rname);
    rt.ok = registry.counter("client.ok." + rname);
    rt.timeouts = registry.counter("client.timeout." + rname);
    rt.unavailable = registry.counter("client.unavailable." + rname);
    resource_telemetry_.push_back(rt);
  }
  for (const std::string& kind : config_.algorithm.token_message_kinds) {
    token_kinds_.push_back(net::MessageKind::of(kind));
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
  // strand tasks are destroyed unrun when the nodes go away.
  executor_.shutdown();
}

DistributedLockSpace::ResourceNode& DistributedLockSpace::rn(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *nodes_[static_cast<std::size_t>(r)];
}

DistributedLockSpace::RepairState& DistributedLockSpace::repair(ResourceId r) {
  DMX_CHECK(r >= 0 && r < resource_count());
  return *repair_[static_cast<std::size_t>(r)];
}

Epoch DistributedLockSpace::epoch(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return resource_epoch_[static_cast<std::size_t>(r)].load(
      std::memory_order_acquire);
}

void DistributedLockSpace::route(ResourceId r, NodeId to,
                                 net::MessagePtr message, Epoch tag) {
  DMX_CHECK(to >= 1 && to <= config_.n && to != config_.self);
  for (const net::MessageKind kind : token_kinds_) {
    if (message->kind_id() == kind) {
      telemetry::FlightRecorder::record(telemetry::FlightEvent::kTokenForward,
                                        r, to, /*arg=*/config_.self);
      break;
    }
  }
  // The wire analogue of the threaded substrate's traffic-to-dead-node
  // drop; repair re-requests cover anything lost here.
  if (peer_down_[static_cast<std::size_t>(to)].load(
          std::memory_order_relaxed)) {
    return;
  }
  try {
    if (!loop_->send(to, tag, r, *message)) {
      // Peer vanished between the liveness check and the send; the
      // on_peer_down path handles it.
      return;
    }
  } catch (const net::WireError& e) {
    fail(e.what());
  }
}

void DistributedLockSpace::on_frame(const FrameHeader& header,
                                    net::MessagePtr message) {
  if (header.to != config_.self) {
    record_error("frame addressed to node " + std::to_string(header.to) +
                 " arrived at node " + std::to_string(config_.self));
    return;
  }
  if (header.resource < 0 || header.resource >= resource_count()) {
    record_error("frame for unknown resource " +
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
      record_error("repair frame queue overflow on resource " +
                   std::to_string(header.resource));
      return;
    }
    rs.queued.push_back(
        QueuedFrame{header.epoch, header.from, std::move(message)});
    return;
  }
  ResourceNode& x = rn(header.resource);
  const Epoch tag = header.epoch;
  const NodeId from = header.from;
  x.strand.post([&x, tag, from, msg = std::move(message)]() mutable {
    x.deliver(tag, from, std::move(msg));
  });
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
    record_error("peer node " + std::to_string(peer) +
                 " disconnected without goodbye");
    for (int r = 0; r < resource_count(); ++r) {
      mark_unavailable(r);
      wake_clients(r);
    }
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
    record_error("no live majority after node " + std::to_string(peer) +
                 " crashed");
    for (int r = 0; r < resource_count(); ++r) {
      mark_unavailable(r);
      wake_clients(r);
    }
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
    mark_unavailable(r);
    wake_clients(r);
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
  // consumed (wait_for_grant revalidates granted_epoch against this), and
  // every old-tagged strand task drops itself.
  resource_epoch_[static_cast<std::size_t>(r)].store(
      e, std::memory_order_seq_cst);
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
  wake_clients(r);
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
      record_error("repair membership contains node " + std::to_string(v) +
                   " outside 1.." + std::to_string(config_.n));
      return;
    }
    up[static_cast<std::size_t>(v)] = 1;
    self_in = self_in || v == config_.self;
  }
  if (!self_in || !up[static_cast<std::size_t>(message.winner())]) {
    record_error("repair membership from node " +
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
  resource_epoch_[static_cast<std::size_t>(r)].store(
      rs.target, std::memory_order_seq_cst);
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart,
                                      r);
  }

  ResourceNode& x = rn(r);
  bool held = false;
  {
    std::lock_guard<std::mutex> client_guard(x.client_mutex);
    held = x.held;
  }
  if (held) {
    // The old-world critical section finishes undisturbed; unlock installs
    // the fresh world and acks then. The fence above already guarantees no
    // SECOND old-world entry can happen meanwhile.
    rs.await_unlock = true;
  } else {
    install_world_locked(r, rs);
    loop_->send(header.from, rs.installed, r, RepairAckMessage(rs.installed),
                /*block_on_backpressure=*/false);
  }
  wake_clients(r);
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
  ResourceNode& x = rn(r);
  {
    std::lock_guard<std::mutex> client_guard(x.client_mutex);
    if (x.held) {
      rs.await_unlock = true;
      return;
    }
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
  std::shared_ptr<const fault::Membership> shared = rs.membership;
  ResourceNode& x = rn(r);
  // The reset task is unfenced — it IS the epoch transition on this
  // strand; every later same-strand task observes the fresh world.
  x.strand.post([&x, e, shared,
                 fresh_node = std::move(
                     fresh[static_cast<std::size_t>(my_rank)])]() mutable {
    x.node = std::move(fresh_node);
    x.epoch = e;
    x.membership = shared;
    x.request_outstanding = false;
    x.publish_remote_pending();
  });
  // Re-issue behind the reset for parked waiters; any message it triggers
  // lands behind the destination's own reset or in its parked queue.
  x.strand.post([&x, e] { x.rerequest(e); });
  // Frames from world e that arrived before it was installed drain now,
  // behind the reset in strand FIFO; anything older is stale, anything
  // newer keeps waiting for its own install.
  std::size_t kept = 0;
  for (QueuedFrame& qf : rs.queued) {
    if (qf.epoch == e) {
      const NodeId from = qf.from;
      x.strand.post([&x, e, from, msg = std::move(qf.message)]() mutable {
        x.deliver(e, from, std::move(msg));
      });
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
  wake_clients(r);
}

void DistributedLockSpace::mark_unavailable(ResourceId r) {
  if (!unavailable_[static_cast<std::size_t>(r)].exchange(
          true, std::memory_order_seq_cst)) {
    telemetry::FlightRecorder::record(
        telemetry::FlightEvent::kResourceUnavailable, r);
  }
}

void DistributedLockSpace::wake_clients(ResourceId r) {
  ResourceNode& x = rn(r);
  // Lock/unlock pairs with each waiter's predicate check so the wake
  // cannot slip between its check and its wait.
  { std::lock_guard<std::mutex> guard(x.client_mutex); }
  x.client_cv.notify_all();
}

void DistributedLockSpace::debug_fence_epoch(ResourceId r) {
  RepairState& rs = repair(r);
  std::lock_guard<std::mutex> guard(rs.mutex);
  rs.target += 1;
  resource_epoch_[static_cast<std::size_t>(r)].store(
      rs.target, std::memory_order_seq_cst);
  wake_clients(r);
}

void DistributedLockSpace::record_error(const std::string& what) {
  std::lock_guard<std::mutex> guard(error_mutex_);
  if (!first_error_.has_value()) first_error_ = what;
}

void DistributedLockSpace::fail(const std::string& what) {
  record_error(what);
  failed_.store(true, std::memory_order_seq_cst);
  for (auto& node : nodes_) {
    { std::lock_guard<std::mutex> guard(node->client_mutex); }
    node->client_cv.notify_all();
  }
}

LockError DistributedLockSpace::wait_for_grant(
    ResourceId r, const std::chrono::milliseconds* timeout) {
  ResourceNode& x = rn(r);
  const ResourceTelemetry& rt =
      resource_telemetry_[static_cast<std::size_t>(r)];
  const std::uint64_t wait_started_ns = telemetry::now_ns();
  telemetry::FlightRecorder::record_at(wait_started_ns,
                                       telemetry::FlightEvent::kRequest, r,
                                       config_.self);
  const auto deadline =
      timeout != nullptr
          ? std::chrono::steady_clock::now() + *timeout
          : std::chrono::steady_clock::time_point::max();
  std::uint64_t grant_ns = 0;
  {
    std::unique_lock<std::mutex> guard(x.client_mutex);
    ++x.waiting;
    // Arrival-order ticket: grants are consumed strictly in ticket order,
    // so a later waiter on this node can never overtake an earlier one
    // through a lucky condvar wake.
    const std::uint64_t ticket = x.ticket_seq++;
    x.fifo.push(ticket);
    // No grant is coming: the space failed or the resource is dead.
    const auto doomed = [this, r] {
      return failed_.load(std::memory_order_relaxed) ||
             unavailable_[static_cast<std::size_t>(r)].load(
                 std::memory_order_relaxed);
    };
    // A pending grant counts as held (see ThreadedLockSpace): requesting
    // now would only be discarded by the strand.
    if (!x.requested && !x.held && !x.granted) {
      x.requested = true;
      const Epoch tag = resource_epoch_[static_cast<std::size_t>(r)].load(
          std::memory_order_acquire);
      if (x.strand.enqueue([&x, tag] { x.request(tag); })) {
        if (doomed()) {
          // Keep client_mutex until the first predicate check below, so
          // kUnavailable wins before any grant can be consumed.
          x.strand.submit_claimed();
        } else {
          // The strand was idle: run the request here (a token resting at
          // this node grants inside this call; a remote one sends the
          // REQUEST frame from this thread). Tasks take client_mutex, so
          // it must be dropped meanwhile.
          guard.unlock();
          x.strand.run_claimed();
          guard.lock();
        }
      }
    }
    const auto ready = [&x, ticket, &doomed] {
      return (x.granted && x.fifo.front() == ticket) || doomed();
    };
    while (true) {
      bool signalled = true;
      if (timeout == nullptr) {
        x.client_cv.wait(guard, ready);
      } else {
        signalled = x.client_cv.wait_until(guard, deadline, ready);
      }
      if (!signalled) {
        // Deadline passed; the request stays posted and a grant arriving
        // with nobody waiting is handed straight back by on_grant. A
        // repair wakeup never extends the deadline: the wait_until above
        // re-arms against the ORIGINAL deadline after every spurious or
        // stale-grant wake.
        --x.waiting;
        x.fifo.erase(ticket);
        guard.unlock();
        // The waiter behind us is the new front; a pending grant it was
        // fenced off may now be its to consume.
        x.client_cv.notify_all();
        telemetry::count(rt.timeouts);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kTimeout, r,
                                          config_.self);
        return LockError::kTimeout;
      }
      if (x.granted && x.fifo.front() == ticket) {
        // Revalidate against the current epoch: a repair may have fenced
        // the world this grant came from, in which case the regenerated
        // token supersedes it and entering would break exclusion. The
        // repair's re-request covers us; keep waiting.
        if (x.granted_epoch !=
            resource_epoch_[static_cast<std::size_t>(r)].load(
                std::memory_order_acquire)) {
          x.granted = false;
          continue;
        }
        x.granted = false;
        x.requested = false;
        --x.waiting;
        x.fifo.pop();
        x.held = true;
        x.held_epoch = x.granted_epoch;
        // One clock read serves the hold stamp, the wait histogram, and
        // the grant flight event.
        grant_ns = telemetry::now_ns();
        x.hold_started_ns = grant_ns;
        if (x.grant_via_chain) {
          x.grant_via_chain = false;  // window stays open, length counted
        } else {
          x.chain_len = 0;  // fresh protocol grant opens a fresh window
          x.chain_started_ns = grant_ns;
        }
        break;
      }
      if (unavailable_[static_cast<std::size_t>(r)].load(
              std::memory_order_relaxed)) {
        --x.waiting;
        x.fifo.erase(ticket);
        telemetry::count(rt.unavailable);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kUnavailable,
                                          r, config_.self);
        return LockError::kUnavailable;
      }
      if (failed_.load(std::memory_order_relaxed)) {
        --x.waiting;
        x.fifo.erase(ticket);
        DMX_CHECK_MSG(false, "distributed lock space failed while waiting on "
                                 << name(r) << "; see first_error()");
      }
      // Spurious wake (repair installed a fresh world, say): keep waiting
      // against the original deadline.
    }
  }
  // Local-view exclusivity witness (the harness's shared-memory witness
  // covers the cross-process claim).
  const int prev = occupancy_[static_cast<std::size_t>(r)].fetch_add(1);
  if (prev != 0) {
    record_error("local occupancy of resource " + name(r) + " was " +
                 std::to_string(prev) + " on entry");
  }
  entries_[static_cast<std::size_t>(r)].fetch_add(1,
                                                  std::memory_order_relaxed);
  // Per-resource lane only; "client.wait_ns" is rolled up at snapshot
  // time, matching the threaded substrate.
  if (telemetry::sample_1_in_8()) {
    telemetry::observe(rt.wait_ns, grant_ns - wait_started_ns);
  }
  telemetry::count(rt.ok);
  telemetry::FlightRecorder::record_at(grant_ns, telemetry::FlightEvent::kGrant,
                                       r, config_.self);
  return LockError::kOk;
}

void DistributedLockSpace::lock(ResourceId r) {
  const LockError error = wait_for_grant(r, nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource "
                    << name(r)
                    << " can never be granted (no live majority)");
}

LockError DistributedLockSpace::try_lock_for(
    ResourceId r, std::chrono::milliseconds timeout) {
  return wait_for_grant(r, &timeout);
}

void DistributedLockSpace::unlock(ResourceId r) {
  ResourceNode& x = rn(r);
  // One clock read ahead of the mutex serves the lease-window check, the
  // hold histogram, and the release/chain flight event.
  const std::uint64_t release_ns = telemetry::now_ns();
  std::uint64_t hold_started_ns = 0;
  bool chained = false;
  int chain_arg = 0;
  int ended_chain = 0;  // lease window closed at this length (0 = none)
  bool yielded_with_waiters = false;
  bool claimed = false;  // this thread owns the strand's activation
  {
    std::lock_guard<std::mutex> guard(x.client_mutex);
    DMX_CHECK_MSG(x.held, "unlock of resource " << name(r)
                                                << " which is not held");
    x.held = false;
    hold_started_ns = x.hold_started_ns;
    x.hold_started_ns = 0;
    occupancy_[static_cast<std::size_t>(r)].fetch_sub(1);
    // The tag is re-read here: if a repair fenced us while we held, the
    // release is minted in the NEW epoch and drops itself (the old world
    // is being discarded whole).
    const Epoch tag = resource_epoch_[static_cast<std::size_t>(r)].load(
        std::memory_order_acquire);
    // Local grant chaining: with waiters parked on this node and the
    // lease not exhausted, hand the CS straight to the next one — one
    // condvar wake, zero wire frames. Never across an epoch transition:
    // a repair fences (bumps the epoch) BEFORE it checks for a local
    // holder, so tag != held_epoch exactly when an install is waiting on
    // this unlock, and the normal path below completes it.
    if (x.waiting > 0 && tag == x.held_epoch &&
        !failed_.load(std::memory_order_relaxed) &&
        !unavailable_[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed)) {
      int chain = x.chain_len;
      const bool window_ok =
          config_.lease.max_hold_ns == 0 ||
          release_ns - x.chain_started_ns < config_.lease.max_hold_ns;
      bool hand_off =
          window_ok && service::lease_chain_allowed(config_.lease, chain);
      if (!hand_off && config_.lease.max_chain != 0 &&
          service::lease_renewable(
              config_.lease, config_.algorithm.holder_sees_remote_requests,
              x.remote_pending.load(std::memory_order_relaxed))) {
        // Lease expired but the protocol instance can see that no remote
        // request is pending: renew in place instead of a pointless
        // release/re-request wire round.
        ended_chain = chain;
        chain = 0;
        x.chain_started_ns = release_ns;
        hand_off = true;
      }
      if (hand_off) {
        x.chain_len = chain + 1;
        chain_arg = x.chain_len;
        x.granted = true;
        x.granted_epoch = x.held_epoch;
        x.grant_via_chain = true;
        chained = true;
      }
    }
    if (!chained) {
      ended_chain = x.chain_len;
      x.chain_len = 0;
      yielded_with_waiters = x.waiting > 0;
      // Strand FIFO orders the release ahead of the follow-up request,
      // and enqueueing under client_mutex keeps a racing lock() on another
      // thread from slipping its request in between.
      if (x.strand.enqueue([&x, tag] { x.release(tag); })) claimed = true;
      if (x.waiting > 0 && !x.requested) {
        x.requested = true;
        if (x.strand.enqueue([&x, tag] { x.request(tag); })) claimed = true;
      }
    }
  }
  // The strand was idle: release here, off client_mutex and before the
  // deferred-repair check below takes rs.mutex, instead of a pool hop.
  if (claimed) x.strand.run_claimed();
  // Telemetry off the client mutex.
  if (hold_started_ns != 0 && telemetry::sample_1_in_8()) {
    telemetry::observe(hold_hist_, release_ns - hold_started_ns);
  }
  if (ended_chain > 0) {
    telemetry::observe(chain_hist_,
                       static_cast<std::uint64_t>(ended_chain));
  }
  if (chained) {
    x.client_cv.notify_all();
    chained_grants_.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(release_ns,
                                         telemetry::FlightEvent::kChainGrant,
                                         r, config_.self, chain_arg);
    // No deferred install can be waiting on this unlock: a repair fences
    // the epoch before deferring, which disables chaining above.
    return;
  }
  telemetry::FlightRecorder::record_at(release_ns,
                                       telemetry::FlightEvent::kRelease, r,
                                       config_.self);
  if (yielded_with_waiters) {
    lease_yields_.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(release_ns,
                                         telemetry::FlightEvent::kLeaseYield,
                                         r, config_.self, ended_chain);
  }
  // Complete a repair that deferred while this client held the lock.
  // Taken without client_mutex: the repair path acquires client_mutex
  // under rs.mutex, never the reverse.
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

std::uint64_t DistributedLockSpace::entries(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return entries_[static_cast<std::size_t>(r)].load(
      std::memory_order_relaxed);
}

std::uint64_t DistributedLockSpace::total_entries() const {
  std::uint64_t total = 0;
  for (int r = 0; r < resource_count(); ++r) total += entries(r);
  return total;
}

std::optional<std::string> DistributedLockSpace::first_error() const {
  {
    std::lock_guard<std::mutex> guard(error_mutex_);
    if (first_error_.has_value()) return first_error_;
  }
  return loop_->first_error();
}

telemetry::MetricsSnapshot DistributedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = telemetry::Registry::global().snapshot();
  const exec::ExecutorStats stats = executor_.stats();
  snap.set_counter("exec.tasks_executed", stats.tasks_executed);
  snap.set_counter("exec.steals", stats.steals);
  snap.set_counter("exec.parks", stats.parks);
  snap.set_counter("exec.injector_polls", stats.injector_polls);
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
  snap.set_counter("client.chained_grants", chained_grants());
  snap.set_counter("client.lease_yields", lease_yields());
  return snap;
}

}  // namespace dmx::transport
