// One node of a lock space: its client gates, frame admission and the
// REPAIR/ACK membership repair, over a narrow Transport seam
// (service/transport.hpp).
//
// Three transports carry it: the TCP DistributedLockSpace is one runtime
// per process over an EventLoop; ThreadedLockSpace is N runtimes over an
// in-process LoopbackTransport, sharing one GateSet (pool, per-resource
// witness); the sim LockSpace is N runtimes over a SimTransport on the
// deterministic network, sharing one inline GateSet. Every way a runtime
// sees the rest of the cluster only through frames and link events, so
// the repair the threaded tests and the swarm exercise is the one that
// ships.
//
// Admission: a frame from an id outside 1..n or from this node itself is
// rejected with a recorded error (the strand also rejects a sender outside
// its world's membership). A protocol frame stamped below the resource's
// fence epoch is old-world traffic and is dropped; one stamped above the
// installed world is parked (at most 4096 per resource) and drained behind
// the reset task once its world installs.
//
// Repair: every link event re-reads this node's view of who is alive and
// reconciles each resource against it.
//   - No live strict majority, or recovery disabled and the resource's
//     home down: the resource is fenced (its fence epoch bumped with no
//     world behind it) and marked unavailable — waiters drain with
//     kUnavailable. This is not an error.
//   - Otherwise, if the world this node is in does not span exactly the
//     live set, the elected regenerator (quorum::elect_regenerator, the
//     smallest live node) raises its fence to a ballot epoch
//     (round * n + self, so two winners never mint the same epoch) and
//     announces REPAIR with the compact survivor fault::Membership to
//     every member. Every other node fences its stale world and waits for
//     that announcement, so no live node outside the new membership can
//     still grant in the old one.
//   - A member adopts a REPAIR from its winner at an epoch above its
//     fence, fences at it, installs the fresh world and acks. The winner
//     installs — re-minting the token — only once every member acked and
//     no local client still holds the old critical section. A holder
//     defers the install (and, at a member, the ack) to its unlock. An
//     ack above the winner's target means a dead predecessor fenced the
//     acker higher; the winner announces again above it.
//   - A node whose view regains a live majority (on_peers_up after a
//     crash) is no longer unavailable, only fenced: one more ballot over
//     the grown live set re-admits it. Installing a world clears the
//     flag too.
//
// Lock order: a resource's repair mutex before its gate's client mutex.
// Over inline strands (the sim) a post runs its task on the spot, so the
// runtime holds such activations back (exec::Strand::Hold) until it has
// dropped the repair mutex: the install's re-request may grant, and the
// client's grant callback may unlock or crash this node at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "exec/strand.hpp"
#include "fault/membership.hpp"
#include "net/message.hpp"
#include "service/gate.hpp"
#include "service/transport.hpp"

namespace dmx::service {

class RepairMessage;
class RepairAckMessage;

class NodeRuntime final : private GateHost {
 public:
  /// Runs on the repair winner once per installed epoch and resource,
  /// after every member has fenced but before the regenerated world can
  /// grant; an embedder retires state a dead holder abandoned here.
  using RepairHook = std::function<void(Epoch, const fault::Membership&)>;

  /// Node `self` of `set`'s cluster.
  NodeRuntime(GateSet& set, Transport& transport, NodeId self,
              bool recovery_enabled, RepairHook on_repair = {});

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Registers resource `r`'s gate with this node's instance of the
  /// initial world. Resources are added in id order; a threaded or TCP
  /// space adds every one before the first frame, the single-threaded sim
  /// opens them on demand.
  void add_gate(ResourceId r, std::uint64_t seed,
                std::unique_ptr<proto::MutexNode> node);

  // --- Transport upcalls -------------------------------------------------

  /// Admits one frame from node `from`, stamped with `epoch`.
  void on_frame(NodeId from, Epoch epoch, ResourceId r,
                net::MessagePtr message);
  /// The link to `peer` died (crash).
  void on_peer_down(NodeId peer);
  /// The links to `peers` came back, all at once: a node that rejoins
  /// learns its whole view in one step, because acting on a partial
  /// (minority) one would fence a world a winner has just re-admitted it
  /// to.
  void on_peers_up(const std::vector<NodeId>& peers);

  // --- Client side --------------------------------------------------------

  Gate& gate(ResourceId r) { return *slot(r).gate; }
  /// Leaves the critical section and completes a repair deferred on it.
  void unlock(ResourceId r);
  /// This node died in place: every resource is fenced and unavailable,
  /// client state is cleared (a holder's later unlock is a ghost), and
  /// every link is down in its view.
  void abandon();
  /// TEST HOOK: fences resource `r` one epoch up with no world behind it
  /// and wakes parked clients — the repair wake-up in isolation. The
  /// resource can never grant again at this node.
  void debug_fence_epoch(ResourceId r);

  NodeId self() const { return self_; }
  Epoch epoch(ResourceId r) const {
    return slot(r).gate->fence.load(std::memory_order_acquire);
  }
  /// Protocol messages this node's gates sent (repair control excluded).
  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
  /// Protocol frames dropped because their epoch predated the fence.
  std::uint64_t stale_frames() const {
    return stale_frames_.load(std::memory_order_relaxed);
  }
  /// Membership of `r`'s target world. Unsynchronized: for a
  /// single-threaded embedder (the sim's checker).
  const fault::Membership& membership(ResourceId r) const {
    return *slot(r).membership;
  }

 private:
  /// A protocol frame parked above the installed world.
  struct QueuedFrame {
    Epoch epoch = 0;
    NodeId from = kNilNode;
    net::MessagePtr message;
  };

  /// One resource at this node; `mutex` guards every field but `gate`.
  struct Slot {
    Gate* gate = nullptr;
    std::mutex mutex;
    /// Highest epoch fenced at, mirrored into gate->fence.
    Epoch target = 0;
    /// Epoch whose world reset has been posted to the strand.
    Epoch installed = 0;
    /// `installed` while it is also the target, else kNoWorld: frames of
    /// this epoch are admitted without the mutex.
    std::atomic<Epoch> open{0};
    /// Regenerator of the target world; kNilNode while the fence has no
    /// world behind it (target > installed) or for the initial world.
    NodeId winner = kNilNode;
    /// Membership of the target world.
    std::shared_ptr<const fault::Membership> membership;
    /// The install (and, at a member, the ack) waits for the local
    /// holder's unlock.
    bool await_unlock = false;
    /// Winner only: which members have acked the target.
    std::vector<std::uint8_t> acks;
    int acks_missing = 0;
    std::vector<QueuedFrame> queued;
    /// When the current repair was first observed (0 = none in flight).
    std::uint64_t repair_started_ns = 0;
  };

  Slot& slot(ResourceId r) { return slots_[static_cast<std::size_t>(r)]; }
  const Slot& slot(ResourceId r) const {
    return slots_[static_cast<std::size_t>(r)];
  }
  /// Runs `f` under s.mutex. The inline strand activations it claims run
  /// only after the mutex is dropped: a grant they make reaches the
  /// client, which may unlock (and so take s.mutex) on the spot.
  template <typename F>
  void locked(Slot& s, F&& f) {
    exec::Strand::Hold hold;
    {
      std::lock_guard<std::mutex> guard(s.mutex);
      f();
    }
    hold.run();
  }
  /// GateHost: counts the message and hands it to the transport.
  void route(ResourceId r, NodeId from, NodeId to, net::MessagePtr message,
             Epoch tag) override;
  /// This node's liveness view, indexed by original id.
  std::vector<std::uint8_t> view() const;
  /// Whether the target world exists and spans exactly `up`.
  bool current(const Slot& s, const std::vector<std::uint8_t>& up) const;
  /// Records the link changes and reconciles every resource.
  void set_links(const std::vector<NodeId>& peers, bool up);
  /// Brings resource `r` in line with the view (see the header); a
  /// winner announces above `at_least`.
  void reconcile_locked(ResourceId r, Slot& s, Epoch at_least);
  /// Raises the fence one epoch with no world behind it (idempotent while
  /// no world is adopted) and wakes parked clients.
  void fence_locked(Slot& s);
  /// Makes world `e` of `winner` over `up` the target and fences at it.
  void adopt_locked(ResourceId r, Slot& s, Epoch e, NodeId winner,
                    const std::vector<std::uint8_t>& up);
  /// Clears the unavailable flag, observing how long it was up.
  void mark_available_locked(Slot& s);
  void start_repair_clock_locked(ResourceId r, Slot& s);
  /// Winner: fences at a fresh ballot above `at_least` and announces it.
  void announce_locked(ResourceId r, Slot& s,
                       const std::vector<std::uint8_t>& up, Epoch at_least);
  void handle_repair_locked(NodeId from, ResourceId r, Slot& s,
                            const RepairMessage& message);
  void handle_repair_ack_locked(NodeId from, ResourceId r, Slot& s,
                                const RepairAckMessage& message);
  /// Completes a repair deferred on this node's holder, now gone.
  void finish_deferred_locked(ResourceId r, Slot& s);
  /// Winner: installs iff every ack arrived and nobody holds the old CS.
  void try_install_locked(ResourceId r, Slot& s);
  /// Posts the target world (reset, re-request, parked-frame drain).
  void install_world_locked(ResourceId r, Slot& s);
  void send_ack_locked(ResourceId r, const Slot& s, NodeId to);

  GateSet& set_;
  Transport& transport_;
  const NodeId self_;
  const int n_;
  const bool recovery_enabled_;
  const RepairHook on_repair_;
  /// Link liveness by original id; self is always up.
  std::unique_ptr<std::atomic<bool>[]> up_;
  std::shared_ptr<const fault::Membership> initial_membership_;
  /// Slots by ResourceId; a deque never moves them as it grows.
  std::deque<Slot> slots_;
  /// Slots with a gate, ids 0..resources_-1.
  int resources_ = 0;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> stale_frames_{0};
};

}  // namespace dmx::service
