// Multi-resource lock service on the multi-threaded runtime.
//
// The space is n service::NodeRuntimes (service/node_runtime.hpp), one
// per node, over an in-process LoopbackTransport. Every (resource, node)
// protocol state machine is a service::Gate with its own exec::Strand — a
// serialized task queue — and all strands of all nodes share ONE
// work-stealing worker pool (exec::Executor). Message delivery, request
// and release are strand tasks, so each state machine keeps the paper's
// one-event-at-a-time semantics while independent resources (even on the
// same node) run in parallel across the pool. A message between two
// nodes is the sender's MessagePtr admitted by the destination runtime
// and posted onto the destination gate's strand.
//
// The client API is blocking: lock(r, v) parks the calling application
// thread until node v holds resource r's critical section; ScopedLock is
// the RAII sugar. Multiple application threads may contend for the same
// (resource, node) pair — the gate queues local waiters behind one
// protocol request at a time (the paper's one-outstanding-request
// precondition), chains the critical section between them under a lease,
// and runs a request or release on the caller's own thread when its
// strand is idle, so a token-resident acquire is granted inside the call.
//
// The loopback: each node's runtime sends through its own
// LoopbackTransport, which hands the sender's MessagePtr to the
// destination runtime with no encoding and no allocation. Protocol frames
// are admitted on the sending thread, so the destination strand's post
// rides the sender's trampoline (exec/strand.hpp) and a remote acquire on
// a quiescent space completes inside lock(). Repair control frames go
// through the destination's inbox strand, which always runs on the pool —
// the in-process counterpart of the TCP loop thread — because the sender
// holds its repair mutex while it sends.
//
// Faults: crash(v) kills v's runtime in place (every resource fenced and
// unavailable at v, a hold it had is retired from the witness) and cuts
// v's links, which raises on_peer_down on both sides — the path a TCP EOF
// takes. The survivors then run the same REPAIR/ACK ballot the TCP space
// ships. recover(v) relinks v and raises on_peers_up at every survivor, so
// each fences the world it outgrew (or announces the next), then hands v
// its whole view in one on_peers_up; one more ballot re-admits it. With
// recovery disabled, a crash leaves the resources homed at the dead node
// unavailable at every node, and every resource unavailable at a node
// without a live majority.
//
// Safety instrumentation: per-resource occupancy counters assert that no
// two nodes are ever inside one resource's critical section (violations
// surface through first_error()), the cross-thread analogue of the
// simulator harness's per-event exclusivity check.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "exec/strand.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/directory.hpp"
#include "service/gate.hpp"
#include "service/lease.hpp"
#include "service/node_runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/tree.hpp"

namespace dmx::service {

struct ThreadedLockSpaceConfig {
  int n = 0;
  /// Protocol backing every resource without an explicit override.
  proto::Algorithm algorithm;
  /// Names of the resources to serve; fixed at construction (the strands
  /// own the protocol instances, so the set cannot grow live).
  std::vector<std::string> resources;
  /// Per-resource algorithm overrides, keyed by resource name — parity
  /// with the sim LockSpace's open(name, algorithm). Every named resource
  /// must appear in `resources`.
  std::vector<std::pair<std::string, proto::Algorithm>> resource_algorithms;
  /// Shared logical tree for path-forwarding algorithms; defaults to a
  /// star centered on node 1 when required and absent.
  std::optional<topology::Tree> tree;
  /// Artificial per-message delivery delay bound in microseconds (0 = no
  /// delay); shakes out schedule-dependent bugs in stress tests.
  unsigned jitter_us = 0;
  std::uint64_t seed = 1;
  int directory_vnodes = 16;
  /// Worker threads in the shared pool; 0 = hardware concurrency.
  int workers = 0;
  /// Bounded spin rounds before an idle worker parks (see ExecutorConfig).
  int spin = 64;
  /// Whether crash() triggers structure repair (election + token
  /// regeneration over the survivors). Off, a crash that kills a
  /// resource's home leaves the resource unavailable — try_lock_for
  /// returns LockError::kUnavailable instead of waiting forever.
  bool recovery_enabled = true;
  /// Local grant-chaining lease: how many consecutive releases may hand
  /// the CS straight to a co-located waiter (one condvar wake, zero
  /// protocol messages) before the token must be offered back to the
  /// protocol so remote requesters keep bounded waiting.
  LeaseConfig lease;
};

class ThreadedLockSpace final {
 public:
  explicit ThreadedLockSpace(ThreadedLockSpaceConfig config);
  /// Stops the pool before the runtimes and links its tasks use go away.
  ~ThreadedLockSpace() { gates_.shutdown(); }

  ThreadedLockSpace(const ThreadedLockSpace&) = delete;
  ThreadedLockSpace& operator=(const ThreadedLockSpace&) = delete;

  int nodes() const { return config_.n; }
  int resource_count() const { return directory_.resource_count(); }
  int workers() const { return gates_.executor().workers(); }

  ResourceId lookup(std::string_view name) const {
    return directory_.lookup(name);
  }
  const std::string& name(ResourceId r) const { return directory_.name(r); }
  NodeId home_node(ResourceId r) const { return directory_.home_node(r); }
  /// Algorithm backing resource `r` (the default or its override).
  const proto::Algorithm& algorithm(ResourceId r) const;

  /// Blocks until node `v` holds resource `r`'s critical section.
  void lock(ResourceId r, NodeId v);
  /// Bounded-wait lock: like lock(), but gives up after `timeout`
  /// (kTimeout) and reports a dead node or dead resource as kUnavailable
  /// instead of blocking forever.
  LockError try_lock_for(ResourceId r, NodeId v,
                         std::chrono::milliseconds timeout);
  /// Leaves the critical section; must be called by the holder. After a
  /// crash, a zombie holder's unlock is tolerated as a no-op ghost.
  void unlock(ResourceId r, NodeId v);

  /// Crash-fault injection: node `v` dies in place. Its strand tasks are
  /// quiesced via epoch fencing (the thread-kill equivalent — queued work
  /// dies unobserved, no strand is ever blocked), traffic to and from it
  /// is dropped, its local waiters wake with kUnavailable, and — with
  /// recovery enabled — the survivors elect a regenerator and every
  /// resource is rebuilt over the compact survivor world.
  void crash(NodeId v);
  /// The crashed node's links return; with recovery enabled, every
  /// resource is repaired over the enlarged membership (fresh epoch,
  /// re-minted token).
  void recover(NodeId v);
  bool is_node_up(NodeId v) const;
  /// Fence epoch of resource `r` at node `v` (0 until its first repair).
  Epoch epoch(ResourceId r, NodeId v) const;
  /// The highest fence epoch of resource `r` over the live nodes.
  Epoch epoch(ResourceId r) const;

  std::uint64_t total_entries() const;
  std::uint64_t entries(ResourceId r) const;
  /// Protocol messages sent by every node (repair control excluded).
  std::uint64_t messages_sent() const;
  /// Releases that handed the CS straight to a co-located waiter without
  /// a protocol round, and lease windows that closed with local waiters
  /// still queued (the token went back to the protocol anyway — the
  /// bounded-waiting cap at work).
  std::uint64_t chained_grants() const { return gates_.chained_grants(); }
  std::uint64_t lease_yields() const { return gates_.lease_yields(); }
  /// Application threads of node `v` currently parked in lock() /
  /// try_lock_for() on `r`. Test observability for the FIFO hand-off
  /// queue; racy by nature, stable once the callers are known parked.
  int local_waiters(ResourceId r, NodeId v);

  /// First protocol or exclusivity error observed on any thread, if any.
  std::optional<std::string> first_error() const;

  /// Merged runtime metrics: every telemetry metric recorded in this
  /// process (the registry is process-global) plus this space's executor
  /// counters folded in as exec.* and the message count as service.*.
  telemetry::MetricsSnapshot telemetry_snapshot() const;

 private:
  /// Node v's end of the in-process medium, and its runtime.
  class LoopbackTransport final : public Transport {
   public:
    LoopbackTransport(ThreadedLockSpace& space, NodeId self);
    void send_frame(NodeId to, Epoch epoch, ResourceId resource,
                    net::MessagePtr message) override;

    NodeRuntime runtime;
    /// Repair control frames to this node, run on the pool in order.
    exec::Strand inbox;
    /// Frames to and from a cut node are dropped.
    std::atomic<bool> linked{true};

   private:
    ThreadedLockSpace& space_;
  };

  LoopbackTransport& node(NodeId v) {
    return *nodes_[static_cast<std::size_t>(v) - 1];
  }
  const LoopbackTransport& node(NodeId v) const {
    return *nodes_[static_cast<std::size_t>(v) - 1];
  }
  NodeRuntime& runtime(NodeId v) { return node(v).runtime; }
  const NodeRuntime& runtime(NodeId v) const { return node(v).runtime; }
  void check(ResourceId r, NodeId v) const;

  ThreadedLockSpaceConfig config_;
  Directory directory_;
  /// Per-resource state, the gates and the pool their strands run on.
  GateSet gates_;
  std::vector<std::unique_ptr<LoopbackTransport>> nodes_;  // node v at v - 1
};

/// RAII holder: locks on construction, unlocks on destruction. Move-only.
class ScopedLock {
 public:
  ScopedLock(ThreadedLockSpace& space, ResourceId r, NodeId v)
      : space_(&space), resource_(r), node_(v) {
    space_->lock(resource_, node_);
  }
  ScopedLock(ThreadedLockSpace& space, std::string_view name, NodeId v)
      : ScopedLock(space, space.lookup(name), v) {}

  ScopedLock(ScopedLock&& other) noexcept
      : space_(other.space_), resource_(other.resource_),
        node_(other.node_) {
    other.space_ = nullptr;
  }
  ScopedLock& operator=(ScopedLock&&) = delete;
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  ~ScopedLock() {
    if (space_ != nullptr) space_->unlock(resource_, node_);
  }

 private:
  ThreadedLockSpace* space_;
  ResourceId resource_;
  NodeId node_;
};

}  // namespace dmx::service
