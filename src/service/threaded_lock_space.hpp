// Multi-resource lock service on the multi-threaded runtime.
//
// Execution substrate: every (resource, node) protocol state machine is a
// service::Gate (service/gate.hpp) with its own exec::Strand — a
// serialized task queue — and all strands of all nodes share ONE
// work-stealing worker pool (exec::Executor). Message delivery, request
// and release are strand tasks, so each state machine keeps the paper's
// one-event-at-a-time semantics while independent resources (even on the
// same node) run in parallel across the pool. A message between two nodes
// is a post onto the destination gate's strand.
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
// Faults: crash(v) sets the down flag of v's gates, and a repair bumps
// the resource's epoch, installs fresh compact-world instances and
// re-requests for parked waiters (maybe_repair).
//
// Safety instrumentation: per-resource occupancy counters assert that no
// two nodes are ever inside one resource's critical section (violations
// surface through first_error()), the cross-thread analogue of the
// simulator harness's per-event exclusivity check.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "fault/membership.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/directory.hpp"
#include "service/gate.hpp"
#include "service/lease.hpp"
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

class ThreadedLockSpace final : private GateHost {
 public:
  explicit ThreadedLockSpace(ThreadedLockSpaceConfig config);

  ThreadedLockSpace(const ThreadedLockSpace&) = delete;
  ThreadedLockSpace& operator=(const ThreadedLockSpace&) = delete;

  int nodes() const { return config_.n; }
  int resource_count() const { return directory_.resource_count(); }
  int workers() const { return gates_.executor().workers(); }
  const Directory& directory() const { return directory_; }

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
  /// The crashed node rejoins; with recovery enabled, every resource is
  /// repaired over the enlarged membership (fresh epoch, re-minted token).
  void recover(NodeId v);
  bool is_node_up(NodeId v) const;
  /// Reconfiguration epoch of resource `r` (0 until the first repair).
  Epoch epoch(ResourceId r) const;

  std::uint64_t total_entries() const;
  std::uint64_t entries(ResourceId r) const;
  std::uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_relaxed);
  }
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
  /// Per-resource repair bookkeeping; `mutex` serializes repairs against
  /// each other and against the holder checks in unlock(). Taken before
  /// any gate's client mutex, never the reverse.
  struct RepairState {
    std::mutex mutex;
    /// Repair requested while a live survivor held the lock; the holder's
    /// unlock completes it.
    bool pending = false;
    /// When the stale membership was first observed (0 = no repair in
    /// flight); spans deferred repairs, so fault.repair_ns measures the
    /// client-visible regeneration latency, not just the install step.
    std::uint64_t repair_started_ns = 0;
    /// Membership of the resource's current epoch (empty = identity).
    fault::Membership membership;
    /// Repair topologies, kept alive for the instances referencing them.
    std::vector<std::unique_ptr<topology::Tree>> trees;
  };

  std::size_t gate_index(ResourceId r, NodeId v) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(config_.n) +
           static_cast<std::size_t>(v) - 1;
  }
  Gate& gate(ResourceId r, NodeId v) { return gates_.gate(gate_index(r, v)); }
  const Gate& gate(ResourceId r, NodeId v) const {
    return gates_.gate(gate_index(r, v));
  }
  /// GateHost: a message between nodes is a post onto the destination
  /// gate's strand; traffic to and from a dead node is dropped.
  void route(ResourceId r, NodeId from, NodeId to, net::MessagePtr message,
             Epoch tag) override;
  /// Repairs resource `r` if its membership is stale: elects a winner by
  /// quorum consent, bumps the epoch (fencing every queued old-world
  /// task), installs fresh compact-world instances via per-strand reset
  /// tasks, and re-issues requests for nodes with parked waiters. Defers
  /// (pending) while a live node holds the lock; marks the resource
  /// unavailable when no live majority exists.
  void maybe_repair(ResourceId r);
  /// Wakes every parked waiter of resource `r` (predicate re-check).
  void wake_all(ResourceId r);

  ThreadedLockSpaceConfig config_;
  Directory directory_;
  std::vector<proto::Algorithm> algorithms_;  // by ResourceId
  std::vector<std::unique_ptr<RepairState>> repair_;  // by ResourceId
  /// Initial token holder by ResourceId (the resource's "home" for
  /// token-loss detection when recovery is disabled).
  std::vector<NodeId> initial_holder_;
  std::atomic<std::uint64_t> messages_sent_{0};
  telemetry::HistogramId repair_hist_;
  telemetry::HistogramId unavail_hist_;
  /// The (resource, node) gates, indexed r * n + (v - 1), and the pool
  /// their strands run on. Declared last so the pool stops before the
  /// repair trees and counters its tasks use are destroyed.
  GateSet gates_;
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
