// Multi-resource lock service on the multi-threaded runtime.
//
// Execution substrate: every (resource, node) protocol state machine owns
// an exec::Strand — a serialized task queue — and all strands of all
// nodes share ONE work-stealing worker pool (exec::Executor). Message
// delivery, request and release are strand-enqueued tasks, so each state
// machine keeps the paper's one-event-at-a-time semantics while
// independent resources (even on the same node) run in parallel across
// the pool. This replaces an earlier architecture of one mailbox
// event-loop thread per node, which serialized every resource of a node
// behind one thread and capped the service at ~1.6x a single resource no
// matter how many resources it carried.
//
// The client API is blocking: lock(r, v) parks the calling application
// thread until node v holds resource r's critical section; ScopedLock is
// the RAII sugar. Multiple application threads may contend for the same
// (resource, node) pair — local waiters queue behind one protocol request
// at a time (the paper's one-outstanding-request precondition), and the
// resource hands off locally before the next protocol round trip.
//
// Request and release are not always pool tasks. The gate enqueues them
// on the strand under the (resource, node) client_mutex, as before, and
// when that strand was idle the calling thread claims its activation and
// runs it itself once client_mutex is dropped (exec::Strand::enqueue /
// run_claimed). So an acquire whose token rests at the caller is granted
// inside its own call — the paper's "enter at once" case, with no pool
// task and no condvar sleep — a remote acquire sends its REQUEST from the
// client thread, and unlock runs release_cs inline. No claimed activation
// may run under client_mutex: on_grant, rerequest and fail all take it.
// Busy strands queue as before, and strands the inline task posts to are
// scheduled on the pool. exec.strand_activations counts these caller-run
// activations too, while exec.tasks_executed counts pool tasks only.
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
#include "exec/executor.hpp"
#include "fault/membership.hpp"
#include "net/message_kind.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/directory.hpp"
#include "service/lease.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/tree.hpp"

namespace dmx::service {

/// Outcome of a bounded-wait lock attempt.
enum class LockError {
  kOk = 0,
  /// The wait deadline passed without a grant; the request stays posted
  /// and a grant that arrives with nobody waiting is released back.
  kTimeout,
  /// The lock can never be granted: the calling node has crashed, or the
  /// resource is dead (its token died with a crashed node and recovery is
  /// disabled or lacks a live majority).
  kUnavailable,
};

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

class ThreadedLockSpace {
 public:
  explicit ThreadedLockSpace(ThreadedLockSpaceConfig config);
  ~ThreadedLockSpace();

  ThreadedLockSpace(const ThreadedLockSpace&) = delete;
  ThreadedLockSpace& operator=(const ThreadedLockSpace&) = delete;

  int nodes() const { return config_.n; }
  int resource_count() const { return directory_.resource_count(); }
  int workers() const { return executor_.workers(); }
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
  std::uint64_t chained_grants() const {
    return chained_grants_.load(std::memory_order_relaxed);
  }
  std::uint64_t lease_yields() const {
    return lease_yields_.load(std::memory_order_relaxed);
  }
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
  struct ResourceNode;

  /// Per-resource repair bookkeeping; `mutex` serializes repairs against
  /// each other and against the holder checks in unlock().
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

  /// Per-resource interned metric ids and token-kind set, resolved once
  /// at construction so the hot paths never touch the registry's mutex.
  struct ResourceTelemetry {
    telemetry::HistogramId wait_ns;
    telemetry::CounterId ok;
    telemetry::CounterId timeouts;
    telemetry::CounterId unavailable;
    /// Interned kinds of this resource's token-carrying messages, for
    /// flight-recording token forwards in route().
    std::vector<net::MessageKind> token_kinds;
  };

  ResourceNode& rn(ResourceId r, NodeId v);
  void route(ResourceId r, NodeId from, NodeId to, net::MessagePtr message,
             Epoch tag);
  /// Flips resource `r` unavailable, stamping the window start once.
  void mark_unavailable(ResourceId r);
  void record_error(const std::string& what);
  /// Records the error, then releases every parked application thread —
  /// no grant is ever coming once a protocol handler has thrown.
  void fail(const std::string& what);
  /// Repairs resource `r` if its membership is stale: elects a winner by
  /// quorum consent, bumps the epoch (fencing every queued old-world
  /// task), installs fresh compact-world instances via per-strand reset
  /// tasks, and re-issues requests for nodes with parked waiters. Defers
  /// (pending) while a live node holds the lock; marks the resource
  /// unavailable when no live majority exists.
  void maybe_repair(ResourceId r);
  /// Wakes every parked waiter of resource `r` (predicate re-check).
  void wake_all(ResourceId r);
  LockError wait_for_grant(ResourceId r, NodeId v,
                           const std::chrono::milliseconds* timeout);

  ThreadedLockSpaceConfig config_;
  Directory directory_;
  exec::Executor executor_;
  std::vector<proto::Algorithm> algorithms_;  // by ResourceId
  /// (resource, node) state machines, indexed r * n + (v - 1). Destroyed
  /// after the executor stops, which drops their queued tasks unrun.
  std::vector<std::unique_ptr<ResourceNode>> nodes_;
  /// Liveness by node id (index 1..n) and dead-resource flags by id.
  std::unique_ptr<std::atomic<bool>[]> node_down_;
  std::unique_ptr<std::atomic<bool>[]> unavailable_;
  /// Current reconfiguration epoch by ResourceId; tasks posted from
  /// application threads are tagged with it and fenced on mismatch.
  std::unique_ptr<std::atomic<Epoch>[]> resource_epoch_;
  std::vector<std::unique_ptr<RepairState>> repair_;  // by ResourceId
  /// Initial token holder by ResourceId (the resource's "home" for
  /// token-loss detection when recovery is disabled).
  std::vector<NodeId> initial_holder_;
  /// Any crash ever injected (enables ghost-unlock tolerance).
  std::atomic<bool> fault_active_{false};
  /// Per-resource occupancy (0 or 1 when exclusion holds) and entry
  /// counts, indexed by ResourceId.
  std::unique_ptr<std::atomic<int>[]> occupancy_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> entries_;
  std::atomic<std::uint64_t> messages_sent_{0};
  std::atomic<std::uint64_t> chained_grants_{0};
  std::atomic<std::uint64_t> lease_yields_{0};
  std::atomic<bool> failed_{false};

  std::vector<ResourceTelemetry> resource_telemetry_;  // by ResourceId
  telemetry::HistogramId hold_hist_;
  telemetry::HistogramId chain_hist_;
  telemetry::HistogramId repair_hist_;
  telemetry::HistogramId unavail_hist_;
  /// telemetry::now_ns() when resource r last became unavailable (0 when
  /// it is not); closes the fault.unavail_window_ns histogram on repair.
  std::unique_ptr<std::atomic<std::uint64_t>[]> unavailable_since_ns_;

  mutable std::mutex error_mutex_;
  std::optional<std::string> first_error_;
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
