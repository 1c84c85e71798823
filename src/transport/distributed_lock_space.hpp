// Multi-resource lock service with one node per PROCESS over loopback TCP.
//
// One service::NodeRuntime (service/node_runtime.hpp) — the client gates,
// frame admission and REPAIR/ACK repair ThreadedLockSpace runs per node —
// over a TCP EventLoop, plus mesh bring-up. Protocol code is unchanged: a
// MutexNode reaches the outside world only through proto::Context, so the
// same handlers run on the simulator, in process and over sockets, and
// what the simulator and model checker establish about them carries over.
//
// Wiring: construct, listen() to learn this node's port, exchange ports
// out of band (the fork harness in process_harness.hpp uses pipes),
// connect() to every LOWER-numbered peer, start(), then
// wait_connected() to rendezvous the full mesh before first use.
//
// Faults: a peer socket that dies without the GOODBYE handshake is a
// crashed node, and the runtime repairs around it.
//
// Exclusivity witnessing is per-process here (a node cannot observe
// another process's occupancy); the multi-process harness shares an
// occupancy counter via a MAP_SHARED region to restore the cross-node
// witness in tests.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "proto/algorithm.hpp"
#include "service/directory.hpp"
#include "service/gate.hpp"
#include "service/node_runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/tree.hpp"
#include "transport/event_loop.hpp"

namespace dmx::transport {

using service::LockError;

struct DistributedLockSpaceConfig {
  /// This process's node id (1..n).
  NodeId self = kNilNode;
  int n = 0;
  proto::Algorithm algorithm;
  std::vector<std::string> resources;
  /// Shared logical tree for path-forwarding algorithms; defaults to a
  /// star centered on node 1 when required and absent (must be identical
  /// in every process — it is derived from config, so it is).
  std::optional<topology::Tree> tree;
  int directory_vnodes = 16;
  std::uint64_t seed = 1;
  /// Worker threads in the strand pool; 1 is plenty for one node.
  int workers = 1;
  int spin = 64;
  /// Run the membership-repair protocol after a peer crash. When false, a
  /// crash leaves the dead node's home resources unavailable (and every
  /// resource, once no live majority remains).
  bool recovery_enabled = true;
  /// Invoked on the repair WINNER, once per installed epoch and resource,
  /// after every survivor has fenced (acked) but before the regenerated
  /// world can grant. The test harness hooks this to retire a SIGKILLed
  /// holder's shared-memory occupancy before any survivor re-enters.
  /// Runs on the event-loop thread or an unlocking client thread; keep it
  /// brief and non-blocking.
  service::NodeRuntime::RepairHook on_repair;
  /// Local grant-chaining lease: how many consecutive releases may hand
  /// the CS straight to a co-located waiter (one condvar wake, zero wire
  /// frames) before the token must be offered back to the protocol so
  /// remote requesters keep bounded waiting.
  service::LeaseConfig lease;
};

class DistributedLockSpace final {
 public:
  explicit DistributedLockSpace(DistributedLockSpaceConfig config);
  ~DistributedLockSpace();

  DistributedLockSpace(const DistributedLockSpace&) = delete;
  DistributedLockSpace& operator=(const DistributedLockSpace&) = delete;

  // --- Mesh bring-up (in order) ------------------------------------------

  /// Binds this node's loopback listening socket; returns the port.
  std::uint16_t listen();
  /// Dials peer `peer` (its id must be < self()). Call for every lower id.
  void connect(NodeId peer, std::uint16_t port);
  /// Starts the event loop; higher-numbered peers dial us.
  void start();
  /// Blocks until all n-1 peers are connected and identified.
  bool wait_connected(std::chrono::milliseconds timeout);
  /// Orderly departure: GOODBYE to every peer, drain, stop loop and pool.
  /// Idempotent; the destructor calls it.
  ///
  /// Departure is COLLECTIVE among the nodes still alive: the protocol
  /// state machines route through every live node, so a node that leaves
  /// while a sibling still wants locks strands that sibling's requests
  /// (GOODBYE suppresses the crash path by design — it must not poison a
  /// whole run). Quiesce the survivors (e.g. the shared-memory barrier
  /// the test harness uses) before the first shutdown(); crashed nodes
  /// need no quiescing — repair already cut them out of the membership.
  void shutdown();

  // --- Introspection ------------------------------------------------------

  NodeId self() const { return config_.self; }
  int nodes() const { return config_.n; }
  int resource_count() const { return directory_.resource_count(); }
  ResourceId lookup(std::string_view name) const {
    return directory_.lookup(name);
  }
  const std::string& name(ResourceId r) const { return directory_.name(r); }
  NodeId home_node(ResourceId r) const { return directory_.home_node(r); }
  /// Current fence epoch of resource `r` (0 until the first repair).
  Epoch epoch(ResourceId r) const;

  // --- Client API (this process's node only) ------------------------------

  /// Blocks until this node holds resource `r`'s critical section.
  void lock(ResourceId r);
  /// Bounded-wait lock; kUnavailable once the live majority is gone.
  LockError try_lock_for(ResourceId r, std::chrono::milliseconds timeout);
  void unlock(ResourceId r);

  /// TEST HOOK: bumps resource `r`'s fence epoch without installing a
  /// world behind it, then wakes parked clients — the repair-wakeup
  /// stimulus in isolation. Grants minted before the bump become stale
  /// and no fresh world will ever grant, so the resource is dead for
  /// granting afterwards; use only to pin client-gate deadline behavior.
  void debug_fence_epoch(ResourceId r);

  std::uint64_t entries(ResourceId r) const;
  std::uint64_t total_entries() const;
  /// Releases that handed the CS straight to a co-located waiter without
  /// a wire round, and lease windows that closed with local waiters
  /// still queued (the bounded-waiting cap at work).
  std::uint64_t chained_grants() const { return gates_.chained_grants(); }
  std::uint64_t lease_yields() const { return gates_.lease_yields(); }
  /// Client threads currently parked in lock() / try_lock_for() on `r`
  /// (racy by nature, stable once the callers are known parked).
  int local_waiters(ResourceId r);

  /// First protocol, exclusivity, or transport error observed, if any.
  std::optional<std::string> first_error() const;

  /// Merged runtime metrics for this process: every telemetry metric plus
  /// the executor counters (exec.*), the lease counters and client.wait_ns
  /// roll-up (client.*) and the event-loop counters (wire.*) folded in.
  telemetry::MetricsSnapshot telemetry_snapshot() const;

 private:
  service::Gate& gate(ResourceId r);

  DistributedLockSpaceConfig config_;
  service::Directory directory_;
  /// This process's gate per resource and the pool their strands run on.
  /// The gates' occupancy witness is the local view; the multi-process
  /// harness adds a shared-memory one.
  service::GateSet gates_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<service::NodeRuntime> runtime_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace dmx::transport
