// Sharded multi-resource lock service over the deterministic simulator.
//
// A LockSpace manages M named resources across N nodes. Every resource is
// backed by its own protocol instance from the registry (per-resource
// algorithm selection allowed), yet ONE net::Network carries all of them:
// envelopes are tagged with a dense ResourceId and deliveries demultiplex
// into the resource's node instances. Placement is a consistent-hash
// Directory (lock name -> home node = initial token holder / tree root),
// so it is deterministic and stable as resources are added.
//
// Invariants are per resource and re-checked after every event:
//  * at most one node inside resource r's critical section;
//  * for token-based algorithms, exactly one token PER RESOURCE, counting
//    resident tokens and in-flight token messages. Both sides are O(1):
//    in-flight tokens query the network's per-resource counters, and
//    resident tokens are a harness-maintained counter — each handler
//    mutates exactly one node's protocol instance, so the harness
//    reconciles that node's has_token() against a per-node mirror after
//    the handler instead of scanning all N nodes after every event.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "fault/membership.hpp"
#include "net/network.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/directory.hpp"
#include "service/lease.hpp"
#include "sim/simulator.hpp"
#include "topology/tree.hpp"

namespace dmx::service {

struct LockSpaceConfig {
  int n = 0;
  /// Default protocol for resources opened without an explicit algorithm.
  proto::Algorithm algorithm;
  /// Shared logical tree for path-forwarding algorithms. If any opened
  /// resource's algorithm needs a tree and none is given, a star centered
  /// on node 1 is used (the paper's best topology; every home is <= 2 hops
  /// from every requester).
  std::optional<topology::Tree> tree;
  Tick fixed_latency = 1;
  /// Optional custom latency model (overrides fixed_latency).
  std::unique_ptr<net::LatencyModel> latency_model;
  std::uint64_t seed = 1;
  /// Virtual points per node on the directory's consistent-hash ring.
  int directory_vnodes = 16;
  /// Timing-wheel span for the underlying simulator.
  std::size_t wheel_span = sim::Simulator::kDefaultWheelSpan;
  /// Crash/recovery schedule applied in virtual time (empty = no faults).
  fault::FaultPlan fault_plan;
  /// When true (the default), each crash or recovery schedules a structure
  /// repair after `detect_after` ticks: survivors elect a regenerator
  /// (src/quorum consent), the epoch bumps, and fresh protocol instances
  /// are built over the compact survivor membership with the token minted
  /// at the winner. When false, faults are injected but never repaired —
  /// the configuration the token-loss counterexample tests run in.
  bool recovery_enabled = true;
  /// Failure-detection timeout: virtual ticks between a fault event and
  /// the repair it triggers, modeling timeout-based detection.
  Tick detect_after = 25;
  /// When true, a second acquire from a node already requesting or inside
  /// a resource's CS queues FIFO behind the first (per resource, node)
  /// instead of being a caller error — the precondition for local grant
  /// chaining. Default off: the protocol's one-outstanding-request
  /// contract stays enforced and existing behavior is bit-identical.
  bool queue_local = false;
  /// Lease policy for local grant chaining on the release path (effective
  /// only with queue_local; max_hold_ns is ignored — virtual time has no
  /// wall clock, the sim's bound is max_chain alone).
  LeaseConfig lease;
};

/// Completion handle for an async acquire. The space sets `granted` (and
/// `granted_at`) when the node enters the resource's critical section —
/// possibly synchronously from within acquire().
struct Acquisition {
  bool granted = false;
  Tick granted_at = -1;
};
using Ticket = std::shared_ptr<const Acquisition>;

class LockSpace {
 public:
  /// Fires on CS entry: (resource, node).
  using GrantCallback = std::function<void(ResourceId, NodeId)>;
  /// Per-event invariant hook, called with the resource the event touched.
  using PostEventHook = std::function<void(LockSpace&, ResourceId)>;
  /// Fires when node membership changes: (node, up). `up == false` at the
  /// moment of a crash; `up == true` when a recovered node is reintegrated
  /// by a repair. Drivers use it to stop and restart per-node client
  /// loops.
  using MembershipHook = std::function<void(NodeId, bool)>;

  explicit LockSpace(LockSpaceConfig config);
  ~LockSpace();

  LockSpace(const LockSpace&) = delete;
  LockSpace& operator=(const LockSpace&) = delete;

  int nodes() const { return config_.n; }
  int resource_count() const { return static_cast<int>(resources_.size()); }
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  const Directory& directory() const { return directory_; }

  /// Opens (or finds) the named resource, instantiating its protocol nodes
  /// with the token parked at its home node: `home` when given, else the
  /// directory's placement. The longer form selects a per-resource
  /// algorithm (e.g. Raymond for one shard, Neilsen for the rest) and may
  /// pin the home (the paper's single-CS experiments place the token
  /// themselves); both must agree with any previous open of the name.
  ResourceId open(std::string_view name);
  ResourceId open(std::string_view name, const proto::Algorithm& algorithm,
                  NodeId home = kNilNode);

  ResourceId lookup(std::string_view name) const {
    return directory_.lookup(name);
  }
  const std::string& name(ResourceId r) const { return directory_.name(r); }
  /// `r`'s home: the explicit one it was opened with, else the
  /// directory's. The token starts there (Singhal's at node 1 regardless).
  NodeId home_node(ResourceId r) const { return resource(r).home; }
  const proto::Algorithm& algorithm(ResourceId r) const;

  /// Async acquire: node `v` requests resource `r`. Returns a completion
  /// handle that flips to granted when the node enters the CS; `on_grant`
  /// (optional) fires at the same moment. One outstanding request per
  /// (resource, node) — the protocol's own precondition.
  Ticket acquire(ResourceId r, NodeId v, GrantCallback on_grant = nullptr);
  /// Name-based sugar: opens the resource on demand.
  Ticket acquire(std::string_view name, NodeId v,
                 GrantCallback on_grant = nullptr);

  /// Node `v` leaves resource `r`'s critical section.
  void release(ResourceId r, NodeId v);

  bool is_idle(ResourceId r, NodeId v) const;
  bool is_waiting(ResourceId r, NodeId v) const;
  bool is_in_cs(ResourceId r, NodeId v) const;
  /// Node inside resource `r`'s critical section, or kNilNode.
  NodeId occupant(ResourceId r) const;

  proto::MutexNode& node(ResourceId r, NodeId v);
  /// Node `v`'s protocol-facing context for `r`, for algorithm-specific
  /// entry points such as NeilsenNode::start_init.
  proto::Context& context(ResourceId r, NodeId v);

  std::uint64_t total_entries() const { return total_entries_; }
  std::uint64_t entries(ResourceId r) const;

  /// CS entries handed directly to a co-located waiter on the release path
  /// (zero protocol messages), and release-time lease yields that offered
  /// the token back to the protocol while local waiters still queued.
  std::uint64_t chained_grants() const { return chained_grants_; }
  std::uint64_t lease_yields() const { return lease_yields_; }
  /// Local waiters currently queued behind (r, v)'s outstanding request.
  std::size_t local_queue_depth(ResourceId r, NodeId v) const;

  /// Harness-maintained count of resource `r`'s tokens resident at nodes
  /// (excluding in-flight token messages). 0 for non-token algorithms.
  /// Tests cross-check it against an explicit has_token() scan.
  int resident_tokens(ResourceId r) const;

  /// Runs the built-in per-resource invariant checks for one resource.
  void check_invariants(ResourceId r);
  /// ... and for every resource (used at quiescence and by tests; the
  /// per-event path only checks the touched resource).
  void check_all_invariants();

  /// Extra per-event invariant hook (e.g. the swarm's per-algorithm
  /// structural checks); runs after the built-in checks with the resource
  /// the event touched.
  void set_post_event_hook(PostEventHook hook);

  void set_membership_hook(MembershipHook hook);

  // --- Crash faults ---------------------------------------------------------
  // The scheduled path applies config.fault_plan in virtual time; tests
  // may also crash/recover nodes directly at the current tick.

  /// Crashes node `v` now: its protocol state freezes (NOT reset — a later
  /// recovery brings the stale state back), the network drops its traffic,
  /// any CS occupancy or waiting tickets it holds are voided, and — with
  /// recovery enabled — a repair is scheduled after `detect_after` ticks.
  void crash(NodeId v);

  /// Recovers node `v` now: reachable again but epoch-stale (its frozen
  /// instances are fenced) until the scheduled repair reintegrates it.
  void recover(NodeId v);

  bool is_node_up(NodeId v) const;
  /// Number of currently live nodes.
  int alive_count() const;

  /// Current configuration epoch of resource `r` (0 until first repair).
  Epoch epoch(ResourceId r) const;
  /// True between a fault hitting resource `r` and its repair; a degraded
  /// token resource may transiently have zero live tokens.
  bool is_degraded(ResourceId r) const;
  /// Compact survivor membership of `r`'s current epoch.
  const fault::Membership& membership(ResourceId r) const;

  /// Drains all pending simulator events.
  void run_to_quiescence() { sim_.run(); }

 private:
  class ResourceContext;
  enum class AppState : std::uint8_t { kIdle, kWaiting, kInCs };

  /// A co-located client queued behind this node's outstanding request
  /// (queue_local only); granted either by a chained hand-off or by
  /// promotion into the protocol when the chain yields.
  struct LocalWaiter {
    std::shared_ptr<Acquisition> ticket;
    GrantCallback callback;
  };

  struct Resource {
    proto::Algorithm algorithm;
    std::vector<net::MessageKind> token_kinds;
    NodeId home = kNilNode;
    std::vector<std::unique_ptr<proto::MutexNode>> nodes;      // 1..n
    std::vector<std::unique_ptr<ResourceContext>> contexts;    // 0..n-1
    std::vector<AppState> app_state;                           // 1..n
    std::vector<GrantCallback> grant_callbacks;                // 1..n
    std::vector<std::shared_ptr<Acquisition>> tickets;         // 1..n
    NodeId occupant = kNilNode;
    std::uint64_t entries = 0;
    /// Tokens resident at nodes, maintained incrementally: `token_at` is
    /// a per-node mirror of has_token(), reconciled against the one node
    /// each handler mutates. Reconciling (rather than diffing a snapshot
    /// taken before the handler) keeps the counter exact even when a
    /// grant callback re-enters release()/acquire() mid-event. Keeps the
    /// per-event uniqueness check O(#token_kinds).
    int resident_tokens = 0;
    std::vector<std::uint8_t> token_at;  // 1..n, token-based only
    /// Fault-tolerance state. Epoch 0 runs over the identity membership
    /// (membership == nullptr) with zero overhead on the no-fault path.
    Epoch epoch = 0;
    std::vector<Epoch> node_epoch;  // 1..n: epoch of each node's instance
    std::shared_ptr<const fault::Membership> membership;  // null = identity
    bool degraded = false;
    /// Set when a repair arrived while a live node occupied the CS: the
    /// repair runs inside that node's release() instead, which then skips
    /// the protocol release (the old world is discarded wholesale).
    bool repair_pending = false;
    /// Per-node FIFO of co-located waiters (queue_local only; 1..n).
    std::vector<std::deque<LocalWaiter>> local_queue;
    /// Consecutive chained grants since the token last arrived through the
    /// protocol at each node (1..n); reset on every yield or renewal.
    std::vector<int> chain_len;
  };

  Resource& resource(ResourceId r);
  const Resource& resource(ResourceId r) const;
  void on_grant(ResourceId r, NodeId v);
  void deliver(const net::Envelope& env);
  void on_discard(const net::Envelope& env, net::Network::DiscardReason reason);
  void apply_fault(const fault::FaultEvent& event);
  void repair_all();
  void repair_resource(ResourceId r);
  /// Reconciles node `v`'s entry of the resident-token mirror after a
  /// handler ran on it.
  static void sync_resident_token(Resource& res, NodeId v);
  /// Moves the head of (res, v)'s local queue into the application-level
  /// waiting slot (ticket + callback, state kWaiting). The caller issues
  /// the protocol request (or lets a pending repair re-issue it). Returns
  /// false if the queue was empty.
  static bool promote_local_waiter(Resource& res, NodeId v);

  LockSpaceConfig config_;
  std::uint64_t chained_grants_ = 0;
  std::uint64_t lease_yields_ = 0;
  Directory directory_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<Resource>> resources_;  // by ResourceId
  std::uint64_t total_entries_ = 0;
  PostEventHook post_event_hook_;
  MembershipHook membership_hook_;
  std::vector<std::uint8_t> node_up_;  // 1..n, 1 = alive
  /// Nodes whose crash fired the membership hook and which have not yet
  /// been reintegrated by any repair (the first repair that readmits the
  /// node fires the rejoin hook and clears the bit).
  std::vector<std::uint8_t> rejoin_pending_;  // 1..n
  /// True once any fault is scheduled or injected; gates the (slightly
  /// wider) fault-aware acquire/release/invariant paths so the no-fault
  /// configuration behaves exactly as before.
  bool fault_active_ = false;
  fault::Membership identity_;
};

}  // namespace dmx::service
