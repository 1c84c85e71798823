// Sharded multi-resource lock service over the deterministic simulator.
//
// A LockSpace manages M named resources across N nodes, and is built from
// the same parts as the threaded and TCP spaces: N service::NodeRuntimes
// (one per node) over one GateSet, each sending through a SimTransport
// that stamps frames onto the shared net::Network. Envelopes carry a dense
// ResourceId and the sender's world epoch; every delivery is one frame
// admitted by the destination runtime. The gates' strands run inline on
// the simulator thread (no worker threads), so a delivery, request or
// release runs to completion inside the event that causes it, and a grant
// is consumed on the spot and reported back here. Placement is a
// consistent-hash Directory (lock name -> home node = initial token holder
// / tree root), deterministic and stable as resources are added.
//
// Faults: crash(v) kills v's runtime in place and cuts its traffic;
// `detect_after` ticks later every survivor's runtime hears on_peer_down
// (recover: on_peers_up), and the runtimes' own REPAIR/ACK ballot — the
// one that ships over TCP — fences, regenerates and re-admits.
//
// What remains of the space is its checker, re-run for the touched
// resource after every event:
//  * at most one node inside resource r's critical section, and a grant
//    only from a live gate whose installed world is the one it is fenced
//    at;
//  * no gate's fence epoch ever goes down;
//  * for token-based algorithms, exactly one live token PER RESOURCE:
//    tokens resident at live nodes whose world is open (installed and not
//    fenced past), plus in-flight token messages stamped with an open
//    world's epoch. Resident tokens are a mirror of each node's
//    has_token(), reconciled for the one node an event ran on, so the
//    fault-free check stays O(1). Between a fault and the settled repair
//    the token may be lost, never duplicated (with recovery enabled);
//  * the post-event hook (the swarm's per-algorithm structural checks).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "exec/ring.hpp"
#include "fault/fault_plan.hpp"
#include "fault/membership.hpp"
#include "net/network.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/directory.hpp"
#include "service/gate.hpp"
#include "service/lease.hpp"
#include "service/node_runtime.hpp"
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
  /// When true (the default), the runtimes repair every crash and
  /// recovery they detect: the smallest live node wins a REPAIR/ACK
  /// ballot and regenerates the token over the compact survivor
  /// membership. When false, faults are never repaired (a resource whose
  /// home died becomes unavailable) — the configuration the token-loss
  /// counterexample tests run in.
  bool recovery_enabled = true;
  /// Failure-detection timeout: virtual ticks between a fault event and
  /// the link events (on_peer_down / on_peers_up) it raises at the other
  /// nodes' runtimes, modeling timeout-based detection.
  Tick detect_after = 25;
  /// Lease policy for local grant chaining on the release path: a second
  /// acquire at a busy (resource, node) queues FIFO behind the node's one
  /// request and may be handed the CS at release. max_hold_ns is ignored
  /// — virtual time has no wall clock, the sim's bound is max_chain alone.
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

class LockSpace final : private GrantSink {
 public:
  /// Fires on CS entry: (resource, node).
  using GrantCallback = std::function<void(ResourceId, NodeId)>;
  /// Per-event invariant hook, called with the resource the event touched.
  using PostEventHook = std::function<void(LockSpace&, ResourceId)>;
  /// Fires when node membership changes: (node, up). `up == false` at the
  /// moment of a crash; `up == true` when the other nodes detect a
  /// recovered node (with recovery enabled), after which a repair
  /// re-admits it. Drivers use it to stop and restart per-node client
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
  /// (optional) fires at the same moment. A node has one protocol request
  /// per resource; further acquires at a busy (resource, node) queue FIFO
  /// behind it.
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
  std::uint64_t chained_grants() const { return gates_.chained_grants(); }
  std::uint64_t lease_yields() const { return gates_.lease_yields(); }
  /// Local waiters currently queued behind (r, v)'s outstanding request.
  std::size_t local_queue_depth(ResourceId r, NodeId v) const;
  /// Protocol frames the runtimes dropped because their epoch trailed the
  /// receiver's fence (stale-token fencing).
  std::uint64_t stale_frames() const;

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

  /// Crashes node `v` now: its runtime dies in place (every resource
  /// fenced, its protocol state frozen), the network drops its traffic,
  /// any CS occupancy or waiting tickets it holds are voided, and the
  /// other nodes detect the crash after `detect_after` ticks.
  void crash(NodeId v);

  /// Recovers node `v` now: reachable again but fenced until, after
  /// `detect_after` ticks, the nodes see each other and a repair
  /// re-admits it.
  void recover(NodeId v);

  bool is_node_up(NodeId v) const;
  /// Number of currently live nodes.
  int alive_count() const;

  /// Highest fence epoch of resource `r` over the live nodes (0 until the
  /// first repair; a repair's epoch is its ballot, round * n + winner).
  Epoch epoch(ResourceId r) const;
  /// With recovery enabled: true from a fault until every live node runs
  /// one world of `r` that spans exactly the live set; a degraded token
  /// resource may transiently have zero live tokens. With recovery
  /// disabled: true once a live node has fenced `r` for good (its home
  /// died, or no live majority is left); until then the old world runs on
  /// and is checked in full.
  bool is_degraded(ResourceId r) const;
  /// Compact survivor membership of `r`'s current world.
  const fault::Membership& membership(ResourceId r) const;

  /// Drains all pending simulator events.
  void run_to_quiescence() { sim_.run(); }

 private:
  class SimTransport;

  /// An acquire waiting at (resource, node), in ticket order.
  struct Completion {
    std::shared_ptr<Acquisition> ticket;
    GrantCallback callback;
  };

  struct Resource {
    /// The home the resource was opened with (Singhal's token still
    /// starts at node 1).
    NodeId home = kNilNode;
    /// Per node, the gate's waiters in ticket order (1..n).
    std::vector<exec::Ring<Completion>> waiting;
    NodeId occupant = kNilNode;
    /// Tokens resident at nodes, maintained incrementally: `token_at` is
    /// a per-node mirror of has_token(), reconciled for the node each
    /// event ran on. Keeps the per-event uniqueness check O(#token_kinds).
    int resident_tokens = 0;
    std::vector<std::uint8_t> token_at;  // 1..n, token-based only
    /// Each node's fence as of the last check (1..n).
    std::vector<Epoch> fence_seen;
  };

  Resource& resource(ResourceId r);
  const Resource& resource(ResourceId r) const;
  NodeRuntime& runtime(NodeId v) const;
  Gate& gate(ResourceId r, NodeId v) const;
  /// GrantSink: node `v`'s front waiter on `r` entered the CS.
  void entered(ResourceId r, NodeId v) override;
  void deliver(net::Envelope& env);
  void on_discard(const net::Envelope& env, net::Network::DiscardReason reason);
  void apply_fault(const fault::FaultEvent& event);
  /// The other nodes notice that `v` crashed / came back.
  void detect_crash(NodeId v);
  void detect_recovery(NodeId v);
  /// The checks after an event that ran on node `v`'s instance of `r`.
  void after_event(ResourceId r, NodeId v);
  /// ... of every resource at `v` (a link event touches them all).
  void after_node_event(NodeId v);
  /// Reconciles node `v`'s entry of the resident-token mirror.
  void sync_resident_token(ResourceId r, NodeId v);
  /// Whether every live node runs one open world of `r` spanning exactly
  /// the live set.
  bool settled(ResourceId r) const;

  LockSpaceConfig config_;
  Directory directory_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  GateSet gates_;
  std::vector<std::unique_ptr<SimTransport>> nodes_;  // node v at v - 1
  std::vector<std::unique_ptr<Resource>> resources_;  // by ResourceId
  std::uint64_t total_entries_ = 0;
  PostEventHook post_event_hook_;
  MembershipHook membership_hook_;
  std::vector<std::uint8_t> node_up_;  // 1..n, 1 = alive
  /// True once any fault is scheduled or injected; gates the O(n)
  /// fault-aware checks so the no-fault configuration stays O(1).
  bool fault_active_ = false;
  /// Open world epochs, scratch for check_invariants.
  std::vector<Epoch> open_epochs_;
};

}  // namespace dmx::service
