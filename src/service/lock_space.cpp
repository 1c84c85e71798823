#include "service/lock_space.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "proto/world.hpp"

namespace dmx::service {

/// Node v's end of the simulated network, and its runtime: frames go onto
/// the shared net::Network stamped with their resource and world epoch.
/// A dead node sends nothing.
class LockSpace::SimTransport final : public Transport {
 public:
  SimTransport(LockSpace& space, NodeId self)
      : runtime(space.gates_, *this, self, space.config_.recovery_enabled),
        space_(space), self_(self) {}

  void send_frame(NodeId to, Epoch epoch, ResourceId resource,
                  net::MessagePtr message) override {
    if (!space_.node_up_[static_cast<std::size_t>(self_)]) return;
    space_.network_->send(resource, self_, to, std::move(message), epoch);
  }

  NodeRuntime runtime;

 private:
  LockSpace& space_;
  const NodeId self_;
};

namespace {

LeaseConfig sim_lease(LeaseConfig lease) {
  lease.max_hold_ns = 0;  // virtual ticks are not nanoseconds
  return lease;
}

}  // namespace

LockSpace::LockSpace(LockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      sim_(config_.wheel_span),
      gates_(config_.n, sim_lease(config_.lease), *this) {
  DMX_CHECK(config_.n >= 1);
  std::unique_ptr<net::LatencyModel> latency =
      config_.latency_model
          ? std::move(config_.latency_model)
          : std::make_unique<net::FixedLatency>(config_.fixed_latency);
  network_ = std::make_unique<net::Network>(sim_, config_.n,
                                            std::move(latency), config_.seed);
  network_->set_delivery_handler([this](net::Envelope& env) { deliver(env); });
  network_->set_discard_handler(
      [this](const net::Envelope& env, net::Network::DiscardReason reason) {
        on_discard(env, reason);
      });
  node_up_.assign(static_cast<std::size_t>(config_.n) + 1, 1);
  nodes_.reserve(static_cast<std::size_t>(config_.n));
  for (NodeId v = 1; v <= config_.n; ++v) {
    nodes_.push_back(std::make_unique<SimTransport>(*this, v));
  }
  if (!config_.fault_plan.empty()) {
    const std::string problem = config_.fault_plan.validate(config_.n);
    DMX_CHECK_MSG(problem.empty(), "bad fault plan: " << problem);
    fault_active_ = true;
    for (const fault::FaultEvent& event : config_.fault_plan.events()) {
      sim_.schedule_at(event.at, [this, event] { apply_fault(event); });
    }
  }
}

LockSpace::~LockSpace() = default;

ResourceId LockSpace::open(std::string_view name) {
  return open(name, config_.algorithm);
}

ResourceId LockSpace::open(std::string_view name,
                           const proto::Algorithm& algorithm, NodeId home) {
  const ResourceId existing = directory_.lookup(name);
  if (existing != kNilResource) {
    DMX_CHECK_MSG(this->algorithm(existing).name == algorithm.name,
                  "resource " << name << " already open with algorithm "
                              << this->algorithm(existing).name);
    DMX_CHECK_MSG(home == kNilNode || home == home_node(existing),
                  "resource " << name << " already open with home "
                              << home_node(existing));
    return existing;
  }
  DMX_CHECK_MSG(home == kNilNode || (home >= 1 && home <= config_.n),
                "home " << home << " outside 1.." << config_.n);

  const ResourceId id = directory_.open(name);
  auto res = std::make_unique<Resource>();
  res->home = home != kNilNode ? home : directory_.home_node(id);
  gates_.add_resource(directory_.name(id), algorithm, res->home);
  proto::World world =
      proto::initial_world(algorithm, config_.n, res->home,
                           config_.tree ? &*config_.tree : nullptr);
  // The first path-forwarding resource builds the default star; the rest
  // share it.
  if (world.tree) config_.tree = std::move(world.tree);
  for (NodeId v = 1; v <= config_.n; ++v) {
    runtime(v).add_gate(id, static_cast<std::uint64_t>(v),
                        std::move(world.nodes[static_cast<std::size_t>(v)]));
  }
  res->waiting.resize(static_cast<std::size_t>(config_.n) + 1);
  res->fence_seen.assign(static_cast<std::size_t>(config_.n) + 1, 0);
  resources_.push_back(std::move(res));
  // Seed the resident-token mirror with one full scan; every subsequent
  // event reconciles just the node it ran on.
  if (algorithm.token_based) {
    resources_.back()->token_at.assign(static_cast<std::size_t>(config_.n) + 1,
                                       0);
    for (NodeId v = 1; v <= config_.n; ++v) sync_resident_token(id, v);
  }
  check_invariants(id);
  return id;
}

LockSpace::Resource& LockSpace::resource(ResourceId r) {
  DMX_CHECK(r >= 0 && static_cast<std::size_t>(r) < resources_.size());
  return *resources_[static_cast<std::size_t>(r)];
}

const LockSpace::Resource& LockSpace::resource(ResourceId r) const {
  DMX_CHECK(r >= 0 && static_cast<std::size_t>(r) < resources_.size());
  return *resources_[static_cast<std::size_t>(r)];
}

NodeRuntime& LockSpace::runtime(NodeId v) const {
  return nodes_[static_cast<std::size_t>(v) - 1]->runtime;
}

Gate& LockSpace::gate(ResourceId r, NodeId v) const {
  return runtime(v).gate(r);
}

const proto::Algorithm& LockSpace::algorithm(ResourceId r) const {
  resource(r);
  return gates_.resource(r).algorithm;
}

proto::MutexNode& LockSpace::node(ResourceId r, NodeId v) {
  resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  return gate(r, v).protocol();
}

proto::Context& LockSpace::context(ResourceId r, NodeId v) {
  resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  return gate(r, v).context();
}

Ticket LockSpace::acquire(ResourceId r, NodeId v, GrantCallback on_grant) {
  Resource& res = resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (fault_active_ && !node_up_[static_cast<std::size_t>(v)]) {
    // A dead node cannot request; the caller gets a ticket that never
    // grants (drivers treat it as a failed acquire).
    return std::make_shared<Acquisition>();
  }
  auto ticket = std::make_shared<Acquisition>();
  res.waiting[static_cast<std::size_t>(v)].push({ticket, std::move(on_grant)});
  gate(r, v).acquire_inline();
  after_event(r, v);
  return ticket;
}

Ticket LockSpace::acquire(std::string_view name, NodeId v,
                          GrantCallback on_grant) {
  // Reuse an existing resource regardless of which algorithm it was
  // opened with; only a miss opens under the space default.
  const ResourceId r = directory_.lookup(name);
  return acquire(r == kNilResource ? open(name) : r, v, std::move(on_grant));
}

void LockSpace::entered(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  if (fault_active_) {
    // The fencing invariant: a grant must come from a live gate running
    // the world it is fenced at. A grant from an older world would be
    // the lost-then-found token being honored — the exact bug the epoch
    // machinery exists to make impossible.
    DMX_CHECK_MSG(node_up_[static_cast<std::size_t>(v)],
                  "grant on resource " << directory_.name(r)
                                       << " at crashed node " << v);
    const Gate& g = gate(r, v);
    DMX_CHECK_MSG(g.world() == g.fence.load(std::memory_order_relaxed),
                  "stale-epoch grant on resource "
                      << directory_.name(r) << ": node " << v
                      << " runs world " << g.world() << " below its fence "
                      << g.fence.load(std::memory_order_relaxed));
  }
  auto& waiting = res.waiting[static_cast<std::size_t>(v)];
  DMX_CHECK_MSG(!waiting.empty(), "grant for node "
                                      << v << " which is not waiting on "
                                      << directory_.name(r));
  DMX_CHECK_MSG(res.occupant == kNilNode,
                "mutual exclusion violated on resource "
                    << directory_.name(r) << ": node " << v
                    << " granted while node " << res.occupant
                    << " is inside its critical section");
  res.occupant = v;
  ++total_entries_;
  Completion next = waiting.pop();
  if (next.ticket) {
    next.ticket->granted = true;
    next.ticket->granted_at = sim_.now();
  }
  if (next.callback) next.callback(r, v);
}

void LockSpace::release(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (fault_active_ && (res.occupant != v ||
                        !node_up_[static_cast<std::size_t>(v)])) {
    // The node died in the CS and its occupancy was voided; the caller's
    // scheduled release is a ghost. Ignore it.
    return;
  }
  DMX_CHECK_MSG(res.occupant == v, "release of " << directory_.name(r)
                                                 << " by node " << v
                                                 << " but occupant is "
                                                 << res.occupant);
  res.occupant = kNilNode;
  // Hands the CS to the next local waiter under the lease (entered()
  // fires inside), or releases into the protocol and completes a repair
  // deferred on this holder.
  runtime(v).unlock(r);
  after_event(r, v);
}

bool LockSpace::is_idle(ResourceId r, NodeId v) const {
  const Resource& res = resource(r);
  return res.occupant != v && res.waiting[static_cast<std::size_t>(v)].empty();
}

bool LockSpace::is_waiting(ResourceId r, NodeId v) const {
  const Resource& res = resource(r);
  return res.occupant != v && !res.waiting[static_cast<std::size_t>(v)].empty();
}

bool LockSpace::is_in_cs(ResourceId r, NodeId v) const {
  return resource(r).occupant == v;
}

NodeId LockSpace::occupant(ResourceId r) const { return resource(r).occupant; }

std::uint64_t LockSpace::entries(ResourceId r) const {
  resource(r);
  return gates_.resource(r).entries.load(std::memory_order_relaxed);
}

int LockSpace::resident_tokens(ResourceId r) const {
  return resource(r).resident_tokens;
}

std::size_t LockSpace::local_queue_depth(ResourceId r, NodeId v) const {
  const Resource& res = resource(r);
  const std::size_t waiting = res.waiting[static_cast<std::size_t>(v)].size();
  // Behind the holder every waiter is queued; otherwise the front one's
  // request is in the protocol.
  if (res.occupant == v || waiting == 0) return waiting;
  return waiting - 1;
}

std::uint64_t LockSpace::stale_frames() const {
  std::uint64_t sum = 0;
  for (NodeId v = 1; v <= config_.n; ++v) sum += runtime(v).stale_frames();
  return sum;
}

void LockSpace::check_invariants(ResourceId r) {
  // CS exclusivity per resource is structural (entered() checks). Verify
  // per-resource token uniqueness: the resident-token mirror plus
  // in-flight token messages of THIS resource — O(1) on both sides
  // without faults.
  Resource& res = resource(r);
  const GateResource& gr = gates_.resource(r);
  if (fault_active_) {
    // Fault-aware counting: only live tokens matter — resident at an up
    // node whose world is open (installed and not fenced past), or in
    // flight stamped with an open world's epoch. A token frozen inside a
    // crashed node or behind a fence is already dead; counting it would
    // make a legitimate regeneration look like a duplicate. O(n) scan,
    // paid only when faults are active.
    std::size_t live = 0;
    open_epochs_.clear();
    for (NodeId v = 1; v <= config_.n; ++v) {
      const Gate& g = gate(r, v);
      const Epoch fence = g.fence.load(std::memory_order_relaxed);
      Epoch& seen = res.fence_seen[static_cast<std::size_t>(v)];
      DMX_CHECK_MSG(fence >= seen, "fence of resource "
                                       << directory_.name(r) << " at node "
                                       << v << " went down from " << seen
                                       << " to " << fence);
      seen = fence;
      if (!node_up_[static_cast<std::size_t>(v)] || g.world() != fence) {
        continue;
      }
      if (gr.algorithm.token_based) {
        live += res.token_at[static_cast<std::size_t>(v)];
      }
      if (std::find(open_epochs_.begin(), open_epochs_.end(), fence) ==
          open_epochs_.end()) {
        open_epochs_.push_back(fence);
      }
    }
    // No live node can grant the resource any more (unavailable
    // everywhere): nothing is left to count.
    if (!gr.algorithm.token_based || open_epochs_.empty()) return;
    for (const Epoch e : open_epochs_) {
      for (const net::MessageKind kind : gr.token_kinds) {
        live += network_->in_flight_count(r, e, kind);
      }
    }
    if (is_degraded(r)) {
      // Between fault and repair, or once a live node has fenced the
      // resource for good, the token may be lost, never duplicated. With
      // recovery disabled the check stays strict until then, so a token
      // that dies with its holder is CAUGHT, not excused.
      DMX_CHECK_MSG(live <= 1, "resource "
                                   << directory_.name(r)
                                   << " live token count is " << live
                                   << " during degraded epoch " << epoch(r));
    } else {
      DMX_CHECK_MSG(live == 1, "resource "
                                   << directory_.name(r) << " token count is "
                                   << live << " at epoch " << epoch(r)
                                   << " (must be exactly 1)");
    }
    return;
  }
  if (!gr.algorithm.token_based) return;
  DMX_CHECK_MSG(res.resident_tokens >= 0,
                "resource " << directory_.name(r)
                            << " resident-token counter went negative");
  std::size_t tokens = static_cast<std::size_t>(res.resident_tokens);
  for (const net::MessageKind kind : gr.token_kinds) {
    tokens += network_->in_flight_count(r, 0, kind);
  }
  DMX_CHECK_MSG(tokens == 1, "resource " << directory_.name(r)
                                         << " token count is " << tokens
                                         << " (must be exactly 1)");
}

void LockSpace::check_all_invariants() {
  for (ResourceId r = 0; r < resource_count(); ++r) check_invariants(r);
}

void LockSpace::set_post_event_hook(PostEventHook hook) {
  post_event_hook_ = std::move(hook);
}

void LockSpace::set_membership_hook(MembershipHook hook) {
  membership_hook_ = std::move(hook);
}

bool LockSpace::is_node_up(NodeId v) const {
  DMX_CHECK(v >= 1 && v <= config_.n);
  return node_up_[static_cast<std::size_t>(v)] != 0;
}

int LockSpace::alive_count() const {
  int alive = 0;
  for (NodeId v = 1; v <= config_.n; ++v) {
    alive += node_up_[static_cast<std::size_t>(v)];
  }
  return alive;
}

Epoch LockSpace::epoch(ResourceId r) const {
  resource(r);
  Epoch highest = 0;
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (node_up_[static_cast<std::size_t>(v)]) {
      highest = std::max(highest,
                         gate(r, v).fence.load(std::memory_order_relaxed));
    }
  }
  return highest;
}

bool LockSpace::settled(ResourceId r) const {
  NodeId first = kNilNode;
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (!node_up_[static_cast<std::size_t>(v)]) continue;
    const Gate& g = gate(r, v);
    if (g.world() != g.fence.load(std::memory_order_relaxed)) return false;
    if (first == kNilNode) {
      first = v;
      const fault::Membership& m = runtime(v).membership(r);
      for (NodeId u = 1; u <= config_.n; ++u) {
        if (m.contains(u) != (node_up_[static_cast<std::size_t>(u)] != 0)) {
          return false;
        }
      }
    } else if (g.world() != gate(r, first).world()) {
      return false;
    }
  }
  return first != kNilNode;
}

bool LockSpace::is_degraded(ResourceId r) const {
  resource(r);
  if (!fault_active_) return false;
  if (config_.recovery_enabled) return !settled(r);
  // Nothing is ever repaired: a live node leaves its world only when its
  // runtime fences it for good (the home died, or no live majority).
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (!node_up_[static_cast<std::size_t>(v)]) continue;
    const Gate& g = gate(r, v);
    if (g.world() != g.fence.load(std::memory_order_relaxed)) return true;
  }
  return false;
}

const fault::Membership& LockSpace::membership(ResourceId r) const {
  resource(r);
  NodeId v = 1;
  while (v < config_.n && !node_up_[static_cast<std::size_t>(v)]) ++v;
  return runtime(v).membership(r);
}

void LockSpace::deliver(net::Envelope& env) {
  DMX_CHECK(env.to >= 1 && env.to <= config_.n);
  runtime(env.to).on_frame(env.from, env.epoch, env.resource,
                           std::move(env.message));
  after_event(env.resource, env.to);
}

void LockSpace::on_discard(const net::Envelope& env,
                           net::Network::DiscardReason /*reason*/) {
  // A discarded envelope may have carried the token into the void (dead
  // destination) — this is the moment token loss becomes observable, so
  // re-check uniqueness here exactly like after a delivery.
  check_invariants(env.resource);
  if (post_event_hook_) post_event_hook_(*this, env.resource);
}

void LockSpace::apply_fault(const fault::FaultEvent& event) {
  if (event.kind == fault::FaultEvent::Kind::kCrash) {
    crash(event.node);
  } else {
    recover(event.node);
  }
}

void LockSpace::crash(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK_MSG(node_up_[static_cast<std::size_t>(v)],
                "node " << v << " crashed while already down");
  fault_active_ = true;
  node_up_[static_cast<std::size_t>(v)] = 0;
  network_->set_node_down(v);
  // The runtime dies in place: every resource fenced and unavailable at
  // v, a hold revoked, every link down.
  runtime(v).abandon();
  for (ResourceId r = 0; r < resource_count(); ++r) {
    Resource& res = resource(r);
    // Waiting tickets die with their node: they never grant.
    gate(r, v).drop_waiters();
    auto& waiting = res.waiting[static_cast<std::size_t>(v)];
    while (!waiting.empty()) waiting.pop();
    // An occupant that died inside the CS leaves it empty again; the
    // token it held is frozen with it.
    if (res.occupant == v) res.occupant = kNilNode;
  }
  after_node_event(v);
  if (membership_hook_) membership_hook_(v, false);
  sim_.schedule_after(config_.detect_after, [this, v] { detect_crash(v); });
}

void LockSpace::recover(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK_MSG(!node_up_[static_cast<std::size_t>(v)],
                "node " << v << " recovered while already up");
  node_up_[static_cast<std::size_t>(v)] = 1;
  network_->set_node_up(v);
  sim_.schedule_after(config_.detect_after, [this, v] { detect_recovery(v); });
}

void LockSpace::detect_crash(NodeId v) {
  // The link broke: every live node notices, even if `v` is back already
  // (its recovery is detected afterwards).
  for (NodeId u = 1; u <= config_.n; ++u) {
    if (u == v || !node_up_[static_cast<std::size_t>(u)]) continue;
    runtime(u).on_peer_down(v);
    after_node_event(u);
  }
}

void LockSpace::detect_recovery(NodeId v) {
  if (!node_up_[static_cast<std::size_t>(v)]) return;  // crashed again
  std::vector<NodeId> peers;
  for (NodeId u = 1; u <= config_.n; ++u) {
    if (u == v || !node_up_[static_cast<std::size_t>(u)]) continue;
    runtime(u).on_peers_up({v});
    after_node_event(u);
    peers.push_back(u);
  }
  // The rejoining node learns its whole view at once.
  runtime(v).on_peers_up(peers);
  after_node_event(v);
  if (config_.recovery_enabled && membership_hook_) membership_hook_(v, true);
}

void LockSpace::after_event(ResourceId r, NodeId v) {
  sync_resident_token(r, v);
  check_invariants(r);
  if (post_event_hook_) post_event_hook_(*this, r);
}

void LockSpace::after_node_event(NodeId v) {
  for (ResourceId r = 0; r < resource_count(); ++r) after_event(r, v);
}

void LockSpace::sync_resident_token(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  if (res.token_at.empty()) return;  // not token-based
  const bool has = gate(r, v).protocol().has_token();
  res.resident_tokens +=
      static_cast<int>(has) -
      static_cast<int>(res.token_at[static_cast<std::size_t>(v)]);
  res.token_at[static_cast<std::size_t>(v)] = has ? 1 : 0;
}

}  // namespace dmx::service
