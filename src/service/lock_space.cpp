#include "service/lock_space.hpp"

#include <utility>

#include "common/check.hpp"
#include "proto/world.hpp"
#include "quorum/election.hpp"

namespace dmx::service {

/// The protocol's window to the world for one (resource, node) pair: sends
/// are tagged with the resource so the shared network can demultiplex.
///
/// After a crash repair the protocol instances live in the compact
/// survivor world (ids 1..k), while the network and the application keep
/// original ids. This context is the translation boundary: self() and
/// send() targets are compact ranks, converted through the epoch's
/// membership at the wire. At epoch 0 membership is null and ranks equal
/// original ids, so the no-fault path pays nothing.
class LockSpace::ResourceContext final : public proto::Context {
 public:
  ResourceContext(LockSpace& space, ResourceId resource, NodeId self)
      : space_(space), resource_(resource), original_(self), rank_(self) {}

  NodeId self() const override { return rank_; }
  int cluster_size() const override {
    return membership_ ? membership_->size() : space_.nodes();
  }
  void send(NodeId to, net::MessagePtr message) override {
    const NodeId to_original = membership_ ? membership_->original_of(to) : to;
    space_.network_->send(resource_, original_, to_original,
                          std::move(message), epoch_);
  }
  void grant() override { space_.on_grant(resource_, original_); }

  /// Moves this context into a repaired epoch's compact world.
  void rebind(std::shared_ptr<const fault::Membership> membership,
              Epoch epoch) {
    rank_ = membership->rank_of(original_);
    membership_ = std::move(membership);
    epoch_ = epoch;
  }

  const fault::Membership* membership() const { return membership_.get(); }

 private:
  LockSpace& space_;
  ResourceId resource_;
  NodeId original_;
  NodeId rank_;
  Epoch epoch_ = 0;
  std::shared_ptr<const fault::Membership> membership_;
};

LockSpace::LockSpace(LockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      sim_(config_.wheel_span) {
  DMX_CHECK(config_.n >= 1);
  std::unique_ptr<net::LatencyModel> latency =
      config_.latency_model
          ? std::move(config_.latency_model)
          : std::make_unique<net::FixedLatency>(config_.fixed_latency);
  network_ = std::make_unique<net::Network>(sim_, config_.n,
                                            std::move(latency), config_.seed);
  network_->set_delivery_handler(
      [this](const net::Envelope& env) { deliver(env); });
  node_up_.assign(static_cast<std::size_t>(config_.n) + 1, 1);
  rejoin_pending_.assign(static_cast<std::size_t>(config_.n) + 1, 0);
  identity_ = fault::Membership::identity(config_.n);
  network_->set_discard_handler(
      [this](const net::Envelope& env, net::Network::DiscardReason reason) {
        on_discard(env, reason);
      });
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
    const Resource& res = resource(existing);
    DMX_CHECK_MSG(res.algorithm.name == algorithm.name,
                  "resource " << name << " already open with algorithm "
                              << res.algorithm.name);
    DMX_CHECK_MSG(home == kNilNode || home == res.home,
                  "resource " << name << " already open with home "
                              << res.home);
    return existing;
  }
  DMX_CHECK_MSG(home == kNilNode || (home >= 1 && home <= config_.n),
                "home " << home << " outside 1.." << config_.n);

  const ResourceId id = directory_.open(name);
  auto res = std::make_unique<Resource>();
  res->algorithm = algorithm;
  res->token_kinds.reserve(algorithm.token_message_kinds.size());
  for (const std::string& kind : algorithm.token_message_kinds) {
    res->token_kinds.push_back(net::MessageKind::of(kind));
  }
  res->home = home != kNilNode ? home : directory_.home_node(id);

  proto::World world =
      proto::initial_world(algorithm, config_.n, res->home,
                           config_.tree ? &*config_.tree : nullptr);
  // The first path-forwarding resource builds the default star; the rest
  // share it.
  if (world.tree) config_.tree = std::move(world.tree);
  res->nodes = std::move(world.nodes);
  res->contexts.reserve(static_cast<std::size_t>(config_.n));
  for (NodeId v = 1; v <= config_.n; ++v) {
    res->contexts.push_back(std::make_unique<ResourceContext>(*this, id, v));
  }
  res->app_state.assign(static_cast<std::size_t>(config_.n) + 1,
                        AppState::kIdle);
  res->grant_callbacks.assign(static_cast<std::size_t>(config_.n) + 1,
                              nullptr);
  res->tickets.assign(static_cast<std::size_t>(config_.n) + 1, nullptr);
  res->node_epoch.assign(static_cast<std::size_t>(config_.n) + 1, 0);
  res->local_queue.resize(static_cast<std::size_t>(config_.n) + 1);
  res->chain_len.assign(static_cast<std::size_t>(config_.n) + 1, 0);
  // Seed the resident-token mirror with one full scan; every subsequent
  // event reconciles just the node it mutated.
  if (res->algorithm.token_based) {
    res->token_at.assign(static_cast<std::size_t>(config_.n) + 1, 0);
    for (NodeId v = 1; v <= config_.n; ++v) {
      if (res->nodes[static_cast<std::size_t>(v)]->has_token()) {
        res->token_at[static_cast<std::size_t>(v)] = 1;
        ++res->resident_tokens;
      }
    }
  }
  resources_.push_back(std::move(res));
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

const proto::Algorithm& LockSpace::algorithm(ResourceId r) const {
  return resource(r).algorithm;
}

proto::MutexNode& LockSpace::node(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  return *res.nodes[static_cast<std::size_t>(v)];
}

proto::Context& LockSpace::context(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  return *res.contexts[static_cast<std::size_t>(v) - 1];
}

Ticket LockSpace::acquire(ResourceId r, NodeId v, GrantCallback on_grant) {
  Resource& res = resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (fault_active_ && !node_up_[static_cast<std::size_t>(v)]) {
    // A dead node cannot request; the caller gets a ticket that never
    // grants (drivers treat it as a failed acquire).
    return std::make_shared<Acquisition>();
  }
  if (res.app_state[static_cast<std::size_t>(v)] != AppState::kIdle) {
    DMX_CHECK_MSG(config_.queue_local,
                  "node " << v << " already requesting or in CS of resource "
                          << directory_.name(r));
    // Queue behind this node's outstanding request: granted by a chained
    // hand-off at release, or promoted into the protocol when the chain
    // yields.
    auto ticket = std::make_shared<Acquisition>();
    res.local_queue[static_cast<std::size_t>(v)].push_back(
        {ticket, std::move(on_grant)});
    return ticket;
  }
  res.app_state[static_cast<std::size_t>(v)] = AppState::kWaiting;
  res.grant_callbacks[static_cast<std::size_t>(v)] = std::move(on_grant);
  auto ticket = std::make_shared<Acquisition>();
  res.tickets[static_cast<std::size_t>(v)] = ticket;
  if (fault_active_ &&
      res.node_epoch[static_cast<std::size_t>(v)] != res.epoch) {
    // Recovered but not yet reintegrated: park the request application-
    // side. The next repair rebinds this node and re-issues it.
    return ticket;
  }
  res.nodes[static_cast<std::size_t>(v)]->request_cs(
      *res.contexts[static_cast<std::size_t>(v) - 1]);
  sync_resident_token(res, v);
  check_invariants(r);
  if (post_event_hook_) post_event_hook_(*this, r);
  return ticket;
}

Ticket LockSpace::acquire(std::string_view name, NodeId v,
                          GrantCallback on_grant) {
  // Reuse an existing resource regardless of which algorithm it was
  // opened with; only a miss opens under the space default.
  const ResourceId r = directory_.lookup(name);
  return acquire(r == kNilResource ? open(name) : r, v, std::move(on_grant));
}

void LockSpace::on_grant(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  if (fault_active_) {
    // The fencing invariant: a grant must come from a live, epoch-current
    // instance. A stale token that somehow reached a handler granting here
    // would be the lost-then-found token being honored — the exact bug the
    // epoch machinery exists to make impossible.
    DMX_CHECK_MSG(node_up_[static_cast<std::size_t>(v)],
                  "grant on resource " << directory_.name(r)
                                       << " at crashed node " << v);
    DMX_CHECK_MSG(
        res.node_epoch[static_cast<std::size_t>(v)] == res.epoch,
        "stale-epoch grant on resource "
            << directory_.name(r) << ": node " << v << " runs epoch "
            << res.node_epoch[static_cast<std::size_t>(v)]
            << " but the resource is at epoch " << res.epoch);
  }
  DMX_CHECK_MSG(res.app_state[static_cast<std::size_t>(v)] ==
                    AppState::kWaiting,
                "grant for node " << v << " which is not waiting on "
                                  << directory_.name(r));
  DMX_CHECK_MSG(res.occupant == kNilNode,
                "mutual exclusion violated on resource "
                    << directory_.name(r) << ": node " << v
                    << " granted while node " << res.occupant
                    << " is inside its critical section");
  res.app_state[static_cast<std::size_t>(v)] = AppState::kInCs;
  res.occupant = v;
  ++res.entries;
  ++total_entries_;
  if (auto& ticket = res.tickets[static_cast<std::size_t>(v)]) {
    ticket->granted = true;
    ticket->granted_at = sim_.now();
    ticket = nullptr;
  }
  // Take the callback by move so a new acquire from within it is safe.
  auto callback = std::move(res.grant_callbacks[static_cast<std::size_t>(v)]);
  res.grant_callbacks[static_cast<std::size_t>(v)] = nullptr;
  if (callback) callback(r, v);
}

void LockSpace::release(ResourceId r, NodeId v) {
  Resource& res = resource(r);
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (fault_active_ && (res.occupant != v ||
                        !node_up_[static_cast<std::size_t>(v)])) {
    // The occupancy was voided by a crash (either this node died in the
    // CS, or a repair discarded the world it was granted in). The driver's
    // scheduled release is a ghost; ignore it.
    return;
  }
  DMX_CHECK_MSG(res.occupant == v, "release of " << directory_.name(r)
                                                 << " by node " << v
                                                 << " but occupant is "
                                                 << res.occupant);
  res.app_state[static_cast<std::size_t>(v)] = AppState::kIdle;
  res.occupant = kNilNode;
  auto& queue = res.local_queue[static_cast<std::size_t>(v)];
  int& chain = res.chain_len[static_cast<std::size_t>(v)];
  if (!queue.empty() && !res.repair_pending &&
      (!fault_active_ ||
       res.node_epoch[static_cast<std::size_t>(v)] == res.epoch)) {
    // Local grant chaining: the token (or grant) stays put and the CS is
    // handed straight to the next co-located waiter — zero protocol
    // messages — as long as the lease allows. At the cap boundary the
    // lease renews in place iff the algorithm guarantees the holder sees
    // remote interest and none is visible; blind algorithms (Central,
    // Maekawa) always yield at the cap, which is what keeps remote
    // waiting bounded on all nine.
    bool hand_off = lease_chain_allowed(config_.lease, chain);
    if (!hand_off && config_.lease.max_chain != 0 &&
        lease_renewable(config_.lease,
                        res.algorithm.holder_sees_remote_requests,
                        res.nodes[static_cast<std::size_t>(v)]
                            ->has_remote_request())) {
      chain = 0;
      hand_off = true;
    }
    if (hand_off) {
      ++chain;
      ++chained_grants_;
      LocalWaiter next = std::move(queue.front());
      queue.pop_front();
      res.app_state[static_cast<std::size_t>(v)] = AppState::kInCs;
      res.occupant = v;
      ++res.entries;
      ++total_entries_;
      if (next.ticket) {
        next.ticket->granted = true;
        next.ticket->granted_at = sim_.now();
      }
      if (next.callback) next.callback(r, v);
      check_invariants(r);
      if (post_event_hook_) post_event_hook_(*this, r);
      return;
    }
  }
  chain = 0;
  if (!queue.empty()) ++lease_yields_;
  if (res.repair_pending) {
    // A repair arrived while this node sat in the CS. Skip the protocol
    // release — the world it would release into is being discarded — and
    // run the deferred repair now that the CS is empty. A queued local
    // waiter is promoted to the application-level waiting slot first so
    // the repair re-issues its request into the fresh world.
    promote_local_waiter(res, v);
    res.repair_pending = false;
    repair_resource(r);
    if (post_event_hook_) post_event_hook_(*this, r);
    return;
  }
  res.nodes[static_cast<std::size_t>(v)]->release_cs(
      *res.contexts[static_cast<std::size_t>(v) - 1]);
  sync_resident_token(res, v);
  // The chain yielded (or chaining is off): the next local waiter, if
  // any, re-enters through the protocol so remote requesters get their
  // turn first.
  if (promote_local_waiter(res, v)) {
    res.nodes[static_cast<std::size_t>(v)]->request_cs(
        *res.contexts[static_cast<std::size_t>(v) - 1]);
    sync_resident_token(res, v);
  }
  check_invariants(r);
  if (post_event_hook_) post_event_hook_(*this, r);
}

bool LockSpace::promote_local_waiter(Resource& res, NodeId v) {
  auto& queue = res.local_queue[static_cast<std::size_t>(v)];
  if (queue.empty()) return false;
  LocalWaiter next = std::move(queue.front());
  queue.pop_front();
  res.app_state[static_cast<std::size_t>(v)] = AppState::kWaiting;
  res.grant_callbacks[static_cast<std::size_t>(v)] = std::move(next.callback);
  res.tickets[static_cast<std::size_t>(v)] = std::move(next.ticket);
  return true;
}

bool LockSpace::is_idle(ResourceId r, NodeId v) const {
  return resource(r).app_state[static_cast<std::size_t>(v)] ==
         AppState::kIdle;
}

bool LockSpace::is_waiting(ResourceId r, NodeId v) const {
  return resource(r).app_state[static_cast<std::size_t>(v)] ==
         AppState::kWaiting;
}

bool LockSpace::is_in_cs(ResourceId r, NodeId v) const {
  return resource(r).app_state[static_cast<std::size_t>(v)] ==
         AppState::kInCs;
}

NodeId LockSpace::occupant(ResourceId r) const { return resource(r).occupant; }

std::uint64_t LockSpace::entries(ResourceId r) const {
  return resource(r).entries;
}

int LockSpace::resident_tokens(ResourceId r) const {
  return resource(r).resident_tokens;
}

std::size_t LockSpace::local_queue_depth(ResourceId r, NodeId v) const {
  return resource(r).local_queue[static_cast<std::size_t>(v)].size();
}

void LockSpace::check_invariants(ResourceId r) {
  // CS exclusivity per resource is structural (on_grant checks). Verify
  // per-resource token uniqueness: the harness-maintained resident-token
  // counter plus in-flight token messages of THIS resource — O(1) on both
  // sides (the former replaced an O(N) has_token() scan per event).
  Resource& res = resource(r);
  if (!res.algorithm.token_based) return;
  DMX_CHECK_MSG(res.resident_tokens >= 0,
                "resource " << directory_.name(r)
                            << " resident-token counter went negative");
  if (fault_active_) {
    // Fault-aware counting: only live tokens matter — resident at an
    // up, epoch-current node, or in flight stamped with the current
    // epoch. A token frozen inside a crashed node or trailing the fence
    // is already dead; counting it would make a legitimate regeneration
    // look like a duplicate. O(n) scan, paid only when faults are active.
    std::size_t live = 0;
    for (NodeId v = 1; v <= config_.n; ++v) {
      if (res.token_at[static_cast<std::size_t>(v)] &&
          node_up_[static_cast<std::size_t>(v)] &&
          res.node_epoch[static_cast<std::size_t>(v)] == res.epoch) {
        ++live;
      }
    }
    for (const net::MessageKind kind : res.token_kinds) {
      live += network_->in_flight_count(r, res.epoch, kind);
    }
    if (res.degraded) {
      // Between fault and repair the token may be lost, never duplicated.
      DMX_CHECK_MSG(live <= 1, "resource "
                                   << directory_.name(r)
                                   << " live token count is " << live
                                   << " during degraded epoch " << res.epoch);
    } else {
      DMX_CHECK_MSG(live == 1, "resource "
                                   << directory_.name(r) << " token count is "
                                   << live << " at epoch " << res.epoch
                                   << " (must be exactly 1)");
    }
    return;
  }
  std::size_t tokens = static_cast<std::size_t>(res.resident_tokens);
  for (const net::MessageKind kind : res.token_kinds) {
    tokens += network_->in_flight_count(r, res.epoch, kind);
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

Epoch LockSpace::epoch(ResourceId r) const { return resource(r).epoch; }

bool LockSpace::is_degraded(ResourceId r) const {
  return resource(r).degraded || resource(r).repair_pending;
}

const fault::Membership& LockSpace::membership(ResourceId r) const {
  const Resource& res = resource(r);
  return res.membership ? *res.membership : identity_;
}

void LockSpace::deliver(const net::Envelope& env) {
  DMX_CHECK(env.to >= 1 && env.to <= config_.n);
  Resource& res = resource(env.resource);
  NodeId from = env.from;
  if (fault_active_) {
    // The network already discards envelopes to dead nodes and fences
    // stale epochs; anything arriving here must be current-world. Guard
    // anyway — a handler running on a stale instance would corrupt it.
    if (!node_up_[static_cast<std::size_t>(env.to)] ||
        res.node_epoch[static_cast<std::size_t>(env.to)] != env.epoch) {
      return;
    }
    ResourceContext& ctx = *res.contexts[static_cast<std::size_t>(env.to) - 1];
    if (ctx.membership() != nullptr) from = ctx.membership()->rank_of(env.from);
  }
  res.nodes[static_cast<std::size_t>(env.to)]->on_message(
      *res.contexts[static_cast<std::size_t>(env.to) - 1], from,
      *env.message);
  sync_resident_token(res, env.to);
  check_invariants(env.resource);
  if (post_event_hook_) post_event_hook_(*this, env.resource);
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
  rejoin_pending_[static_cast<std::size_t>(v)] = 1;
  network_->set_node_down(v);
  for (ResourceId r = 0; r < resource_count(); ++r) {
    Resource& res = resource(r);
    if (res.occupant == v) {
      // The occupant died inside the CS; the CS is empty again (the dead
      // node will never release) and the token it held is frozen with it.
      res.occupant = kNilNode;
      res.app_state[static_cast<std::size_t>(v)] = AppState::kIdle;
    } else if (res.app_state[static_cast<std::size_t>(v)] ==
               AppState::kWaiting) {
      // Void the dead node's pending request: the ticket never grants.
      res.app_state[static_cast<std::size_t>(v)] = AppState::kIdle;
      res.grant_callbacks[static_cast<std::size_t>(v)] = nullptr;
      res.tickets[static_cast<std::size_t>(v)] = nullptr;
    }
    // Local waiters die with their node: their tickets never grant.
    res.local_queue[static_cast<std::size_t>(v)].clear();
    res.chain_len[static_cast<std::size_t>(v)] = 0;
    if (config_.recovery_enabled && res.algorithm.token_based) {
      // Until the repair we cannot tell whether the token died with the
      // node; tolerate transient loss. With recovery disabled checks stay
      // strict so a lost token is CAUGHT, not excused.
      res.degraded = true;
    }
    check_invariants(r);
    if (post_event_hook_) post_event_hook_(*this, r);
  }
  if (membership_hook_) membership_hook_(v, false);
  if (config_.recovery_enabled) {
    sim_.schedule_after(config_.detect_after, [this] { repair_all(); });
  }
}

void LockSpace::recover(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK_MSG(!node_up_[static_cast<std::size_t>(v)],
                "node " << v << " recovered while already up");
  node_up_[static_cast<std::size_t>(v)] = 1;
  network_->set_node_up(v);
  // The node is back but runs its frozen pre-crash instances; every
  // resource whose epoch moved on fences it until repair_all reintegrates
  // it with fresh state.
  if (config_.recovery_enabled) {
    sim_.schedule_after(config_.detect_after, [this] { repair_all(); });
  }
}

void LockSpace::repair_all() {
  for (ResourceId r = 0; r < resource_count(); ++r) {
    Resource& res = resource(r);
    if (res.repair_pending) continue;  // already deferred to release()
    // Repair iff the current membership differs from the live set or the
    // resource is degraded; multiple scheduled detections collapse to one
    // repair this way.
    bool current = !res.degraded;
    for (NodeId v = 1; v <= config_.n && current; ++v) {
      const bool member = res.membership
                              ? res.membership->contains(v)
                              : true;
      const bool up = node_up_[static_cast<std::size_t>(v)] != 0;
      if (member != up) current = false;
      if (up && res.node_epoch[static_cast<std::size_t>(v)] != res.epoch) {
        current = false;
      }
    }
    if (current) continue;
    if (res.occupant != kNilNode) {
      // A live node is inside the CS; repairing now would revoke a held
      // lock. Defer to its release.
      res.repair_pending = true;
      continue;
    }
    repair_resource(r);
    if (post_event_hook_) post_event_hook_(*this, r);
  }
}

void LockSpace::repair_resource(ResourceId r) {
  Resource& res = resource(r);
  const NodeId winner = quorum::elect_regenerator(config_.n, node_up_);
  if (winner == kNilNode) {
    // No live majority: regeneration would risk a token on each side of a
    // partition. Stay degraded until enough nodes return.
    return;
  }
  auto membership = std::make_shared<fault::Membership>(
      fault::Membership::survivors(config_.n, node_up_));
  const int k = membership->size();
  res.epoch += 1;
  network_->set_resource_epoch(r, res.epoch);

  // Rebuild the protocol world over the compact survivor ids. The winner
  // is the smallest live node, so its rank is 1 — which also satisfies
  // Singhal's pinned initial holder.
  proto::World fresh = proto::regenerated_world(res.algorithm, k,
                                                membership->rank_of(winner));

  std::vector<NodeId> reintegrated;
  for (NodeId rank = 1; rank <= k; ++rank) {
    const NodeId original = membership->original_of(rank);
    if (rejoin_pending_[static_cast<std::size_t>(original)]) {
      rejoin_pending_[static_cast<std::size_t>(original)] = 0;
      reintegrated.push_back(original);
    }
    res.nodes[static_cast<std::size_t>(original)] =
        std::move(fresh.nodes[static_cast<std::size_t>(rank)]);
    res.node_epoch[static_cast<std::size_t>(original)] = res.epoch;
    res.contexts[static_cast<std::size_t>(original) - 1]->rebind(membership,
                                                                 res.epoch);
  }
  res.membership = membership;
  res.degraded = false;

  // Reseed the resident-token mirror: survivors from the fresh instances,
  // dead nodes keep their frozen (stale, fenced) entries.
  if (res.algorithm.token_based) {
    res.resident_tokens = 0;
    for (NodeId v = 1; v <= config_.n; ++v) {
      res.token_at[static_cast<std::size_t>(v)] =
          res.nodes[static_cast<std::size_t>(v)]->has_token() ? 1 : 0;
      res.resident_tokens += res.token_at[static_cast<std::size_t>(v)];
    }
  }

  // Re-issue requests parked by survivors (their pre-repair protocol
  // requests died with the old world; tickets and callbacks are intact).
  // Ascending original id keeps the repair deterministic.
  for (NodeId rank = 1; rank <= k; ++rank) {
    const NodeId original = membership->original_of(rank);
    if (res.app_state[static_cast<std::size_t>(original)] !=
        AppState::kWaiting) {
      continue;
    }
    res.nodes[static_cast<std::size_t>(original)]->request_cs(
        *res.contexts[static_cast<std::size_t>(original) - 1]);
    sync_resident_token(res, original);
  }
  check_invariants(r);
  for (const NodeId v : reintegrated) {
    if (membership_hook_) membership_hook_(v, true);
  }
}

void LockSpace::sync_resident_token(Resource& res, NodeId v) {
  if (!res.algorithm.token_based) return;
  const bool has = res.nodes[static_cast<std::size_t>(v)]->has_token();
  res.resident_tokens +=
      static_cast<int>(has) -
      static_cast<int>(res.token_at[static_cast<std::size_t>(v)]);
  res.token_at[static_cast<std::size_t>(v)] = has ? 1 : 0;
}

}  // namespace dmx::service
