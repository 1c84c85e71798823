#include "service/threaded_lock_space.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/ring.hpp"
#include "exec/strand.hpp"
#include "quorum/election.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::service {

/// One (resource, node) protocol state machine with its strand. Protocol
/// state (`node`, `rng`, `epoch`, `membership`) is strand-confined: only
/// strand tasks touch it, and the strand's serialization publishes task
/// i's writes to task i+1. The client-side gate (`waiting`/`requested`/
/// `granted`/`held`) bridges application threads and strand tasks under
/// `client_mutex`.
///
/// Crash fencing: every protocol task carries the epoch it was minted in
/// and drops itself when it no longer matches the strand's — the
/// thread-kill equivalent. A crash or repair bumps the epoch, so queued
/// old-world work dies unobserved without ever blocking a strand, and a
/// repair installs a fresh compact-world instance via an unfenced reset
/// task that every later same-strand task observes.
struct ThreadedLockSpace::ResourceNode {
  ResourceNode(ThreadedLockSpace& space, ResourceId resource, NodeId self,
               std::uint64_t seed)
      : space(space), resource(resource), self(self),
        strand(space.executor_), rng(seed), context(*this) {}

  /// proto::Context for this state machine; used only from strand tasks.
  /// Post-repair the protocol instance lives in the compact survivor
  /// world: self()/send() speak ranks to it, the wire keeps original ids.
  class Context final : public proto::Context {
   public:
    explicit Context(ResourceNode& rn) : rn_(rn) {}
    NodeId self() const override {
      return rn_.membership != nullptr ? rn_.membership->rank_of(rn_.self)
                                       : rn_.self;
    }
    int cluster_size() const override {
      return rn_.membership != nullptr ? rn_.membership->size()
                                       : rn_.space.config_.n;
    }
    void send(NodeId to, net::MessagePtr message) override {
      const NodeId to_original =
          rn_.membership != nullptr ? rn_.membership->original_of(to) : to;
      rn_.space.route(rn_.resource, rn_.self, to_original,
                      std::move(message), rn_.epoch);
    }
    void grant() override { rn_.on_grant(); }

   private:
    ResourceNode& rn_;
  };

  // --- Strand tasks --------------------------------------------------------

  bool fenced(Epoch tag) const {
    return tag != epoch ||
           space.node_down_[static_cast<std::size_t>(self)].load(
               std::memory_order_relaxed);
  }

  void deliver(Epoch tag, NodeId from, net::MessagePtr message) {
    if (space.failed_.load(std::memory_order_relaxed)) return;
    if (fenced(tag)) return;
    try {
      maybe_jitter();
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

  /// Post-repair request re-issue: the node's pre-repair protocol request
  /// died with the old epoch, so if application threads are still parked
  /// (or a request was posted and fenced), ask again in the fresh world —
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

  void on_grant() {
    bool hand_off = false;
    {
      std::lock_guard<std::mutex> guard(client_mutex);
      const bool dead = space.node_down_[static_cast<std::size_t>(self)].load(
          std::memory_order_relaxed);
      if (!dead && waiting > 0) {
        granted = true;
        granted_epoch = epoch;
        grant_via_chain = false;
        hand_off = true;
      } else {
        // Nobody will consume this grant — every waiter timed out, or the
        // node crashed between request and grant. Hand the CS straight
        // back so the resource keeps flowing.
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

  /// Publishes node->has_remote_request() at the end of every strand
  /// task, so a holder's release can consult it without touching
  /// strand-confined state. The value may lag by an in-flight message —
  /// the lease cap, not this hint, carries the bounded-waiting
  /// guarantee; the hint only decides whether a cap-expired lease may
  /// renew in place.
  void publish_remote_pending() {
    remote_pending.store(node->has_remote_request(),
                         std::memory_order_relaxed);
  }

  void maybe_jitter() {
    if (space.config_.jitter_us == 0) return;
    const auto us = static_cast<unsigned>(rng.uniform_int(
        0, static_cast<std::int64_t>(space.config_.jitter_us)));
    if (us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
  }

  ThreadedLockSpace& space;
  ResourceId resource;
  NodeId self;
  exec::Strand strand;
  std::unique_ptr<proto::MutexNode> node;  // strand-confined
  Rng rng;                                 // strand-confined (jitter)
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
  /// telemetry::now_ns() when the current holder entered (0 = not held);
  /// closes the client.hold_ns histogram at unlock.
  std::uint64_t hold_started_ns = 0;
  /// Epoch the pending grant was minted in: a consumer revalidates it
  /// against the resource's current epoch, so a grant from a world that a
  /// repair has since fenced is discarded instead of entering the CS
  /// alongside the regenerated token.
  Epoch granted_epoch = 0;
  bool held = false;
  /// has_remote_request() as of this strand's last protocol task (see
  /// publish_remote_pending).
  std::atomic<bool> remote_pending{false};
};

ThreadedLockSpace::ThreadedLockSpace(ThreadedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      executor_(exec::ExecutorConfig{config_.workers, config_.spin}) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a ThreadedLockSpace needs at least one resource");

  // Resolve each resource's algorithm (default or per-name override).
  algorithms_.reserve(config_.resources.size());
  for (const std::string& name : config_.resources) {
    const proto::Algorithm* algorithm = &config_.algorithm;
    for (const auto& [override_name, override_algorithm] :
         config_.resource_algorithms) {
      if (override_name == name) algorithm = &override_algorithm;
    }
    algorithms_.push_back(*algorithm);
  }
  for (const auto& [override_name, override_algorithm] :
       config_.resource_algorithms) {
    DMX_CHECK_MSG(std::find(config_.resources.begin(),
                            config_.resources.end(),
                            override_name) != config_.resources.end(),
                  "algorithm override for unknown resource "
                      << override_name);
  }
  bool needs_tree = false;
  for (const proto::Algorithm& algorithm : algorithms_) {
    needs_tree = needs_tree || algorithm.needs_tree;
  }
  if (needs_tree && !config_.tree.has_value()) {
    config_.tree = topology::Tree::star(config_.n, 1);
  }

  const int m = static_cast<int>(config_.resources.size());
  occupancy_ = std::make_unique<std::atomic<int>[]>(
      static_cast<std::size_t>(m));
  entries_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(m));
  unavailable_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(m));
  resource_epoch_ = std::make_unique<std::atomic<Epoch>[]>(
      static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    occupancy_[static_cast<std::size_t>(r)].store(0);
    entries_[static_cast<std::size_t>(r)].store(0);
    unavailable_[static_cast<std::size_t>(r)].store(false);
    resource_epoch_[static_cast<std::size_t>(r)].store(0);
  }
  node_down_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(config_.n) + 1);
  for (NodeId v = 0; v <= config_.n; ++v) {
    node_down_[static_cast<std::size_t>(v)].store(false);
  }
  repair_.reserve(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    repair_.push_back(std::make_unique<RepairState>());
    repair_.back()->membership = fault::Membership::identity(config_.n);
  }

  nodes_.reserve(static_cast<std::size_t>(m) *
                 static_cast<std::size_t>(config_.n));
  Rng seeder(config_.seed);
  initial_holder_.assign(static_cast<std::size_t>(m), kNilNode);
  for (const std::string& name : config_.resources) {
    const ResourceId r = directory_.open(name);
    const proto::Algorithm& algorithm =
        algorithms_[static_cast<std::size_t>(r)];
    for (NodeId v = 1; v <= config_.n; ++v) {
      nodes_.push_back(
          std::make_unique<ResourceNode>(*this, r, v, seeder.next()));
    }
    proto::ClusterSpec spec;
    spec.n = config_.n;
    spec.initial_token_holder =
        algorithm.name == "Singhal" ? 1 : directory_.home_node(r);
    spec.tree = config_.tree.has_value() ? &*config_.tree : nullptr;
    spec.seed = config_.seed;
    initial_holder_[static_cast<std::size_t>(r)] = spec.initial_token_holder;
    auto protocol_nodes = algorithm.factory(spec);
    DMX_CHECK(protocol_nodes.size() ==
              static_cast<std::size_t>(config_.n) + 1);
    for (NodeId v = 1; v <= config_.n; ++v) {
      rn(r, v).node = std::move(protocol_nodes[static_cast<std::size_t>(v)]);
    }
  }

  // Resolve every metric id once, here in cold code; the lock/unlock hot
  // paths then record through plain array indices.
  auto& registry = telemetry::Registry::global();
  hold_hist_ = registry.histogram("client.hold_ns");
  chain_hist_ = registry.histogram("client.chain_len");
  repair_hist_ = registry.histogram("fault.repair_ns");
  unavail_hist_ = registry.histogram("fault.unavail_window_ns");
  unavailable_since_ns_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      static_cast<std::size_t>(m));
  resource_telemetry_.reserve(static_cast<std::size_t>(m));
  for (ResourceId r = 0; r < m; ++r) {
    unavailable_since_ns_[static_cast<std::size_t>(r)].store(0);
    const std::string& rname = directory_.name(r);
    ResourceTelemetry rt;
    rt.wait_ns = registry.histogram("client.wait_ns." + rname);
    rt.ok = registry.counter("client.ok." + rname);
    rt.timeouts = registry.counter("client.timeout." + rname);
    rt.unavailable = registry.counter("client.unavailable." + rname);
    for (const std::string& kind :
         algorithms_[static_cast<std::size_t>(r)].token_message_kinds) {
      rt.token_kinds.push_back(net::MessageKind::of(kind));
    }
    resource_telemetry_.push_back(std::move(rt));
  }
}

ThreadedLockSpace::~ThreadedLockSpace() {
  // Stop the pool first: workers finish their current task and queued
  // strand tasks are destroyed unrun when the strands go away (their
  // captured messages free cross-thread through the pool's owner-return
  // path).
  executor_.shutdown();
}

ThreadedLockSpace::ResourceNode& ThreadedLockSpace::rn(ResourceId r,
                                                       NodeId v) {
  return *nodes_[static_cast<std::size_t>(r) *
                     static_cast<std::size_t>(config_.n) +
                 static_cast<std::size_t>(v) - 1];
}

const proto::Algorithm& ThreadedLockSpace::algorithm(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return algorithms_[static_cast<std::size_t>(r)];
}

bool ThreadedLockSpace::is_node_up(NodeId v) const {
  DMX_CHECK(v >= 1 && v <= config_.n);
  return !node_down_[static_cast<std::size_t>(v)].load(
      std::memory_order_relaxed);
}

Epoch ThreadedLockSpace::epoch(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return resource_epoch_[static_cast<std::size_t>(r)].load(
      std::memory_order_acquire);
}

LockError ThreadedLockSpace::wait_for_grant(
    ResourceId r, NodeId v, const std::chrono::milliseconds* timeout) {
  ResourceNode& x = rn(r, v);
  const ResourceTelemetry& rt = resource_telemetry_[static_cast<std::size_t>(r)];
  const std::uint64_t wait_started_ns = telemetry::now_ns();
  telemetry::FlightRecorder::record_at(wait_started_ns,
                                       telemetry::FlightEvent::kRequest, r, v);
  const auto deadline =
      timeout != nullptr
          ? std::chrono::steady_clock::now() + *timeout
          : std::chrono::steady_clock::time_point::max();
  std::uint64_t grant_ns = 0;
  {
    std::unique_lock<std::mutex> guard(x.client_mutex);
    ++x.waiting;
    // Arrival-order ticket: grants are consumed strictly in ticket order,
    // so a later waiter on the same (resource, node) can never overtake
    // an earlier one through a lucky condvar wake.
    const std::uint64_t ticket = x.ticket_seq++;
    x.fifo.push(ticket);
    // No grant is coming: the space failed, or this node or the resource
    // is dead.
    const auto doomed = [this, r, &x] {
      return failed_.load(std::memory_order_relaxed) ||
             node_down_[static_cast<std::size_t>(x.self)].load(
                 std::memory_order_relaxed) ||
             unavailable_[static_cast<std::size_t>(r)].load(
                 std::memory_order_relaxed);
    };
    // One protocol request at a time per (resource, node): the first local
    // waiter requests; later waiters ride local hand-off (unlock enqueues
    // the next request once the current holder leaves). A pending grant
    // counts as held: the protocol is still inside its critical section,
    // so a request now would only be discarded by the strand.
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
          // The strand was idle: run the request here instead of a pool
          // hop. With the token resting at this node, on_grant fires
          // inside this call and the wait below never sleeps. Tasks take
          // client_mutex, so it must be dropped meanwhile.
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
        // Deadline passed. The request stays posted; a grant arriving
        // with nobody waiting is handed straight back by on_grant.
        --x.waiting;
        x.fifo.erase(ticket);
        guard.unlock();
        // The waiter behind us is the new front; a pending grant it was
        // fenced off may now be its to consume.
        x.client_cv.notify_all();
        telemetry::count(rt.timeouts);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kTimeout, r,
                                          v);
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
        // One clock read serves three consumers: the hold-time stamp,
        // the wait histograms, and the grant flight event.
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
      --x.waiting;
      x.fifo.erase(ticket);
      if (node_down_[static_cast<std::size_t>(x.self)].load(
              std::memory_order_relaxed) ||
          unavailable_[static_cast<std::size_t>(r)].load(
              std::memory_order_relaxed)) {
        telemetry::count(rt.unavailable);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kUnavailable,
                                          r, v);
        return LockError::kUnavailable;
      }
      // A protocol handler threw somewhere in the space; waiting for a
      // grant would hang forever. Surface the failure to the caller
      // (details in first_error()).
      DMX_CHECK_MSG(false, "lock service failed while node "
                               << v << " waited on resource " << name(r)
                               << "; see first_error()");
    }
  }
  // Exclusivity witness: the grant we just consumed must be the only
  // occupancy of this resource anywhere in the space.
  const int prev = occupancy_[static_cast<std::size_t>(r)].fetch_add(1);
  if (prev != 0) {
    record_error("mutual exclusion violated on resource " + name(r) +
                 ": node " + std::to_string(v) +
                 " entered while occupancy was " + std::to_string(prev));
  }
  entries_[static_cast<std::size_t>(r)].fetch_add(1,
                                                  std::memory_order_relaxed);
  // Per-resource lane only; the process-wide "client.wait_ns" roll-up is
  // synthesized at snapshot time (MetricsSnapshot::roll_up), not paid for
  // on every acquisition.
  if (telemetry::sample_1_in_8()) {
    telemetry::observe(rt.wait_ns, grant_ns - wait_started_ns);
  }
  telemetry::count(rt.ok);
  telemetry::FlightRecorder::record_at(grant_ns, telemetry::FlightEvent::kGrant,
                                       r, v);
  return LockError::kOk;
}

void ThreadedLockSpace::lock(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  const LockError error = wait_for_grant(r, v, nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource " << name(r) << " on node " << v
                                    << " can never be granted (crashed node "
                                       "or dead resource)");
}

LockError ThreadedLockSpace::try_lock_for(ResourceId r, NodeId v,
                                          std::chrono::milliseconds timeout) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  return wait_for_grant(r, v, &timeout);
}

void ThreadedLockSpace::unlock(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  ResourceNode& x = rn(r, v);
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
    if (!x.held) {
      // After a crash the holder's world may have been revoked under it
      // (the node died in its CS, or a repair fenced its grant); the
      // zombie's unlock is a ghost, not an error.
      if (fault_active_.load(std::memory_order_relaxed)) return;
      DMX_CHECK_MSG(false, "unlock of resource "
                               << name(r) << " on node " << v
                               << " which does not hold it");
    }
    x.held = false;
    hold_started_ns = x.hold_started_ns;
    x.hold_started_ns = 0;
    // The witness retires only after the held-check passed (a bogus unlock
    // must not drive the counter negative), yet before the release reaches
    // the protocol — after that the next grant may already increment it.
    occupancy_[static_cast<std::size_t>(r)].fetch_sub(1);
    const Epoch tag = resource_epoch_[static_cast<std::size_t>(r)].load(
        std::memory_order_acquire);
    // Local grant chaining: with waiters parked on this node and the
    // lease not exhausted, hand the CS straight to the next one — one
    // condvar wake, zero protocol messages. Never across a fault: a
    // repair fences the holder's world (tag != held_epoch) before it can
    // defer, and any crash disables chaining outright (fault_active_) so
    // repairs and token-loss detection see a quiescing resource.
    if (x.waiting > 0 && tag == x.held_epoch &&
        !fault_active_.load(std::memory_order_relaxed) &&
        !failed_.load(std::memory_order_relaxed)) {
      int chain = x.chain_len;
      const bool window_ok =
          config_.lease.max_hold_ns == 0 ||
          release_ns - x.chain_started_ns < config_.lease.max_hold_ns;
      bool hand_off = window_ok && lease_chain_allowed(config_.lease, chain);
      if (!hand_off && config_.lease.max_chain != 0 &&
          lease_renewable(config_.lease,
                          algorithms_[static_cast<std::size_t>(r)]
                              .holder_sees_remote_requests,
                          x.remote_pending.load(std::memory_order_relaxed))) {
        // Lease expired but the protocol instance can see that no remote
        // request is pending: renew in place instead of a pointless
        // release/re-request round trip. Blind algorithms (Maekawa,
        // Central clients) never take this branch, keeping the cap
        // unconditional where remote demand is invisible.
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
  // The strand was idle: release here, off client_mutex, instead of a
  // pool hop.
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
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kChainGrant, r, v, chain_arg);
    // No protocol release happened, so no deferred repair can complete
    // here: chaining requires !fault_active_, and rs.pending implies a
    // crash already flipped it.
    return;
  }
  telemetry::FlightRecorder::record_at(release_ns,
                                       telemetry::FlightEvent::kRelease, r, v);
  if (yielded_with_waiters) {
    lease_yields_.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kLeaseYield, r, v, ended_chain);
  }
  // Complete a repair that deferred while this node held the lock. Taken
  // without client_mutex: maybe_repair acquires client mutexes under the
  // repair mutex, never the reverse.
  bool complete = false;
  {
    RepairState& rs = *repair_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> guard(rs.mutex);
    complete = rs.pending;
    rs.pending = false;
  }
  if (complete) maybe_repair(r);
}

void ThreadedLockSpace::crash(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (node_down_[static_cast<std::size_t>(v)].exchange(true)) return;
  fault_active_.store(true, std::memory_order_seq_cst);
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kCrash,
                                    /*resource=*/0, v);
  for (int r = 0; r < resource_count(); ++r) {
    ResourceNode& x = rn(r, v);
    bool was_held = false;
    {
      std::lock_guard<std::mutex> guard(x.client_mutex);
      was_held = x.held;
      x.held = false;
      x.granted = false;
      x.requested = false;
      x.chain_len = 0;
      x.grant_via_chain = false;
    }
    // The victim died inside its CS: the occupancy witness retires with it
    // (the repair will re-mint the token among the survivors).
    if (was_held) occupancy_[static_cast<std::size_t>(r)].fetch_sub(1);
    x.client_cv.notify_all();  // v's waiters wake and see the dead node
  }
  for (int r = 0; r < resource_count(); ++r) {
    if (config_.recovery_enabled) {
      maybe_repair(r);
    } else if (initial_holder_[static_cast<std::size_t>(r)] == v) {
      // Token-loss detection without regeneration: the resource whose
      // home (initial token holder) died can never grant again. Surface
      // it instead of letting try_lock_for wait forever.
      mark_unavailable(r);
      wake_all(r);
    }
  }
}

void ThreadedLockSpace::recover(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (!node_down_[static_cast<std::size_t>(v)].exchange(false)) return;
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRecover,
                                    /*resource=*/0, v);
  if (!config_.recovery_enabled) return;  // back up, but never reintegrated
  for (int r = 0; r < resource_count(); ++r) {
    maybe_repair(r);
  }
}

void ThreadedLockSpace::maybe_repair(ResourceId r) {
  RepairState& rs = *repair_[static_cast<std::size_t>(r)];
  std::lock_guard<std::mutex> repair_guard(rs.mutex);

  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  for (NodeId v = 1; v <= config_.n; ++v) {
    up[static_cast<std::size_t>(v)] =
        node_down_[static_cast<std::size_t>(v)].load(
            std::memory_order_seq_cst)
            ? 0
            : 1;
  }
  bool current = true;
  for (NodeId v = 1; v <= config_.n; ++v) {
    current = current && (up[static_cast<std::size_t>(v)] != 0) ==
                             rs.membership.contains(v);
  }
  if (current) {
    rs.pending = false;
    return;
  }

  // The membership is stale: a regeneration is (or stays) in flight. The
  // clock starts at first observation and survives deferrals, so the
  // histogram reflects what a waiting client actually experienced.
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart, r);
  }

  const NodeId winner = quorum::elect_regenerator(config_.n, up);
  if (winner == kNilNode) {
    // No live majority: the resource stays degraded until enough nodes
    // come back. Waiters are told rather than left hanging.
    mark_unavailable(r);
    wake_all(r);
    return;
  }

  // Fence first: from here on no grant minted in the old world can be
  // consumed (wait_for_grant revalidates granted_epoch against this), and
  // every old-tagged strand task drops itself.
  const Epoch e = resource_epoch_[static_cast<std::size_t>(r)].load(
                      std::memory_order_acquire) +
                  1;
  resource_epoch_[static_cast<std::size_t>(r)].store(
      e, std::memory_order_seq_cst);

  // Defer while a live survivor is inside its CS; its unlock completes
  // the repair (the epoch stays bumped, so the resource quiesces).
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (!up[static_cast<std::size_t>(v)]) continue;
    ResourceNode& x = rn(r, v);
    std::lock_guard<std::mutex> guard(x.client_mutex);
    if (x.held) {
      rs.pending = true;
      return;
    }
  }

  fault::Membership membership =
      fault::Membership::survivors(config_.n, up);
  proto::ClusterSpec spec;
  spec.n = membership.size();
  spec.initial_token_holder = membership.rank_of(winner);
  spec.seed = config_.seed;
  spec.epoch = e;
  const proto::Algorithm& algorithm =
      algorithms_[static_cast<std::size_t>(r)];
  if (algorithm.needs_tree) {
    // Star over the survivors rooted at the winner: diameter 2 from any
    // survivor to the regenerated token, independent of who died.
    rs.trees.push_back(std::make_unique<topology::Tree>(
        topology::Tree::star(spec.n, spec.initial_token_holder)));
    spec.tree = rs.trees.back().get();
  }
  auto fresh = algorithm.factory(spec);
  DMX_CHECK(fresh.size() == static_cast<std::size_t>(spec.n) + 1);
  auto shared =
      std::make_shared<const fault::Membership>(std::move(membership));
  rs.membership = *shared;
  if (unavailable_[static_cast<std::size_t>(r)].exchange(
          false, std::memory_order_seq_cst)) {
    const std::uint64_t since =
        unavailable_since_ns_[static_cast<std::size_t>(r)].exchange(
            0, std::memory_order_relaxed);
    if (since != 0) {
      telemetry::observe(unavail_hist_, telemetry::now_ns() - since);
    }
  }

  // Phase 1: install the fresh world. Reset tasks are unfenced — they ARE
  // the epoch transition on each strand.
  for (NodeId rank = 1; rank <= shared->size(); ++rank) {
    ResourceNode& x = rn(r, shared->original_of(rank));
    x.strand.post([&x, e, shared,
                   fresh_node = std::move(
                       fresh[static_cast<std::size_t>(rank)])]() mutable {
      x.node = std::move(fresh_node);
      x.epoch = e;
      x.membership = shared;
      x.request_outstanding = false;
      x.publish_remote_pending();
    });
  }
  // Phase 2: only after EVERY reset is queued, re-issue requests for
  // parked waiters — any message a re-request triggers is then posted
  // behind the destination's reset in its strand FIFO, never ahead of it.
  for (NodeId rank = 1; rank <= shared->size(); ++rank) {
    ResourceNode& x = rn(r, shared->original_of(rank));
    x.strand.post([&x, e] { x.rerequest(e); });
  }
  telemetry::observe(repair_hist_,
                     telemetry::now_ns() - rs.repair_started_ns);
  rs.repair_started_ns = 0;
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairDone, r,
                                    winner, static_cast<std::int64_t>(e));
}

void ThreadedLockSpace::mark_unavailable(ResourceId r) {
  if (!unavailable_[static_cast<std::size_t>(r)].exchange(
          true, std::memory_order_seq_cst)) {
    unavailable_since_ns_[static_cast<std::size_t>(r)].store(
        telemetry::now_ns(), std::memory_order_relaxed);
    telemetry::FlightRecorder::record(
        telemetry::FlightEvent::kResourceUnavailable, r);
  }
}

void ThreadedLockSpace::wake_all(ResourceId r) {
  for (NodeId v = 1; v <= config_.n; ++v) {
    ResourceNode& x = rn(r, v);
    // Lock/unlock pairs with each waiter's predicate check so the wake
    // cannot slip between its check and its wait.
    { std::lock_guard<std::mutex> guard(x.client_mutex); }
    x.client_cv.notify_all();
  }
}

std::uint64_t ThreadedLockSpace::total_entries() const {
  std::uint64_t sum = 0;
  for (int r = 0; r < resource_count(); ++r) {
    sum += entries_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t ThreadedLockSpace::entries(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return entries_[static_cast<std::size_t>(r)].load(
      std::memory_order_relaxed);
}

int ThreadedLockSpace::local_waiters(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  ResourceNode& x = rn(r, v);
  std::lock_guard<std::mutex> guard(x.client_mutex);
  return x.waiting;
}

std::optional<std::string> ThreadedLockSpace::first_error() const {
  std::lock_guard<std::mutex> guard(error_mutex_);
  return first_error_;
}

telemetry::MetricsSnapshot ThreadedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = telemetry::Registry::global().snapshot();
  const exec::ExecutorStats stats = executor_.stats();
  snap.set_counter("exec.tasks_executed", stats.tasks_executed);
  snap.set_counter("exec.steals", stats.steals);
  snap.set_counter("exec.parks", stats.parks);
  snap.set_counter("exec.injector_polls", stats.injector_polls);
  snap.set_counter("service.messages_sent", messages_sent());
  snap.set_counter("client.chained_grants", chained_grants());
  snap.set_counter("client.lease_yields", lease_yields());
  // The hot path records wait time on the per-resource lane only; fold
  // the lanes into the process-wide view here, in cold code.
  snap.roll_up("client.wait_ns");
  return snap;
}

void ThreadedLockSpace::route(ResourceId r, NodeId from, NodeId to,
                              net::MessagePtr message, Epoch tag) {
  DMX_CHECK(to >= 1 && to <= config_.n && to != from);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  // Token forwards are the paper's central cost; flight-record them so a
  // failure dump shows the token's path (integer kind compare, no string).
  for (const net::MessageKind kind :
       resource_telemetry_[static_cast<std::size_t>(r)].token_kinds) {
    if (message->kind_id() == kind) {
      telemetry::FlightRecorder::record(telemetry::FlightEvent::kTokenForward,
                                        r, to, /*arg=*/from);
      break;
    }
  }
  // The network drops traffic to and from dead nodes (sends still count,
  // as in the simulated substrate).
  if (node_down_[static_cast<std::size_t>(from)].load(
          std::memory_order_relaxed) ||
      node_down_[static_cast<std::size_t>(to)].load(
          std::memory_order_relaxed)) {
    return;
  }
  ResourceNode& x = rn(r, to);
  x.strand.post([&x, from, tag, msg = std::move(message)]() mutable {
    x.deliver(tag, from, std::move(msg));
  });
}

void ThreadedLockSpace::record_error(const std::string& what) {
  std::lock_guard<std::mutex> guard(error_mutex_);
  if (!first_error_.has_value()) first_error_ = what;
}

void ThreadedLockSpace::fail(const std::string& what) {
  record_error(what);
  failed_.store(true, std::memory_order_seq_cst);
  for (auto& node : nodes_) {
    // Lock/unlock pairs with each waiter's predicate check so the wake
    // cannot slip between its check and its wait.
    { std::lock_guard<std::mutex> guard(node->client_mutex); }
    node->client_cv.notify_all();
  }
}

}  // namespace dmx::service
