#include "service/gate.hpp"

#include <thread>
#include <utility>

#include "common/check.hpp"
#include "proto/world.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::service {

namespace {
/// Set by on_grant when it woke a thread parked on its gate's condvar;
/// unlock() clears it before running its strand and reads it after.
thread_local bool tl_woke_parked = false;
}  // namespace

// --- Context ----------------------------------------------------------------

NodeId Gate::Context::self() const {
  return gate_.membership_ != nullptr ? gate_.membership_->rank_of(gate_.self_)
                                      : gate_.self_;
}

int Gate::Context::cluster_size() const {
  return gate_.membership_ != nullptr ? gate_.membership_->size()
                                      : gate_.set_.n_;
}

void Gate::Context::send(NodeId to, net::MessagePtr message) {
  const NodeId to_original =
      gate_.membership_ != nullptr ? gate_.membership_->original_of(to) : to;
  // Token forwards are the paper's central cost; flight-record them so a
  // failure dump shows the token's path (integer kind compare, no string).
  for (const net::MessageKind kind : gate_.res_.token_kinds) {
    if (message->kind_id() == kind) {
      telemetry::FlightRecorder::record(telemetry::FlightEvent::kTokenForward,
                                        gate_.resource_, to_original,
                                        /*arg=*/gate_.self_);
      break;
    }
  }
  gate_.host_.route(gate_.resource_, gate_.self_, to_original,
                    std::move(message), gate_.epoch_);
}

// --- Strand tasks -----------------------------------------------------------

Gate::Gate(GateSet& set, GateHost& host, GateResource& resource,
           ResourceId id, NodeId self, std::uint64_t seed,
           std::unique_ptr<proto::MutexNode> node)
    : set_(set), host_(host), res_(resource), resource_(id), self_(self),
      strand_(set.executor_), node_(std::move(node)), rng_(seed),
      context_(*this) {}

bool Gate::fenced(Epoch tag) const { return tag != epoch_; }

void Gate::deliver(Epoch tag, NodeId from, net::MessagePtr message) {
  if (set_.failed.load(std::memory_order_relaxed)) return;
  if (fenced(tag)) return;
  if (membership_ != nullptr && !membership_->contains(from)) {
    set_.record_error("frame from node " + std::to_string(from) +
                      " outside the world of resource " + res_.name);
    return;
  }
  try {
    maybe_jitter();
    node_->on_message(context_,
                      membership_ != nullptr ? membership_->rank_of(from)
                                             : from,
                      *message);
  } catch (const std::exception& e) {
    set_.fail(e.what());
  }
  publish_remote_pending();
}

void Gate::request(Epoch tag) {
  if (set_.failed.load(std::memory_order_relaxed)) return;
  if (fenced(tag)) return;
  // A repair's re-issue may have beaten this task into the new world
  // (one outstanding protocol request per node, ever).
  if (request_outstanding_) return;
  request_now();
}

void Gate::release(Epoch tag) {
  if (set_.failed.load(std::memory_order_relaxed)) return;
  if (fenced(tag)) return;
  request_outstanding_ = false;
  try {
    node_->release_cs(context_);
  } catch (const std::exception& e) {
    set_.fail(e.what());
  }
  publish_remote_pending();
}

void Gate::rerequest(Epoch tag) {
  if (set_.failed.load(std::memory_order_relaxed)) return;
  if (fenced(tag)) return;
  if (request_outstanding_) return;
  bool want = false;
  {
    // Waiters still parked, or a request posted and fenced: ask again.
    std::lock_guard<std::mutex> guard(client_mutex_);
    want = requested_ || waiting_ > 0;
    requested_ = want;
  }
  if (want) request_now();
}

void Gate::request_now() {
  request_outstanding_ = true;
  try {
    node_->request_cs(context_);
  } catch (const std::exception& e) {
    set_.fail(e.what());
  }
  publish_remote_pending();
}

void Gate::on_grant() {
  bool hand_off = false;
  {
    std::lock_guard<std::mutex> guard(client_mutex_);
    if (waiting_ > 0) {
      granted_ = true;
      granted_epoch_ = epoch_;
      grant_via_chain_ = false;
      hand_off = true;
      if (parked_ > 0) tl_woke_parked = true;
    } else {
      // Nobody will consume this grant: every waiter timed out or gave
      // up. Hand the CS straight back so the resource keeps flowing.
      requested_ = false;
    }
  }
  if (hand_off) {
    client_cv_.notify_all();
    return;
  }
  const Epoch tag = epoch_;  // on_grant runs on the strand
  strand_.post([this, tag] { release(tag); });
}

void Gate::publish_remote_pending() {
  remote_pending_.store(node_->has_remote_request(),
                        std::memory_order_relaxed);
}

void Gate::maybe_jitter() {
  if (set_.jitter_us_ == 0) return;
  const auto us = static_cast<unsigned>(
      rng_.uniform_int(0, static_cast<std::int64_t>(set_.jitter_us_)));
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

void Gate::post_deliver(Epoch tag, NodeId from, net::MessagePtr message) {
  strand_.post([this, tag, from, msg = std::move(message)]() mutable {
    deliver(tag, from, std::move(msg));
  });
}

void Gate::post_reset(Epoch e,
                      std::shared_ptr<const fault::Membership> membership,
                      std::unique_ptr<proto::MutexNode> node) {
  strand_.post([this, e, membership = std::move(membership),
                node = std::move(node)]() mutable {
    node_ = std::move(node);
    epoch_ = e;
    membership_ = std::move(membership);
    request_outstanding_ = false;
    publish_remote_pending();
  });
}

void Gate::post_rerequest(Epoch e) {
  strand_.post([this, e] { rerequest(e); });
}

// --- Client side ------------------------------------------------------------

LockError Gate::lock(const std::chrono::milliseconds* timeout) {
  const std::uint64_t wait_started_ns = telemetry::now_ns();
  telemetry::FlightRecorder::record_at(
      wait_started_ns, telemetry::FlightEvent::kRequest, resource_, self_);
  const auto deadline =
      timeout != nullptr
          ? std::chrono::steady_clock::now() + *timeout
          : std::chrono::steady_clock::time_point::max();
  std::uint64_t grant_ns = 0;
  int prev_occupancy = 0;
  {
    std::unique_lock<std::mutex> guard(client_mutex_);
    ++waiting_;
    // Arrival-order ticket: grants are consumed strictly in ticket order,
    // so a later waiter can never overtake an earlier one through a lucky
    // condvar wake.
    const std::uint64_t ticket = ticket_seq_++;
    fifo_.push(ticket);
    // No grant is coming: the space failed, or the resource is dead at
    // this node.
    const auto doomed = [this] {
      return set_.failed.load(std::memory_order_relaxed) ||
             unavailable.load(std::memory_order_relaxed);
    };
    // One protocol request at a time: the first local waiter requests;
    // later waiters ride local hand-off (unlock enqueues the next request
    // once the holder leaves). A pending grant counts as held: the
    // protocol is still inside its critical section, so a request now
    // would only be discarded by the strand.
    if (!requested_ && !held_ && !granted_) {
      requested_ = true;
      const Epoch tag = fence.load(std::memory_order_acquire);
      if (strand_.enqueue([this, tag] { request(tag); })) {
        if (doomed()) {
          // Keep the client mutex until the first predicate check below,
          // so kUnavailable wins before any grant can be consumed.
          strand_.submit_claimed();
        } else {
          // The strand was idle: run the request here instead of a pool
          // hop. With the token resting at this node, on_grant fires
          // inside this call and the wait below never sleeps; so it does
          // for a remote token when the strands on its way are idle (the
          // trampoline runs them here). Tasks take the client mutex, so
          // it must be dropped meanwhile.
          guard.unlock();
          strand_.run_claimed();
          guard.lock();
        }
      }
    }
    const auto ready = [this, ticket, &doomed] {
      return (granted_ && fifo_.front() == ticket) || doomed();
    };
    // One condvar sleep, counted in parked_ so a waker can tell that it
    // woke a sleeping thread; false once the deadline has passed.
    bool slept = false;
    const auto park = [&] {
      if (!slept) {
        slept = true;
        set_.parked_waits_.fetch_add(1, std::memory_order_relaxed);
      }
      ++parked_;
      bool in_time = true;
      if (timeout == nullptr) {
        client_cv_.wait(guard);
      } else {
        in_time = client_cv_.wait_until(guard, deadline) ==
                  std::cv_status::no_timeout;
      }
      --parked_;
      return in_time;
    };
    while (true) {
      // Re-armed against the ORIGINAL deadline after every wake: a repair
      // wakeup or a stale grant never extends the wait.
      bool signalled = true;
      while (!ready()) {
        if (!park()) {
          signalled = ready();
          break;
        }
      }
      if (!signalled) {
        // Deadline passed. The request stays posted; a grant arriving
        // with nobody waiting is handed straight back by on_grant.
        --waiting_;
        fifo_.erase(ticket);
        guard.unlock();
        // The waiter behind us is the new front; a pending grant it was
        // fenced off may now be its to consume.
        client_cv_.notify_all();
        telemetry::count(res_.timeouts);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kTimeout,
                                          resource_, self_);
        return LockError::kTimeout;
      }
      if (granted_ && fifo_.front() == ticket) {
        // Revalidate against the current epoch: a repair may have fenced
        // the world this grant came from, in which case the regenerated
        // token supersedes it and entering would break exclusion. The
        // repair's re-request covers us; keep waiting.
        if (granted_epoch_ != fence.load(std::memory_order_acquire)) {
          granted_ = false;
          continue;
        }
        granted_ = false;
        requested_ = false;
        --waiting_;
        fifo_.pop();
        held_ = true;
        held_epoch_ = granted_epoch_;
        // Exclusivity witness, counted under the client mutex so that an
        // abandon() racing this entry retires only what it counted.
        prev_occupancy = res_.occupancy.fetch_add(1);
        // One clock read serves three consumers: the hold-time stamp, the
        // wait histogram, and the grant flight event.
        grant_ns = telemetry::now_ns();
        hold_started_ns_ = grant_ns;
        if (grant_via_chain_) {
          grant_via_chain_ = false;  // window stays open, length counted
        } else {
          chain_len_ = 0;  // fresh protocol grant opens a fresh window
          chain_started_ns_ = grant_ns;
        }
        break;
      }
      const bool dead = unavailable.load(std::memory_order_relaxed);
      const bool failed = set_.failed.load(std::memory_order_relaxed);
      if (dead || failed) {
        --waiting_;
        fifo_.erase(ticket);
      }
      if (dead) {
        telemetry::count(res_.unavailable_count);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kUnavailable,
                                          resource_, self_);
        return LockError::kUnavailable;
      }
      // A protocol handler threw somewhere in the space; waiting for a
      // grant would hang forever. Surface the failure to the caller
      // (details in first_error()).
      DMX_CHECK_MSG(!failed, "lock service failed while node "
                                 << self_ << " waited on resource "
                                 << res_.name << "; see first_error()");
      // A repair revived the resource between the wake and this check:
      // keep waiting against the original deadline.
    }
  }
  // The grant just consumed must be the only occupancy of this resource
  // the space can see.
  if (prev_occupancy != 0) {
    set_.record_error("mutual exclusion violated on resource " + res_.name +
                      ": node " + std::to_string(self_) +
                      " entered while occupancy was " +
                      std::to_string(prev_occupancy));
  }
  res_.entries.fetch_add(1, std::memory_order_relaxed);
  // Per-resource lane only; the process-wide "client.wait_ns" is rolled
  // up at snapshot time (GateSet::snapshot), not paid for per entry.
  if (telemetry::sample_1_in_8<telemetry::SampleSite::kClientWait>()) {
    telemetry::observe(res_.wait_ns, grant_ns - wait_started_ns);
  }
  telemetry::count(res_.ok);
  telemetry::FlightRecorder::record_at(grant_ns, telemetry::FlightEvent::kGrant,
                                       resource_, self_);
  return LockError::kOk;
}

bool Gate::unlock() {
  // One clock read ahead of the mutex serves the lease-window check, the
  // hold histogram, and the release/chain flight event.
  const std::uint64_t release_ns = telemetry::now_ns();
  std::uint64_t hold_started_ns = 0;
  bool chained = false;
  int chain_arg = 0;
  int ended_chain = 0;  // lease window closed at this length (0 = none)
  bool yielded_with_waiters = false;
  bool claimed = false;  // this thread owns the strand's activation
  bool woke_parked = false;  // a hand-off woke a thread asleep in lock()
  {
    std::lock_guard<std::mutex> guard(client_mutex_);
    if (!held_) {
      // The node died in its CS and abandon() revoked the hold; the
      // zombie's unlock is a ghost, not an error.
      if (abandoned_) return false;
      DMX_CHECK_MSG(false, "unlock of resource " << res_.name << " on node "
                                                 << self_
                                                 << " which does not hold it");
    }
    held_ = false;
    hold_started_ns = hold_started_ns_;
    hold_started_ns_ = 0;
    // The witness retires only after the held-check passed (a bogus unlock
    // must not drive the counter negative), yet before the release reaches
    // the protocol — after that the next grant may already increment it.
    res_.occupancy.fetch_sub(1);
    // Re-read here: if a repair fenced this world while we held, the
    // release is minted in the NEW epoch and drops itself.
    const Epoch tag = fence.load(std::memory_order_acquire);
    // Local grant chaining: with waiters parked on this node and the
    // lease not exhausted, hand the CS straight to the next one — one
    // condvar wake, zero protocol messages. Never across a fault: a
    // repair fences the holder's world (tag != held_epoch_) before it can
    // defer on this holder, and a chained grant minted just before the
    // fence fails revalidation.
    if (waiting_ > 0 && tag == held_epoch_ &&
        !set_.failed.load(std::memory_order_relaxed) &&
        !unavailable.load(std::memory_order_relaxed)) {
      const LeaseConfig& lease = set_.lease_;
      int chain = chain_len_;
      const bool window_ok = lease.max_hold_ns == 0 ||
                             release_ns - chain_started_ns_ < lease.max_hold_ns;
      bool hand_off = window_ok && lease_chain_allowed(lease, chain);
      if (!hand_off && lease.max_chain != 0 &&
          lease_renewable(lease, res_.algorithm.holder_sees_remote_requests,
                          remote_pending_.load(std::memory_order_relaxed))) {
        // Lease expired but the protocol instance can see that no remote
        // request is pending: renew in place instead of a pointless
        // release/re-request round. Blind algorithms (Maekawa, Central
        // clients) never take this branch, keeping the cap unconditional
        // where remote demand is invisible.
        ended_chain = chain;
        chain = 0;
        chain_started_ns_ = release_ns;
        hand_off = true;
      }
      if (hand_off) {
        chain_len_ = chain + 1;
        chain_arg = chain_len_;
        granted_ = true;
        granted_epoch_ = held_epoch_;
        grant_via_chain_ = true;
        chained = true;
        woke_parked = parked_ > 0;
      }
    }
    if (!chained) {
      ended_chain = chain_len_;
      chain_len_ = 0;
      yielded_with_waiters = waiting_ > 0;
      // Strand FIFO orders the release ahead of the follow-up request,
      // and enqueueing under the client mutex keeps a racing lock() on
      // another thread from slipping its request in between.
      if (strand_.enqueue([this, tag] { release(tag); })) claimed = true;
      if (waiting_ > 0 && !requested_) {
        requested_ = true;
        if (strand_.enqueue([this, tag] { request(tag); })) claimed = true;
      }
    }
  }
  // The strand was idle: release here, off the client mutex, instead of a
  // pool hop. The trampoline may carry the PRIVILEGE on to an idle
  // waiter's strand and run its on_grant here too.
  if (claimed) {
    tl_woke_parked = false;
    strand_.run_claimed();
    woke_parked = tl_woke_parked;
  }
  // Telemetry off the client mutex.
  if (hold_started_ns != 0 &&
      telemetry::sample_1_in_8<telemetry::SampleSite::kClientHold>()) {
    telemetry::observe(set_.hold_hist_, release_ns - hold_started_ns);
  }
  if (ended_chain > 0) {
    telemetry::observe(set_.chain_hist_,
                       static_cast<std::uint64_t>(ended_chain));
  }
  if (chained) {
    client_cv_.notify_all();
    set_.chained_grants_.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kChainGrant, resource_, self_,
        chain_arg);
    if (woke_parked) handoff_yield();
    // No protocol release happened, so no repair deferred on this holder
    // can complete here: such a repair fenced the epoch first, which
    // disables chaining above.
    return false;
  }
  telemetry::FlightRecorder::record_at(
      release_ns, telemetry::FlightEvent::kRelease, resource_, self_);
  if (yielded_with_waiters) {
    set_.lease_yields_.fetch_add(1, std::memory_order_relaxed);
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kLeaseYield, resource_, self_,
        ended_chain);
  }
  if (woke_parked) handoff_yield();
  return true;
}

void Gate::handoff_yield() {
  set_.handoff_yields_.fetch_add(1, std::memory_order_relaxed);
  std::this_thread::yield();
}

bool Gate::holding() {
  std::lock_guard<std::mutex> guard(client_mutex_);
  return held_;
}

int Gate::local_waiters() {
  std::lock_guard<std::mutex> guard(client_mutex_);
  return waiting_;
}

void Gate::wake() {
  // Lock/unlock pairs with each waiter's predicate check so the wake
  // cannot slip between its check and its wait.
  { std::lock_guard<std::mutex> guard(client_mutex_); }
  client_cv_.notify_all();
}

void Gate::mark_unavailable() {
  if (!unavailable.exchange(true, std::memory_order_seq_cst)) {
    unavailable_since_ns.store(telemetry::now_ns(), std::memory_order_relaxed);
    telemetry::FlightRecorder::record(
        telemetry::FlightEvent::kResourceUnavailable, resource_, self_);
  }
}

void Gate::abandon() {
  bool was_held = false;
  {
    std::lock_guard<std::mutex> guard(client_mutex_);
    abandoned_ = true;
    was_held = held_;
    held_ = false;
    granted_ = false;
    requested_ = false;
    chain_len_ = 0;
    grant_via_chain_ = false;
  }
  // The node died inside its CS: the occupancy witness retires with it
  // (the repair will re-mint the token among the survivors).
  if (was_held) res_.occupancy.fetch_sub(1);
  client_cv_.notify_all();  // local waiters wake and see the dead node
}

// --- GateSet ----------------------------------------------------------------

GateSet::GateSet(int n, LeaseConfig lease, unsigned jitter_us,
                 exec::ExecutorConfig executor)
    : n_(n), lease_(lease), jitter_us_(jitter_us), executor_(executor) {
  auto& registry = telemetry::Registry::global();
  hold_hist_ = registry.histogram("client.hold_ns");
  chain_hist_ = registry.histogram("client.chain_len");
  repair_hist_ = registry.histogram("fault.repair_ns");
  unavail_hist_ = registry.histogram("fault.unavail_window_ns");
}

GateResource& GateSet::add_resource(const std::string& name,
                                    const proto::Algorithm& algorithm,
                                    NodeId home) {
  auto res = std::make_unique<GateResource>();
  res->name = name;
  res->algorithm = algorithm;
  res->home = proto::initial_holder(algorithm, home);
  // Resolved here in cold code; the lock/unlock hot paths then record
  // through plain ids.
  auto& registry = telemetry::Registry::global();
  res->wait_ns = registry.histogram("client.wait_ns." + name);
  res->ok = registry.counter("client.ok." + name);
  res->timeouts = registry.counter("client.timeout." + name);
  res->unavailable_count = registry.counter("client.unavailable." + name);
  for (const std::string& kind : algorithm.token_message_kinds) {
    res->token_kinds.push_back(net::MessageKind::of(kind));
  }
  resources_.push_back(std::move(res));
  return *resources_.back();
}

Gate& GateSet::add_gate(GateHost& host, ResourceId r, NodeId self,
                        std::uint64_t seed,
                        std::unique_ptr<proto::MutexNode> node) {
  gates_.push_back(std::make_unique<Gate>(*this, host, resource(r), r, self,
                                          seed, std::move(node)));
  return *gates_.back();
}

std::uint64_t GateSet::total_entries() const {
  std::uint64_t sum = 0;
  for (const auto& res : resources_) {
    sum += res->entries.load(std::memory_order_relaxed);
  }
  return sum;
}

void GateSet::record_error(const std::string& what) {
  std::lock_guard<std::mutex> guard(error_mutex_);
  if (!first_error_.has_value()) first_error_ = what;
}

void GateSet::fail(const std::string& what) {
  record_error(what);
  failed.store(true, std::memory_order_seq_cst);
  for (auto& gate : gates_) gate->wake();
}

std::optional<std::string> GateSet::first_error() const {
  std::lock_guard<std::mutex> guard(error_mutex_);
  return first_error_;
}

telemetry::MetricsSnapshot GateSet::snapshot() const {
  telemetry::MetricsSnapshot snap = telemetry::Registry::global().snapshot();
  const exec::ExecutorStats stats = executor_.stats();
  snap.set_counter("exec.tasks_executed", stats.tasks_executed);
  snap.set_counter("exec.steals", stats.steals);
  snap.set_counter("exec.parks", stats.parks);
  snap.set_counter("exec.injector_polls", stats.injector_polls);
  snap.set_counter("client.chained_grants", chained_grants());
  snap.set_counter("client.lease_yields", lease_yields());
  snap.set_counter("client.parked_waits",
                   parked_waits_.load(std::memory_order_relaxed));
  snap.set_counter("client.handoff_yields",
                   handoff_yields_.load(std::memory_order_relaxed));
  // The hot path records wait time on the per-resource lane only; fold
  // the lanes into the process-wide view here, in cold code.
  snap.roll_up("client.wait_ns");
  return snap;
}

}  // namespace dmx::service
