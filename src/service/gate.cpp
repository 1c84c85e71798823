#include "service/gate.hpp"

#include <stdexcept>
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
      strand_(set.executor_ ? &*set.executor_ : nullptr),
      node_(std::move(node)), rng_(seed),
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
    want = core_.rerequest();
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
    hand_off = core_.grant(epoch_);
    if (hand_off && parked_ > 0) tl_woke_parked = true;
  }
  if (hand_off) {
    if (set_.sink_ != nullptr) {
      enter_inline();
    } else {
      client_cv_.notify_all();
    }
    return;
  }
  // Nobody will consume this grant: every waiter timed out or gave up.
  // Hand the CS straight back so the resource keeps flowing.
  const Epoch tag = epoch_;  // on_grant runs on the strand
  strand_.post([this, tag] { release(tag); });
}

void Gate::enter_inline() {
  {
    std::lock_guard<std::mutex> guard(client_mutex_);
    // Sim time is not wall time: the inline shell's lease has no hold
    // window, so the core needs no clock.
    if (!core_.consume(fence.load(std::memory_order_acquire), 0)) return;
    res_.occupancy.fetch_add(1);
  }
  res_.entries.fetch_add(1, std::memory_order_relaxed);
  set_.sink_->entered(resource_, self_);
}

void Gate::acquire_inline() {
  bool claimed = false;
  {
    std::lock_guard<std::mutex> guard(client_mutex_);
    if (core_.arrive().request) {
      const Epoch tag = fence.load(std::memory_order_acquire);
      claimed = strand_.enqueue([this, tag] { request(tag); });
    }
  }
  if (claimed) strand_.run_claimed();
}

void Gate::drop_waiters() {
  std::lock_guard<std::mutex> guard(client_mutex_);
  core_.leave_all();
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
    const AcquireCore::Arrival arrival = core_.arrive();
    const std::uint64_t ticket = arrival.ticket;
    // No grant is coming: the space failed, or the resource is dead at
    // this node.
    const auto doomed = [this] {
      return set_.failed.load(std::memory_order_relaxed) ||
             unavailable.load(std::memory_order_relaxed);
    };
    if (arrival.request) {
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
      return core_.ready(ticket) || doomed();
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
        core_.leave(ticket);
        guard.unlock();
        // The waiter behind us is the new front; a pending grant it was
        // fenced off may now be its to consume.
        client_cv_.notify_all();
        telemetry::count(res_.timeouts);
        telemetry::FlightRecorder::record(telemetry::FlightEvent::kTimeout,
                                          resource_, self_);
        return LockError::kTimeout;
      }
      if (core_.ready(ticket)) {
        // One clock read serves three consumers: the hold-time stamp, the
        // wait histogram, and the grant flight event.
        grant_ns = telemetry::now_ns();
        // A grant from a world a repair has since fenced is discarded;
        // the repair's re-request covers us, so keep waiting.
        if (!core_.consume(fence.load(std::memory_order_acquire), grant_ns)) {
          continue;
        }
        // Exclusivity witness, counted under the client mutex so that an
        // abandon() racing this entry retires only what it counted.
        prev_occupancy = res_.occupancy.fetch_add(1);
        break;
      }
      const bool dead = unavailable.load(std::memory_order_relaxed);
      const bool failed = set_.failed.load(std::memory_order_relaxed);
      if (dead || failed) core_.leave(ticket);
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
  // The inline shell runs in sim time: no wall clock, no telemetry.
  const bool inline_shell = set_.sink_ != nullptr;
  // One clock read ahead of the mutex serves the lease-window check, the
  // hold histogram, and the release/chain flight event.
  const std::uint64_t release_ns = inline_shell ? 0 : telemetry::now_ns();
  AcquireCore::Release out;
  bool claimed = false;  // this thread owns the strand's activation
  bool woke_parked = false;  // a hand-off woke a thread asleep in lock()
  {
    std::lock_guard<std::mutex> guard(client_mutex_);
    // Read here: if a repair fenced this world while we held, the release
    // is minted in the NEW epoch and drops itself, and nothing chains.
    const Epoch tag = fence.load(std::memory_order_acquire);
    // The chaining inputs matter only with waiters queued; the common
    // uncontended unlock skips their loads.
    const bool queued = core_.waiters() > 0;
    out = core_.release(
        release_ns, tag,
        queued && (set_.failed.load(std::memory_order_relaxed) ||
                   unavailable.load(std::memory_order_relaxed)),
        set_.lease_, res_.algorithm.holder_sees_remote_requests,
        queued && remote_pending_.load(std::memory_order_relaxed));
    // The node died in its CS and abandon() revoked the hold; the
    // zombie's unlock is a ghost, not an error.
    if (out.kind == AcquireCore::Release::Kind::kGhost) return false;
    DMX_CHECK_MSG(out.kind != AcquireCore::Release::Kind::kNotHeld,
                  "unlock of resource " << res_.name << " on node " << self_
                                        << " which does not hold it");
    // The witness retires only after the held-check passed (a bogus unlock
    // must not drive the counter negative), yet before the release reaches
    // the protocol — after that the next grant may already increment it.
    res_.occupancy.fetch_sub(1);
    if (out.kind == AcquireCore::Release::Kind::kChained) {
      woke_parked = parked_ > 0;
    } else {
      // Strand FIFO orders the release ahead of the follow-up request,
      // and enqueueing under the client mutex keeps a racing lock() on
      // another thread from slipping its request in between.
      if (strand_.enqueue([this, tag] { release(tag); })) claimed = true;
      if (out.request && strand_.enqueue([this, tag] { request(tag); })) {
        claimed = true;
      }
    }
  }
  const bool chained = out.kind == AcquireCore::Release::Kind::kChained;
  if (chained) set_.chained_grants_.fetch_add(1, std::memory_order_relaxed);
  if (out.yielded_with_waiters) {
    set_.lease_yields_.fetch_add(1, std::memory_order_relaxed);
  }
  if (inline_shell) {
    if (claimed) strand_.run_claimed();
    if (chained) enter_inline();
    return !chained;
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
  if (out.hold_started_ns != 0 &&
      telemetry::sample_1_in_8<telemetry::SampleSite::kClientHold>()) {
    telemetry::observe(set_.hold_hist_, release_ns - out.hold_started_ns);
  }
  if (out.ended_chain > 0) {
    telemetry::observe(set_.chain_hist_,
                       static_cast<std::uint64_t>(out.ended_chain));
  }
  if (chained) {
    client_cv_.notify_all();
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kChainGrant, resource_, self_,
        out.chain_len);
    if (woke_parked) handoff_yield();
    // No protocol release happened, so no repair deferred on this holder
    // can complete here: such a repair fenced the epoch first, which
    // disables chaining above.
    return false;
  }
  telemetry::FlightRecorder::record_at(
      release_ns, telemetry::FlightEvent::kRelease, resource_, self_);
  if (out.yielded_with_waiters) {
    telemetry::FlightRecorder::record_at(
        release_ns, telemetry::FlightEvent::kLeaseYield, resource_, self_,
        out.ended_chain);
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
  return core_.holding();
}

int Gate::local_waiters() {
  std::lock_guard<std::mutex> guard(client_mutex_);
  return core_.waiters();
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
    was_held = core_.abandon();
  }
  // The node died inside its CS: the occupancy witness retires with it
  // (the repair will re-mint the token among the survivors).
  if (was_held) res_.occupancy.fetch_sub(1);
  client_cv_.notify_all();  // local waiters wake and see the dead node
}

// --- GateSet ----------------------------------------------------------------

GateSet::GateSet(int n, LeaseConfig lease, unsigned jitter_us,
                 exec::ExecutorConfig executor)
    : GateSet(n, lease, jitter_us, nullptr) {
  executor_.emplace(executor);
}

GateSet::GateSet(int n, LeaseConfig lease, GrantSink& sink)
    : GateSet(n, lease, /*jitter_us=*/0, &sink) {}

GateSet::GateSet(int n, LeaseConfig lease, unsigned jitter_us,
                 GrantSink* sink)
    : n_(n), lease_(lease), jitter_us_(jitter_us), sink_(sink) {
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
  // through plain ids. The inline shell records none of them.
  if (sink_ == nullptr) {
    auto& registry = telemetry::Registry::global();
    res->wait_ns = registry.histogram("client.wait_ns." + name);
    res->ok = registry.counter("client.ok." + name);
    res->timeouts = registry.counter("client.timeout." + name);
    res->unavailable_count = registry.counter("client.unavailable." + name);
  }
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
  if (sink_ != nullptr) throw std::logic_error(what);
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
  const exec::ExecutorStats stats = executor_->stats();
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
