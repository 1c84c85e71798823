#include "service/acquire_core.hpp"

namespace dmx::service {

AcquireCore::Arrival AcquireCore::arrive() {
  Arrival arrival;
  ++waiting_;
  arrival.ticket = ticket_seq_++;
  fifo_.push(arrival.ticket);
  // One protocol request at a time: later waiters ride local hand-off
  // (the release enqueues the next request once the holder leaves). A
  // pending grant counts as held: the protocol is still inside its
  // critical section, so a request now would only be discarded.
  if (!requested_ && !held_ && !granted_) {
    requested_ = true;
    arrival.request = true;
  }
  return arrival;
}

bool AcquireCore::consume(Epoch fence, std::uint64_t now_ns) {
  // A repair may have fenced the world this grant came from; the
  // regenerated token supersedes it and entering would break exclusion.
  if (granted_epoch_ != fence) {
    granted_ = false;
    return false;
  }
  granted_ = false;
  requested_ = false;
  --waiting_;
  fifo_.pop();
  held_ = true;
  held_epoch_ = granted_epoch_;
  hold_started_ns_ = now_ns;
  if (grant_via_chain_) {
    grant_via_chain_ = false;  // window stays open, length counted
  } else {
    chain_len_ = 0;  // a fresh protocol grant opens a fresh window
    chain_started_ns_ = now_ns;
  }
  return true;
}

void AcquireCore::leave(std::uint64_t ticket) {
  --waiting_;
  fifo_.erase(ticket);
}

void AcquireCore::leave_all() {
  waiting_ = 0;
  while (!fifo_.empty()) fifo_.pop();
}

bool AcquireCore::grant(Epoch epoch) {
  if (waiting_ > 0) {
    granted_ = true;
    granted_epoch_ = epoch;
    grant_via_chain_ = false;
    return true;
  }
  requested_ = false;
  return false;
}

bool AcquireCore::rerequest() {
  requested_ = requested_ || waiting_ > 0;
  return requested_;
}

AcquireCore::Release AcquireCore::release(std::uint64_t now_ns, Epoch fence,
                                          bool blocked,
                                          const LeaseConfig& lease,
                                          bool holder_sees_remote,
                                          bool remote_pending) {
  Release out;
  if (!held_) {
    out.kind = abandoned_ ? Release::Kind::kGhost : Release::Kind::kNotHeld;
    return out;
  }
  held_ = false;
  out.hold_started_ns = hold_started_ns_;
  hold_started_ns_ = 0;
  // Local grant chaining: with waiters queued and the lease not
  // exhausted, hand the CS straight to the next one — zero protocol
  // messages. Never across a fault: a repair fences the holder's world
  // (fence != held_epoch_) before it can defer on this holder.
  if (waiting_ > 0 && fence == held_epoch_ && !blocked) {
    int chain = chain_len_;
    const bool window_ok = lease.max_hold_ns == 0 ||
                           now_ns - chain_started_ns_ < lease.max_hold_ns;
    bool hand_off = window_ok && lease_chain_allowed(lease, chain);
    if (!hand_off && lease.max_chain != 0 &&
        lease_renewable(lease, holder_sees_remote, remote_pending)) {
      // Lease expired but the protocol instance can see that no remote
      // request is pending: renew in place instead of a pointless
      // release/re-request round. Blind algorithms (Maekawa, Central
      // clients) never take this branch, keeping the cap unconditional
      // where remote demand is invisible.
      out.ended_chain = chain;
      chain = 0;
      chain_started_ns_ = now_ns;
      hand_off = true;
    }
    if (hand_off) {
      chain_len_ = chain + 1;
      out.chain_len = chain_len_;
      granted_ = true;
      granted_epoch_ = held_epoch_;
      grant_via_chain_ = true;
      out.kind = Release::Kind::kChained;
      return out;
    }
  }
  out.kind = Release::Kind::kReleased;
  out.ended_chain = chain_len_;
  chain_len_ = 0;
  out.yielded_with_waiters = waiting_ > 0;
  if (waiting_ > 0 && !requested_) {
    requested_ = true;
    out.request = true;
  }
  return out;
}

bool AcquireCore::abandon() {
  abandoned_ = true;
  const bool was_held = held_;
  held_ = false;
  granted_ = false;
  requested_ = false;
  chain_len_ = 0;
  grant_via_chain_ = false;
  return was_held;
}

}  // namespace dmx::service
