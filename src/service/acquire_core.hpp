// The acquire core: the paper's one-outstanding-request rule for one
// (resource, node) pair, with the local waiter queue and lease chaining on
// top, as a plain state machine with no threads, clocks or locks.
//
// The first local waiter requests; later ones queue behind it and consume
// grants strictly in arrival (ticket) order. A release that finds local
// waiters may hand the critical section straight to the next one under a
// bounded lease (service/lease.hpp) instead of a protocol round. A grant
// is revalidated against the caller's fence when consumed: one from a
// world a repair has since fenced is discarded, never entered.
//
// Each call takes the outside world as arguments (time, fence, the
// protocol's remote-request hint) and returns what the caller must do
// next: issue a request or release on the strand, wake waiters, or hand
// off. service::Gate drives it under its client mutex, from its condvar
// shell (application threads) or its inline shell (the sim).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "exec/ring.hpp"
#include "service/lease.hpp"

namespace dmx::service {

class AcquireCore {
 public:
  /// A new waiter's ticket, and whether the caller must issue the node's
  /// protocol request for it.
  struct Arrival {
    std::uint64_t ticket = 0;
    bool request = false;
  };

  /// What a release must do next.
  struct Release {
    enum class Kind : std::uint8_t {
      /// Nothing is held: a caller bug, unless the hold was abandoned.
      kNotHeld,
      /// abandon() revoked the hold; the dead holder's unlock is a ghost.
      kGhost,
      /// The CS went to the next local waiter (a pending chained grant).
      kChained,
      /// Release into the protocol.
      kReleased,
    };
    Kind kind = Kind::kNotHeld;
    /// kReleased: also request for the waiters left behind.
    bool request = false;
    /// kReleased with waiters still queued (a lease yield).
    bool yielded_with_waiters = false;
    /// Lease window closed at this chain length (0 = none closed).
    int ended_chain = 0;
    /// kChained: the chain length after this hand-off.
    int chain_len = 0;
    std::uint64_t hold_started_ns = 0;
  };

  Arrival arrive();
  /// Whether `ticket` may consume the pending grant now.
  bool ready(std::uint64_t ticket) const {
    return granted_ && fifo_.front() == ticket;
  }
  /// Consumes the pending grant for the front (ready) ticket. False: the
  /// grant's world is not the one fenced at `fence`; it is discarded and
  /// the ticket keeps waiting for the repair's re-request.
  bool consume(Epoch fence, std::uint64_t now_ns);
  /// `ticket` stops waiting; a pending grant stays for the ticket behind.
  void leave(std::uint64_t ticket);
  /// Drops every ticket (a node that died with no thread left to wake).
  void leave_all();

  /// A protocol grant minted in world `epoch`. True: a waiter will
  /// consume it. False: nobody waits; the caller releases it back.
  bool grant(Epoch epoch);
  /// Behind a world reset: whether the node must request again.
  bool rerequest();

  /// Leaves the critical section at `now_ns`. `blocked`: the space failed
  /// or the resource is unavailable. The last two arguments are the
  /// algorithm's holder-visibility guarantee and the protocol's
  /// has_remote_request() hint (see lease.hpp).
  Release release(std::uint64_t now_ns, Epoch fence, bool blocked,
                  const LeaseConfig& lease, bool holder_sees_remote,
                  bool remote_pending);

  /// The node died in place: revokes the hold, any pending grant and the
  /// request; returns whether a hold was revoked.
  bool abandon();

  bool holding() const { return held_; }
  int waiters() const { return waiting_; }

 private:
  int waiting_ = 0;
  bool requested_ = false;
  /// A grant (protocol or chained) is pending, minted in granted_epoch_.
  bool granted_ = false;
  Epoch granted_epoch_ = 0;
  /// The pending grant rode the local chain (its lease window stays open).
  bool grant_via_chain_ = false;
  exec::Ring<std::uint64_t> fifo_;  // waiters' tickets, arrival order
  std::uint64_t ticket_seq_ = 0;
  bool held_ = false;
  /// The holder's grant's world; a release chains only while the fence
  /// still matches it (no repair since).
  Epoch held_epoch_ = 0;
  bool abandoned_ = false;
  std::uint64_t hold_started_ns_ = 0;
  /// Local hand-offs in the current lease window, and when it opened.
  int chain_len_ = 0;
  std::uint64_t chain_started_ns_ = 0;
};

}  // namespace dmx::service
