// Substrate-independent protocol interface.
//
// Every mutual-exclusion algorithm in this repository is written as a pure
// event-driven state machine (a MutexNode per participant) that talks to
// the outside world only through a Context. The same protocol code then
// runs unchanged on the deterministic simulator (src/harness, src/service
// LockSpace), on threads (service::ThreadedLockSpace) and on one process
// per node over TCP (transport::DistributedLockSpace). That is the
// substitution argument: a handler sees only its Context and the messages
// it receives, never which substrate carries them, so every property the
// simulator, the explorer and the swarm establish for the handlers holds
// for the same handlers on real threads and sockets — up to the
// substrate's own promises (per-channel FIFO delivery, one handler of a
// node at a time), which each substrate keeps.
//
// Protocol contract (mirrors the paper's Chapter 2 assumptions):
//  * request_cs() may only be called when the node is neither waiting for
//    nor inside its critical section (at most one outstanding request).
//  * The protocol calls Context::grant() exactly once per request_cs(),
//    possibly synchronously from within request_cs() or from on_message().
//  * release_cs() may only be called after the grant, when the application
//    leaves its critical section.
//  * Handlers run under per-node local mutual exclusion (the substrate
//    guarantees no two handlers of one node run concurrently).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"

namespace dmx::proto {

/// The protocol's window to the world, implemented by each substrate.
class Context {
 public:
  virtual ~Context() = default;

  /// This node's identifier (1..N).
  virtual NodeId self() const = 0;

  /// Number of nodes in the system.
  virtual int cluster_size() const = 0;

  /// Sends a protocol message to another node (reliable, per-channel FIFO).
  virtual void send(NodeId to, net::MessagePtr message) = 0;

  /// Reports that the pending critical-section request is granted. The
  /// application is considered inside its critical section from this call
  /// until it invokes release_cs().
  virtual void grant() = 0;
};

/// One participant in a mutual-exclusion protocol.
class MutexNode {
 public:
  virtual ~MutexNode() = default;

  /// The application wants to enter its critical section.
  virtual void request_cs(Context& ctx) = 0;

  /// The application leaves its critical section.
  virtual void release_cs(Context& ctx) = 0;

  /// A protocol message arrived from `from`.
  virtual void on_message(Context& ctx, NodeId from,
                          const net::Message& message) = 0;

  /// True iff this node currently possesses the system-wide token,
  /// including while executing its critical section. Assertion-based
  /// algorithms (which have no token) always return false.
  virtual bool has_token() const = 0;

  /// True iff a request from ANOTHER node is pending at this one: queued
  /// behind this node's token/grant (FOLLOW set, a non-self queue entry, a
  /// deferred reply owed, an unanswered INQUIRE, ...). Own requests never
  /// count. Service layers consult this on the release path — a lease
  /// chain ends early when the holder can see a remote waiter — and it is
  /// only guaranteed meaningful at a node that currently holds the token
  /// or the grant; see Algorithm::holder_sees_remote_requests for whether
  /// a holder is guaranteed to observe remote interest at all.
  virtual bool has_remote_request() const = 0;

  /// Resident protocol state in bytes, accounted the way §6.4 does:
  /// semantic variable sizes (bool=1, int=4) plus current dynamic
  /// structures (queues, arrays). Used by the storage-overhead bench.
  virtual std::size_t state_bytes() const = 0;

  /// One-line rendering of the protocol variables, for traces and the
  /// paper-example tests (e.g. "HOLDING=f NEXT=2 FOLLOW=0").
  virtual std::string debug_state() const = 0;

  /// Compact canonical serialization of the protocol variables. Two nodes
  /// of the same class with equal protocol state produce byte-identical
  /// blobs — the schedule explorer (src/modelcheck) deduplicates system
  /// states on these, so members that are only meaningful under a guard
  /// (e.g. a token payload held only while has_token()) must be normalized
  /// when inactive. Classes that keep identity fields (self id, cluster
  /// size) include them and verify them on restore; identity-free classes
  /// (NeilsenNode keeps only the paper's three variables) accept any
  /// well-formed blob of the same class.
  virtual std::string snapshot() const = 0;

  /// Restores this node to the state captured by snapshot() on a node of
  /// the same class and identity. The restored node runs the exact same
  /// handler code as a live node — this is what lets the model checker
  /// explore the production implementation rather than a re-model.
  virtual void restore(std::string_view blob) = 0;
};

}  // namespace dmx::proto
