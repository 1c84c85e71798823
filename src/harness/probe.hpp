// Single-entry measurement probes over one resource of a sim LockSpace.
//
// Chapter 6 states per-entry message counts for specific placements of the
// requester and the token (e.g. "requesting node and sink node at opposite
// ends of the longest path"). A probe quiesces the system, optionally
// parks the token at a chosen node, zeroes the network counters, performs
// exactly one request/enter/release cycle and reports what it cost.
#pragma once

#include <functional>

#include "common/types.hpp"
#include "service/lock_space.hpp"

namespace dmx::harness {

struct ProbeResult {
  /// Messages sent from the request until the node entered its CS.
  std::uint64_t messages_to_enter = 0;
  /// Messages sent from the request until the system quiesced after the
  /// release (includes release-time traffic such as RELEASE broadcasts —
  /// the paper accounts these to the entry too).
  std::uint64_t messages_total = 0;
  /// Virtual ticks from request to entry (with unit latency: sequential
  /// message hops on the critical path).
  Tick ticks_to_enter = 0;
};

/// Node `v` requests resource `r`, holds the CS for `hold_ticks` once
/// entered, then releases; `after_release` (optional) fires after the
/// release.
void hold_and_release(service::LockSpace& space, ResourceId r, NodeId v,
                      Tick hold_ticks,
                      std::function<void(NodeId)> after_release = nullptr);

/// Parks `r`'s token at `target` by running one uncounted entry/release
/// cycle there and draining the system. For assertion-based algorithms
/// this simply makes `target` the most recent entrant (which is the
/// analogous "favourable placement" notion, e.g. for Carvalho–Roucairol's
/// retained permissions).
void park_token_at(service::LockSpace& space, ResourceId r, NodeId target);

/// Runs one complete measured entry of `r` from `requester`, holding the
/// CS for `hold_ticks`. The system must be quiescent (no outstanding
/// requests).
ProbeResult single_entry_probe(service::LockSpace& space, ResourceId r,
                               NodeId requester, Tick hold_ticks = 0);

}  // namespace dmx::harness
