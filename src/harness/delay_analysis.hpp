// Post-hoc analysis of the CS event log.
//
// Synchronization delay (§6.3) is "the number of sequential messages
// required after a node I leaves its critical section before a node J can
// enter its critical section", measured only when J was already blocked
// waiting when I exited. With unit link latency, ticks equal sequential
// messages, so we extract exit→next-enter tick gaps from the event log.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "metrics/summary.hpp"

namespace dmx::harness {

/// Application-level critical-section events of one resource. Drivers
/// record them from their own acquire callbacks and release calls (see
/// workload::run_workload).
struct CsEvent {
  enum class Kind { kRequest, kEnter, kExit };
  Tick at = 0;
  NodeId node = kNilNode;
  Kind kind = Kind::kRequest;
};

/// Waiting time (request → enter) per entry.
metrics::Summary waiting_times(const std::vector<CsEvent>& events);

/// Synchronization delay samples: for each exit followed by an entry of a
/// node whose request predated the exit, the tick gap between them.
metrics::Summary synchronization_delays(const std::vector<CsEvent>& events);

/// Bypass counts: for each completed entry, how many LATER-requesting
/// nodes entered the critical section first. 0 everywhere = perfectly
/// FIFO by request time. Quantifies the fairness beyond the paper's
/// starvation-freedom theorem.
metrics::Summary bypass_counts(const std::vector<CsEvent>& events);

/// Entries per node, for fairness indices (index = node id, [0] unused).
std::vector<double> entries_per_node(const std::vector<CsEvent>& events,
                                     int n);

}  // namespace dmx::harness
