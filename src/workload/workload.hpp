// Closed-loop workload generator.
//
// Each participant cycles request → hold CS → release → think → repeat.
// Think time 0 (with a 1-tick floor to let virtual time advance) gives the
// paper's "heavy demand" regime; large think times give light load where
// at most one request is typically outstanding (the regime of the §6.2
// average-bound analysis).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "harness/delay_analysis.hpp"
#include "metrics/summary.hpp"
#include "service/lock_space.hpp"

namespace dmx::workload {

struct WorkloadConfig {
  /// Total CS entries to complete across all participants.
  std::uint64_t target_entries = 1000;
  /// Mean of the exponential think time between release and the next
  /// request; 0 means immediate re-request (saturation).
  double mean_think_ticks = 0.0;
  /// CS hold time drawn uniformly from [hold_lo, hold_hi].
  Tick hold_lo = 0;
  Tick hold_hi = 0;
  /// Nodes that issue requests; empty means every node.
  std::vector<NodeId> participants;
  std::uint64_t seed = 42;
};

struct WorkloadResult {
  std::uint64_t entries = 0;
  std::uint64_t messages = 0;
  double messages_per_entry = 0.0;
  metrics::Summary waiting_ticks;
  metrics::Summary sync_delay_ticks;
  Tick makespan = 0;
  /// The run's request/enter/exit log, in virtual-time order.
  std::vector<harness::CsEvent> events;
};

/// Drives resource `r` of `space` until `target_entries` complete, then
/// drains. Resets network counters at the start so the result covers only
/// this workload.
WorkloadResult run_workload(service::LockSpace& space, ResourceId r,
                            const WorkloadConfig& config);

}  // namespace dmx::workload
