// Closed-loop multi-resource workload over a LockSpace.
//
// Each node runs `clients_per_node` independent client loops: pick a
// resource by Zipfian popularity (rank r gets probability ~ 1/r^s; s = 0
// is uniform), acquire it, hold, release, think, repeat. Contention skew
// across resources is the new workload axis a multi-resource service
// opens: s ~ 1 concentrates traffic on a few hot locks (the realistic
// regime), s = 0 spreads it evenly (the scaling regime).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "service/lock_space.hpp"

namespace dmx::service {

/// Deterministic Zipf(s) sampler over ranks 0..m-1 (rank 0 hottest).
/// Inverse-CDF on a precomputed table; O(log m) per sample.
class ZipfSampler {
 public:
  ZipfSampler(int m, double s);

  /// Draws a rank in [0, m) using `rng`.
  int sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

struct SpaceWorkloadConfig {
  /// Total CS entries to complete across all resources and nodes.
  std::uint64_t target_entries = 1000;
  /// Independent client loops per node; each holds at most one lock at a
  /// time, so a node can have up to this many resources locked at once.
  int clients_per_node = 1;
  /// Zipf skew of resource popularity (0 = uniform).
  double zipf_s = 0.0;
  /// Mean exponential think time between release and the next acquire;
  /// 0 means immediate re-acquire (saturation).
  double mean_think_ticks = 0.0;
  /// CS hold time drawn uniformly from [hold_lo, hold_hi].
  Tick hold_lo = 0;
  Tick hold_hi = 0;
  std::uint64_t seed = 42;
  /// When true, a client keeps its Zipf draw even if the node already has
  /// that resource outstanding — the acquire queues locally, forming the
  /// co-located waiter chains the lease policy serves. When false a busy
  /// draw falls through to the next rank (local queues never form).
  bool queue_local = false;
};

struct SpaceWorkloadResult {
  std::uint64_t entries = 0;
  std::uint64_t messages = 0;
  double messages_per_entry = 0.0;
  Tick makespan = 0;
  /// Aggregate virtual-time throughput: entries per 1000 ticks. The
  /// multi-resource scaling metric — independent resources admit
  /// concurrent critical sections, so this grows with resource count
  /// while a single resource is pinned near 1/handoff-latency.
  double entries_per_kilotick = 0.0;
  /// Completed entries per resource, indexed by ResourceId.
  std::vector<std::uint64_t> entries_by_resource;
  /// Longest acquire-to-grant wait any client experienced, in virtual
  /// ticks — the bounded-waiting observable: with a finite lease cap it
  /// stays bounded; an unbounded chain starves a remote waiter and this
  /// grows toward the makespan.
  Tick max_wait_ticks = 0;
};

/// Drives `space` (with every resource already opened) until
/// `target_entries` complete, then drains to quiescence. Resets network
/// counters at the start so the result covers only this workload.
SpaceWorkloadResult run_space_workload(LockSpace& space,
                                       const SpaceWorkloadConfig& config);

}  // namespace dmx::service
