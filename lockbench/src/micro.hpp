// Layer probes of the traced run: microbenches that each drive one layer
// through its public functions in isolation, and the exact-count sim
// probe of the protocol. They feed per-layer metrics only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace lockbench {

/// Exact virtual-time counts of one sim probe run: sim LockSpace, 8 nodes
/// x 4 closed-loop clients, 64 Zipf-0.99 resources, hold 0-2 ticks, a
/// fixed number of entries. Identical for every run with the same seed.
struct SimCounts {
  std::uint64_t entries = 0;
  std::uint64_t makespan_ticks = 0;
  std::uint64_t messages = 0;
  std::uint64_t request_msgs = 0;
  std::uint64_t token_msgs = 0;
  std::uint64_t events = 0;
  std::uint64_t wait_ticks_sum = 0;
  std::uint64_t max_wait_ticks = 0;

  bool operator==(const SimCounts&) const = default;
};

struct MicroResults {
  double hop_idle_us = 0.0;      // Strand post -> run, otherwise idle pool
  double hop_busy_us = 0.0;      // the same hop behind a saturated pool
  double gate_ns = 0.0;          // uncontended lock+unlock, token at caller
  double encode_ns = 0.0;        // one Neilsen frame, REQUEST/PRIVILEGE mix
  double decode_ns = 0.0;
  double rtt_us = 0.0;           // one frame round trip, two EventLoops
  double sim_ns_per_event = 0.0; // Simulator schedule + dispatch
  double pool_ns = 0.0;          // MessagePool allocate + free
  SimCounts sim;
};

/// Labels of the microbench spans, indexed by Span::label.
const std::vector<std::string>& micro_labels();

/// Runs the sim probe twice (throwing std::runtime_error if a check fails
/// or the two runs differ) and every microbench once, about two seconds
/// in all; inputs derive from `seed`. Each timed microbench batch is
/// recorded as a span in `spans`.
MicroResults run_microbenches(std::uint64_t seed, SpanStats& spans);

}  // namespace lockbench
