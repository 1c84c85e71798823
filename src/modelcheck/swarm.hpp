// Deterministic seeded swarm tester — randomized schedule exploration for
// system sizes the exhaustive explorer cannot reach.
//
// One seed fully determines one run: topology (for tree algorithms),
// per-message adversarial latency (uniform in a configurable band, which
// permutes delivery order across channels), workload think/hold times,
// and any fault injection. The same universal and per-algorithm
// invariants the explorer checks (modelcheck/invariants.hpp) are
// re-checked after EVERY simulator event, and the full network event
// stream is folded into a trace hash so regressions in schedule
// randomization are detectable: same seed ⇒ same hash, bit for bit.
//
// With fault injection off, a run must complete cleanly and every request
// must be granted (bounded waiting is witnessed by max_wait_ticks). With
// drop/duplicate injection on, the run must instead END IN A DETECTED
// failure — a token-uniqueness violation, a protocol assertion, or a
// stalled workload — never in silent mis-execution.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "fault/fault_plan.hpp"
#include "proto/algorithm.hpp"
#include "service/lease.hpp"

namespace dmx::modelcheck {

struct SwarmConfig {
  /// The algorithm under test (must outlive the run).
  const proto::Algorithm* algorithm = nullptr;
  int n = 8;
  /// Master seed: everything random in the run derives from it.
  std::uint64_t seed = 1;
  /// Topology family for tree algorithms (ignored otherwise). kRandom
  /// draws a fresh labelled tree from the seed.
  enum class Topology { kLine, kStar, kRandom } topology = Topology::kRandom;
  NodeId initial_token_holder = 1;
  /// Total CS entries to complete across all nodes.
  std::uint64_t target_entries = 40;
  /// Adversarial latency band: each message's latency is uniform in
  /// [latency_lo, latency_hi], reshuffling cross-channel delivery order.
  Tick latency_lo = 1;
  Tick latency_hi = 16;
  /// Workload shape (exponential think, uniform hold).
  double mean_think_ticks = 2.0;
  Tick hold_lo = 0;
  Tick hold_hi = 3;
  /// Fault injection (defaults off). With either enabled the run is
  /// expected to fail detectably.
  double drop_probability = 0.0;
  /// One-shot duplication of the next message of this kind ("" = off).
  std::string duplicate_next_kind;
  /// Crash/recovery schedule in virtual time. A non-empty plan runs the
  /// multi-resource workload (even over one resource) so the
  /// crash-repair machinery — detection, election, regeneration, epoch
  /// fencing — is under the swarm's per-event invariant microscope. With
  /// `crash_recovery_enabled` the run must still complete green; with it
  /// off, a token-holder crash must end in a DETECTED token loss.
  fault::FaultPlan fault_plan;
  bool crash_recovery_enabled = true;
  /// Failure-detection timeout for crash repairs (virtual ticks).
  Tick detect_after = 25;
  /// Multi-resource mode: > 1 runs the schedule against this many named
  /// resources of the service::LockSpace over one network, with
  /// CS exclusivity and token uniqueness checked PER RESOURCE (plus the
  /// per-algorithm structural hooks, per resource) after every event.
  /// Cross-resource interleavings — envelopes of many resources racing on
  /// the same channels — are exactly what single-resource swarms can
  /// never explore.
  int resources = 1;
  /// Zipf skew of resource popularity in multi-resource mode (0=uniform).
  double zipf_s = 0.0;
  /// Client loops per node in multi-resource mode.
  int clients_per_node = 1;
  /// Multi-resource mode: clients keep their Zipf draw even when the node
  /// already has that resource outstanding, so acquires queue locally and
  /// co-located waiter chains form — the precondition for lease chaining.
  bool queue_local = false;
  /// Local grant-chaining lease policy applied when queue_local is on.
  service::LeaseConfig lease;
  /// When > 0, the run fails if any request→grant wait exceeds this many
  /// virtual ticks — the bounded-waiting check under chaining (0 = off).
  /// With the default finite lease cap every algorithm must pass; with an
  /// unbounded lease (max_chain < 0) a hot-shard workload must trip it —
  /// the starvation counterexample.
  Tick max_wait_bound = 0;
};

struct SwarmResult {
  /// True iff the run completed with every invariant holding and every
  /// request granted.
  bool ok = false;
  /// Empty when ok; otherwise what was detected (invariant violation,
  /// protocol assertion, or workload stall).
  std::string violation;
  std::uint64_t entries = 0;
  std::uint64_t messages = 0;
  /// FNV-1a over the network event stream (sends and deliveries with
  /// routes, ticks and message descriptions). Deterministic per seed.
  std::uint64_t trace_hash = 0;
  /// Longest request→grant wait observed — the bounded-waiting witness.
  Tick max_wait_ticks = 0;
  Tick makespan = 0;
  /// One-line repro of this run (algorithm, n, seed, topology, fault
  /// plan). Appended to `violation` on failure so a red swarm seed can be
  /// replayed from the test log alone.
  std::string repro;
};

/// Runs one seeded swarm schedule.
SwarmResult run_swarm(const SwarmConfig& config);

}  // namespace dmx::modelcheck
