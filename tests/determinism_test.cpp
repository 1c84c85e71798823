// Determinism golden test: the simulation substrate must be a pure
// function of (code, seed). This test runs the Neilsen algorithm on fixed
// topologies/seeds, hashes the complete network trace (send and deliver
// events in the order the substrate emits them, with routes, ticks, and
// message descriptions), and pins the hash.
//
// The pinned values were captured from the original priority_queue +
// std::function kernel; the indexed-heap/zero-allocation kernel must
// reproduce them bit for bit. If a deliberate semantic change to the
// substrate ever alters event ordering, re-pin the constants in the same
// commit and call the change out in review.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "baselines/registry.hpp"
#include "modelcheck/swarm.hpp"
#include "net/network.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx {
namespace {

/// FNV-1a 64-bit over the event stream.
class TraceHasher final : public net::NetworkObserver {
 public:
  void on_send(const net::Envelope& env) override { mix('S', env); }
  void on_deliver(const net::Envelope& env) override { mix('D', env); }

  std::uint64_t digest() const { return hash_; }

 private:
  void mix(char tag, const net::Envelope& env) {
    byte(static_cast<unsigned char>(tag));
    u64(env.id);
    u64(static_cast<std::uint64_t>(env.from));
    u64(static_cast<std::uint64_t>(env.to));
    u64(static_cast<std::uint64_t>(env.sent_at));
    u64(static_cast<std::uint64_t>(env.deliver_at));
    const std::string desc = env.message->describe();
    for (const char c : desc) byte(static_cast<unsigned char>(c));
  }
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }

  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t neilsen_trace_digest(topology::Tree tree, std::uint64_t seed) {
  service::LockSpaceConfig config =
      testsupport::cs_config(tree.size(), std::move(tree));
  config.seed = seed;
  const auto space = testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"), std::move(config));
  TraceHasher hasher;
  space->network().set_observer(&hasher);

  workload::WorkloadConfig wl;
  wl.target_entries = 400;
  wl.mean_think_ticks = 3.0;
  wl.hold_lo = 0;
  wl.hold_hi = 2;
  wl.seed = seed;
  workload::run_workload(*space, testsupport::kCs, wl);
  return hasher.digest();
}

TEST(DeterminismGolden, SameSeedSameDigest) {
  const std::uint64_t a =
      neilsen_trace_digest(topology::Tree::random_tree(12, 7), 11);
  const std::uint64_t b =
      neilsen_trace_digest(topology::Tree::random_tree(12, 7), 11);
  EXPECT_EQ(a, b);
}

TEST(DeterminismGolden, DifferentSeedDifferentDigest) {
  const std::uint64_t a =
      neilsen_trace_digest(topology::Tree::random_tree(12, 7), 11);
  const std::uint64_t b =
      neilsen_trace_digest(topology::Tree::random_tree(12, 7), 12);
  EXPECT_NE(a, b);
}

// Golden digests pinned from the pre-refactor kernel (priority_queue +
// std::function + hash-map network). Any kernel swap must reproduce these.
TEST(DeterminismGolden, PinnedStarTopology) {
  EXPECT_EQ(neilsen_trace_digest(topology::Tree::star(8, 1), 5),
            0x472d9b15493288e5ULL)
      << "actual: 0x" << std::hex
      << neilsen_trace_digest(topology::Tree::star(8, 1), 5);
}

TEST(DeterminismGolden, PinnedRandomTreeJitteryLatency) {
  const topology::Tree tree = topology::Tree::random_tree(16, 3);
  service::LockSpaceConfig config = testsupport::cs_config(tree.size(), tree);
  config.latency_model = std::make_unique<net::UniformLatency>(1, 9);
  config.seed = 21;
  const auto space = testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"), std::move(config));
  TraceHasher hasher;
  space->network().set_observer(&hasher);

  workload::WorkloadConfig wl;
  wl.target_entries = 300;
  wl.mean_think_ticks = 1.0;
  wl.hold_lo = 0;
  wl.hold_hi = 3;
  wl.seed = 21;
  workload::run_workload(*space, testsupport::kCs, wl);
  EXPECT_EQ(hasher.digest(), 0x763e75d029bfa294ULL)
      << "actual: 0x" << std::hex << hasher.digest();
}

// ---- Swarm schedule goldens -------------------------------------------------
// One pinned seed per registry algorithm: the swarm tester's randomized
// delivery schedule (topology, adversarial latency, workload think/hold)
// must be a pure function of (code, seed). Re-pin in the same commit as
// any deliberate change to an algorithm's message behaviour or to the
// swarm's seed derivation, and call the change out in review.

struct SwarmGolden {
  const char* algorithm;
  std::uint64_t trace_hash;
};

TEST(DeterminismGolden, PinnedSwarmSeedPerAlgorithm) {
  const SwarmGolden goldens[] = {
      {"Neilsen", 0xf8b09871cb9e2c59ULL},
      {"Raymond", 0x6c0c077063145f21ULL},
      {"Central", 0xb8edf60567e5855eULL},
      {"Suzuki-Kasami", 0xca60fb715faaacfdULL},
      {"Singhal", 0xa0bcd4dc44eb00d6ULL},
      {"Lamport", 0x9b8a37849a1fdf4dULL},
      {"Ricart-Agrawala", 0x38de5d8f18409dafULL},
      {"Carvalho-Roucairol", 0x7dc604d3ac11a745ULL},
      {"Maekawa", 0xec3138e581cc494cULL},
  };
  for (const SwarmGolden& golden : goldens) {
    const proto::Algorithm algo =
        baselines::algorithm_by_name(golden.algorithm);
    modelcheck::SwarmConfig config;
    config.algorithm = &algo;
    config.n = 8;
    config.topology = modelcheck::SwarmConfig::Topology::kRandom;
    config.seed = 2026;
    config.target_entries = 50;
    config.latency_lo = 1;
    config.latency_hi = 9;
    config.mean_think_ticks = 1.5;
    config.hold_lo = 0;
    config.hold_hi = 2;
    const modelcheck::SwarmResult result = modelcheck::run_swarm(config);
    ASSERT_TRUE(result.ok) << golden.algorithm << ": " << result.violation;
    EXPECT_EQ(result.trace_hash, golden.trace_hash)
        << golden.algorithm << " actual: 0x" << std::hex << result.trace_hash;
  }
}

TEST(DeterminismGolden, PinnedChainingSwarmSeedPerAlgorithm) {
  // Same contract as above, but with queue_local chaining on: the lease
  // layer's local hand-offs suppress protocol traffic, so these hashes
  // also pin WHICH releases reach the wire. A change to the chaining
  // decision (cap, window, renewal) shows up here before anywhere else.
  const SwarmGolden goldens[] = {
      {"Neilsen", 0xaedd537279165dabULL},
      {"Raymond", 0xcc1f73172ea894e9ULL},
      {"Central", 0x7aa530f0fad13da9ULL},
      {"Suzuki-Kasami", 0xf1ec833a32ecce9dULL},
      {"Singhal", 0x026e9eafb6fbb53dULL},
      {"Lamport", 0x8d0ae2e56ad8af0fULL},
      {"Ricart-Agrawala", 0xec727a1a6831d305ULL},
      {"Carvalho-Roucairol", 0xf28de959832e10f5ULL},
      {"Maekawa", 0x8e05c896c764f322ULL},
  };
  for (const SwarmGolden& golden : goldens) {
    const proto::Algorithm algo =
        baselines::algorithm_by_name(golden.algorithm);
    modelcheck::SwarmConfig config;
    config.algorithm = &algo;
    config.n = 8;
    config.topology = modelcheck::SwarmConfig::Topology::kRandom;
    config.seed = 2026;
    config.target_entries = 50;
    config.latency_lo = 1;
    config.latency_hi = 9;
    config.mean_think_ticks = 1.5;
    config.hold_lo = 0;
    config.hold_hi = 2;
    config.resources = 4;
    config.zipf_s = 0.99;
    config.clients_per_node = 3;
    config.queue_local = true;
    const modelcheck::SwarmResult result = modelcheck::run_swarm(config);
    ASSERT_TRUE(result.ok) << golden.algorithm << ": " << result.violation;
    EXPECT_EQ(result.trace_hash, golden.trace_hash)
        << golden.algorithm << " actual: 0x" << std::hex << result.trace_hash;
  }
}

}  // namespace
}  // namespace dmx
