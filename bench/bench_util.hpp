// Shared helpers for the experiment benches (E1–E6 in DESIGN.md).
#pragma once

#include <memory>
#include <string>

#include "baselines/registry.hpp"
#include "harness/probe.hpp"
#include "metrics/table.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::bench {

inline topology::Tree make_topology(const std::string& kind, int n,
                                    std::uint64_t seed = 1) {
  if (kind == "line") return topology::Tree::line(n);
  if (kind == "star") return topology::Tree::star(n, 1);
  if (kind == "kary3") return topology::Tree::kary(n, 3);
  if (kind == "radiating") {
    return topology::Tree::radiating_star(n, std::max(2, n / 4));
  }
  if (kind == "random") return topology::Tree::random_tree(n, seed);
  DMX_CHECK_MSG(false, "unknown topology kind " << kind);
  return topology::Tree::line(n);
}

/// The resource the single-CS experiments open: the paper's one critical
/// section.
inline constexpr ResourceId kCs = 0;

/// A sim LockSpace of `n` nodes over the named topology (unit latency)
/// serving one resource, kCs, whose token starts at `holder`.
inline std::unique_ptr<service::LockSpace> make_space(
    const proto::Algorithm& algo, const std::string& topology_kind, int n,
    NodeId holder = 1, std::uint64_t seed = 1) {
  service::LockSpaceConfig config;
  config.n = n;
  config.algorithm = algo;
  config.tree = make_topology(topology_kind, n, seed);
  config.seed = seed;
  auto space = std::make_unique<service::LockSpace>(std::move(config));
  space->open("cs", algo, holder);
  return space;
}

/// Worst measured single-entry cost over every (token position, requester)
/// placement — the empirical counterpart of the §6.1 upper bounds.
inline std::uint64_t worst_case_probe(service::LockSpace& space) {
  std::uint64_t worst = 0;
  const bool movable_token = space.algorithm(kCs).token_based;
  for (NodeId holder = 1; holder <= space.nodes(); ++holder) {
    if (movable_token) {
      harness::park_token_at(space, kCs, holder);
    } else if (holder > 1) {
      break;  // placement-independent
    }
    for (NodeId requester = 1; requester <= space.nodes(); ++requester) {
      const harness::ProbeResult probe =
          harness::single_entry_probe(space, kCs, requester);
      worst = std::max(worst, probe.messages_total);
      if (movable_token) harness::park_token_at(space, kCs, holder);
    }
  }
  return worst;
}

/// Mean single-entry cost over all placements, weighted uniformly — the
/// §6.2 "equal likelihood of holding the token" assumption.
inline double average_probe(service::LockSpace& space) {
  std::uint64_t total = 0;
  std::uint64_t count = 0;
  const bool movable_token = space.algorithm(kCs).token_based;
  const int holders = movable_token ? space.nodes() : 1;
  for (NodeId holder = 1; holder <= holders; ++holder) {
    if (movable_token) harness::park_token_at(space, kCs, holder);
    for (NodeId requester = 1; requester <= space.nodes(); ++requester) {
      const harness::ProbeResult probe =
          harness::single_entry_probe(space, kCs, requester);
      total += probe.messages_total;
      ++count;
      if (movable_token) harness::park_token_at(space, kCs, holder);
    }
  }
  return static_cast<double>(total) / static_cast<double>(count);
}

}  // namespace dmx::bench
