// One-resource sim LockSpace for the single-CS tests.
//
// The paper's experiments have one critical section. These tests run it
// as resource kCs of a service::LockSpace whose token starts at a chosen
// node, and drive it through the space's own acquire/release (plus
// harness::hold_and_release).
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "common/check.hpp"
#include "net/message_kind.hpp"
#include "proto/algorithm.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"

namespace dmx::testsupport {

inline constexpr ResourceId kCs = 0;

/// A space built from `config` (its algorithm set to `algorithm`) serving
/// one resource, kCs, whose token starts at `home`.
inline std::unique_ptr<service::LockSpace> single_cs(
    const proto::Algorithm& algorithm, service::LockSpaceConfig config,
    NodeId home = 1) {
  config.algorithm = algorithm;
  auto space = std::make_unique<service::LockSpace>(std::move(config));
  space->open("cs", algorithm, home);
  return space;
}

/// Config of `n` nodes; `tree` is the path-forwarding structure (tree
/// algorithms default to the star centred on node 1 without one).
inline service::LockSpaceConfig cs_config(
    int n, std::optional<topology::Tree> tree = std::nullopt) {
  service::LockSpaceConfig config;
  config.n = n;
  config.tree = std::move(tree);
  return config;
}

/// Node `v`'s kCs instance as its concrete type.
template <typename T>
T& node_as(service::LockSpace& space, NodeId v) {
  auto* typed = dynamic_cast<T*>(&space.node(kCs, v));
  DMX_CHECK_MSG(typed != nullptr, "node has unexpected concrete type");
  return *typed;
}

/// In-flight messages of `kind` on kCs.
inline std::size_t in_flight(service::LockSpace& space,
                             std::string_view kind) {
  return space.network().in_flight_count(kCs, space.epoch(kCs),
                                         net::MessageKind::lookup(kind));
}

}  // namespace dmx::testsupport
