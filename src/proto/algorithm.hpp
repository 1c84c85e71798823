// Algorithm descriptors and the registry used by benches and tests to
// iterate over every implemented protocol uniformly.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "proto/mutex_node.hpp"
#include "topology/tree.hpp"

namespace dmx::proto {

/// Everything an algorithm may need to instantiate its nodes.
struct ClusterSpec {
  int n = 0;
  /// Initial token holder for token-based algorithms; also the coordinator
  /// for the centralized scheme and the reference node for initial
  /// Lamport-style clocks.
  NodeId initial_token_holder = 1;
  /// Logical structure for path-forwarding algorithms (Neilsen, Raymond).
  /// Ignored by broadcast/quorum algorithms. May be null for those.
  /// Factories read it during the call only.
  const topology::Tree* tree = nullptr;
};

/// Builds the N protocol nodes (index 0 unused, 1..n populated) in their
/// initial post-INIT state.
using NodeFactory =
    std::function<std::vector<std::unique_ptr<MutexNode>>(const ClusterSpec&)>;

/// Static metadata + factory for one algorithm.
struct Algorithm {
  std::string name;
  bool token_based = false;
  /// Message kinds whose in-flight presence represents the token (for the
  /// token-uniqueness invariant): e.g. {"PRIVILEGE"} for Neilsen/Raymond.
  std::vector<std::string> token_message_kinds;
  /// True if the algorithm needs `ClusterSpec::tree`.
  bool needs_tree = false;
  /// True iff a node holding the token/grant is GUARANTEED to observe a
  /// remote waiter via MutexNode::has_remote_request() before that waiter
  /// can starve: requests reach the holder directly (broadcast, deferred
  /// replies) or by forwarding (DAG/tree paths, token trails). False for
  /// schemes whose holder can stay blind — Central clients never see the
  /// coordinator's queue, and a Maekawa holder's arbiters FAIL outranked
  /// requests without consulting it. Lease renewal at a chain cap is only
  /// sound when this is true; blind algorithms must yield unconditionally.
  bool holder_sees_remote_requests = false;
  NodeFactory factory;
};

}  // namespace dmx::proto
