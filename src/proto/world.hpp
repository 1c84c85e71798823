// Protocol worlds: the n node instances one resource runs on, built by an
// algorithm's factory in the paper's post-INIT state.
//
// Every substrate (the sim LockSpace, the threaded and TCP spaces, the
// explorer) builds its worlds through these two functions, so the
// placement rules are written once:
//  * the initial world parks the token at the resource's home node —
//    except Singhal's, whose staircase initialization pins it to node 1;
//  * a path-forwarding algorithm given no tree runs over a star centred
//    on node 1 (the paper's best topology: every node <= 2 hops from
//    every other);
//  * a world regenerated after a crash runs over the compact survivor ids
//    1..k with the token minted at the winner's rank, path-forwarding
//    algorithms over a star rooted there (diameter 2 from any survivor to
//    the regenerated token, independent of who died).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "topology/tree.hpp"

namespace dmx::proto {

struct World {
  /// Index 0 unused, 1..n populated.
  std::vector<std::unique_ptr<MutexNode>> nodes;
  /// The tree this call built (a default or regenerated star); empty when
  /// the caller supplied the tree or the algorithm needs none. Factories
  /// do not retain it, so keeping it is the caller's choice.
  std::optional<topology::Tree> tree;
};

/// The node holding the token when a resource homed at `home` starts.
NodeId initial_holder(const Algorithm& algorithm, NodeId home);

/// Nodes 1..n of a resource homed at `home`. `tree` (may be null) is the
/// logical structure for path-forwarding algorithms.
World initial_world(const Algorithm& algorithm, int n, NodeId home,
                    const topology::Tree* tree);

/// Nodes 1..`survivors` of the world a crash repair installs, with the
/// token at `winner_rank`.
World regenerated_world(const Algorithm& algorithm, int survivors,
                        NodeId winner_rank);

}  // namespace dmx::proto
