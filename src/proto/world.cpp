#include "proto/world.hpp"

#include "common/check.hpp"

namespace dmx::proto {
namespace {

std::vector<std::unique_ptr<MutexNode>> build(const Algorithm& algorithm,
                                              int n, NodeId holder,
                                              const topology::Tree* tree) {
  ClusterSpec spec;
  spec.n = n;
  spec.initial_token_holder = holder;
  spec.tree = tree;
  auto nodes = algorithm.factory(spec);
  DMX_CHECK_MSG(nodes.size() == static_cast<std::size_t>(n) + 1,
                "factory must return n+1 slots (index 0 unused)");
  for (NodeId v = 1; v <= n; ++v) {
    DMX_CHECK(nodes[static_cast<std::size_t>(v)] != nullptr);
  }
  return nodes;
}

}  // namespace

NodeId initial_holder(const Algorithm& algorithm, NodeId home) {
  return algorithm.name == "Singhal" ? 1 : home;
}

World initial_world(const Algorithm& algorithm, int n, NodeId home,
                    const topology::Tree* tree) {
  World world;
  if (algorithm.needs_tree && tree == nullptr) {
    world.tree = topology::Tree::star(n, 1);
    tree = &*world.tree;
  }
  if (algorithm.needs_tree) DMX_CHECK(tree->size() == n);
  world.nodes = build(algorithm, n, initial_holder(algorithm, home), tree);
  return world;
}

World regenerated_world(const Algorithm& algorithm, int survivors,
                        NodeId winner_rank) {
  World world;
  if (algorithm.needs_tree) {
    world.tree = topology::Tree::star(survivors, winner_rank);
  }
  world.nodes = build(algorithm, survivors, winner_rank,
                      world.tree ? &*world.tree : nullptr);
  return world;
}

}  // namespace dmx::proto
