// snapshot()/restore() round-trip coverage for every registry algorithm.
//
// The schedule explorer's soundness rests on two properties of the node
// serialization: (a) restore(snapshot()) reproduces the exact protocol
// state (same snapshot, same debug rendering, same token possession), and
// (b) snapshots are canonical — equal states produce byte-identical
// blobs, including "valid only while held" members like token payloads.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/registry.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx {
namespace {

using testsupport::kCs;

std::unique_ptr<service::LockSpace> make_space(const proto::Algorithm& algo,
                                               int n) {
  service::LockSpaceConfig config = testsupport::cs_config(n);
  if (algo.needs_tree) config.tree = topology::Tree::line(n);
  config.seed = 9;
  return testsupport::single_cs(algo, std::move(config));
}

/// Fresh factory-built nodes for `algo`, for restoring snapshots into.
std::vector<std::unique_ptr<proto::MutexNode>> fresh_nodes(
    const proto::Algorithm& algo, const topology::Tree& tree, int n) {
  proto::ClusterSpec spec;
  spec.n = n;
  spec.initial_token_holder = 1;
  spec.tree = algo.needs_tree ? &tree : nullptr;
  return algo.factory(spec);
}

void roundtrip_all_nodes(service::LockSpace& space,
                         const proto::Algorithm& algo,
                         const topology::Tree& tree, const char* when) {
  auto fresh = fresh_nodes(algo, tree, space.nodes());
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    const std::string blob = space.node(kCs, v).snapshot();
    EXPECT_EQ(blob, space.node(kCs, v).snapshot())
        << algo.name << " node " << v << " " << when
        << ": snapshot not deterministic";
    proto::MutexNode& target = *fresh[static_cast<std::size_t>(v)];
    target.restore(blob);
    EXPECT_EQ(target.snapshot(), blob)
        << algo.name << " node " << v << " " << when
        << ": restore(snapshot()) not a fixpoint";
    EXPECT_EQ(target.debug_state(), space.node(kCs, v).debug_state())
        << algo.name << " node " << v << " " << when;
    EXPECT_EQ(target.has_token(), space.node(kCs, v).has_token())
        << algo.name << " node " << v << " " << when;
    EXPECT_EQ(target.state_bytes(), space.node(kCs, v).state_bytes())
        << algo.name << " node " << v << " " << when;
  }
}

TEST(Snapshot, RoundTripsMidProtocolAndQuiescentForEveryAlgorithm) {
  const int n = 5;
  const topology::Tree tree = topology::Tree::line(n);
  for (const proto::Algorithm& algo : baselines::all_algorithms()) {
    const auto owned = make_space(algo, n);
    service::LockSpace& space = *owned;

    // Initial state.
    roundtrip_all_nodes(space, algo, tree, "initially");

    // Mid-protocol: several contending requests, partially delivered.
    space.acquire(kCs, 3);
    space.acquire(kCs, 5);
    space.acquire(kCs, 2);
    space.simulator().run_until(2);
    roundtrip_all_nodes(space, algo, tree, "mid-protocol");

    // Drain, release everyone, drive a small randomized workload, then
    // check the quiescent state too.
    space.run_to_quiescence();
    while (space.occupant(kCs) != kNilNode) {
      space.release(kCs, space.occupant(kCs));
      space.run_to_quiescence();
    }
    workload::WorkloadConfig wl;
    wl.target_entries = 30;
    wl.mean_think_ticks = 1.0;
    wl.hold_lo = 0;
    wl.hold_hi = 2;
    workload::run_workload(space, kCs, wl);
    roundtrip_all_nodes(space, algo, tree, "after workload");
  }
}

TEST(Snapshot, RestoreRejectsForeignAndTruncatedBlobs) {
  const int n = 4;
  const topology::Tree tree = topology::Tree::line(n);
  const proto::Algorithm algo = baselines::algorithm_by_name("Raymond");
  auto nodes = fresh_nodes(algo, tree, n);
  const std::string blob = nodes[2]->snapshot();
  // Identity check: node 3 must refuse node 2's state.
  EXPECT_THROW(nodes[3]->restore(blob), std::logic_error);
  // Truncation check: schema drift or corruption must not pass silently.
  EXPECT_THROW(nodes[2]->restore(blob.substr(0, blob.size() - 1)),
               std::logic_error);
  EXPECT_THROW(nodes[2]->restore(blob + "x"), std::logic_error);
  // The rejected restores must not have poisoned the good path.
  nodes[2]->restore(blob);
  EXPECT_EQ(nodes[2]->snapshot(), blob);
}

}  // namespace
}  // namespace dmx
