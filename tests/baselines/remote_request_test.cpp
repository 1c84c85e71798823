// has_remote_request() conformance: for every registered algorithm the
// predicate must flip exactly when a request from ANOTHER node is queued
// at this one, and drop back once that request has been served. The lease
// layer renews a holder's chain window only while the holder's instance
// reports no remote demand, so a predicate stuck false would starve
// remote requesters and one stuck true would defeat renewal — both are
// caught here.
#include <gtest/gtest.h>

#include <string>

#include "../support/single_cs.hpp"
#include "baselines/registry.hpp"
#include "topology/tree.hpp"

namespace dmx::baselines {
namespace {

using testsupport::kCs;

/// The token starts at node 1 (Singhal's staircase init requires it
/// anyway), so the flip assertions below always target the same node.
std::unique_ptr<service::LockSpace> make_space(const proto::Algorithm& algo,
                                               int n) {
  service::LockSpaceConfig config =
      testsupport::cs_config(n, topology::Tree::star(n, 1));
  config.seed = 7;
  return testsupport::single_cs(algo, std::move(config), /*home=*/1);
}

class RemoteRequestPredicate : public ::testing::TestWithParam<std::string> {};

TEST_P(RemoteRequestPredicate, FlipsWithARemoteRequestAndDrainsClean) {
  const proto::Algorithm algo = algorithm_by_name(GetParam());
  constexpr int n = 3;
  const auto owned = make_space(algo, n);
  service::LockSpace& space = *owned;

  // Quiescent start: no request anywhere, so no node may report one.
  for (NodeId v = 1; v <= n; ++v) {
    EXPECT_FALSE(space.node(kCs, v).has_remote_request())
        << algo.name << ": node " << v << " reports a phantom request";
  }

  // Node 1 enters its own CS. Its OWN request is local, so node 1 itself
  // must still report false — that is exactly the state in which a lease
  // renewal is sound.
  bool entered = false;
  space.acquire(kCs, 1, [&](ResourceId, NodeId) { entered = true; });
  space.run_to_quiescence();
  ASSERT_TRUE(entered) << algo.name;
  EXPECT_FALSE(space.node(kCs, 1).has_remote_request())
      << algo.name << ": holder reports its own request as remote";

  // Node 3 requests while node 1 holds. (Node 3, not 2: with the n=3
  // projective-plane quorums {1,2},{2,3},{1,3}, node 2's only contended
  // Maekawa arbiter would be node 2 itself — a self request, invisible by
  // definition. Node 3's contended arbiter is node 1.) The request parks
  // somewhere in the structure: at least one node other than the
  // requester must now see it, and any algorithm whose holder can see
  // (holder_sees_remote_requests) must see it AT THE HOLDER — the
  // property the lease renewal relies on.
  space.acquire(kCs, 3, [](ResourceId, NodeId) {});
  space.run_to_quiescence();
  ASSERT_TRUE(space.is_in_cs(kCs, 1)) << algo.name;
  bool seen_somewhere = false;
  for (NodeId v = 1; v <= n; ++v) {
    if (v != 3 && space.node(kCs, v).has_remote_request()) {
      seen_somewhere = true;
    }
  }
  EXPECT_TRUE(seen_somewhere)
      << algo.name << ": node 3's parked request is invisible everywhere";
  if (algo.holder_sees_remote_requests) {
    EXPECT_TRUE(space.node(kCs, 1).has_remote_request())
        << algo.name << ": holder is blind to node 3's queued request";
  }

  // Serve node 3 and drain both critical sections: every predicate must
  // drop back to false (nothing pending anywhere).
  space.release(kCs, 1);
  space.run_to_quiescence();
  ASSERT_TRUE(space.is_in_cs(kCs, 3)) << algo.name;
  space.release(kCs, 3);
  space.run_to_quiescence();
  for (NodeId v = 1; v <= n; ++v) {
    EXPECT_FALSE(space.node(kCs, v).has_remote_request())
        << algo.name << ": node " << v << " still reports a served request";
  }
}

std::vector<std::string> algorithm_names() {
  std::vector<std::string> names;
  for (const auto& algo : all_algorithms()) {
    names.push_back(algo.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RemoteRequestPredicate, ::testing::ValuesIn(algorithm_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(RemoteRequestPredicate, VisibilityMetadataMatchesTheRegistry) {
  // The renewal policy keys off holder_sees_remote_requests; pin which
  // algorithms are blind so a registry edit cannot silently flip one.
  for (const auto& algo : all_algorithms()) {
    const bool blind = algo.name == "Maekawa" || algo.name == "Central";
    EXPECT_EQ(algo.holder_sees_remote_requests, !blind) << algo.name;
  }
}

}  // namespace
}  // namespace dmx::baselines
