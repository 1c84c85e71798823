// Step-by-step reproduction of the paper's worked examples.
//
// Figure 2 ("Simple Example"): line topology, token at node 5, node 3
// requests through node 4.
//
// Figure 6 ("Complete Example"): the 6-node tree of Figure 6a with token
// at node 3; requests from nodes 2, 1 and 5 build the implicit queue
// [2, 1, 5], then the token walks it. Every intermediate variable table
// (6a–6k) is asserted verbatim.
#include <gtest/gtest.h>

#include "../support/single_cs.hpp"
#include "core/algorithm.hpp"
#include "core/implicit_queue.hpp"
#include "core/neilsen_node.hpp"
#include "topology/tree.hpp"

namespace dmx::core {
namespace {

using testsupport::kCs;
using testsupport::node_as;

/// Gathers (HOLDING, NEXT, FOLLOW) for assertion against a paper table.
struct VarRow {
  std::vector<bool> holding;
  std::vector<NodeId> next;
  std::vector<NodeId> follow;
};

VarRow snapshot(service::LockSpace& space) {
  VarRow row;
  row.holding.push_back(false);  // index 0 unused
  row.next.push_back(kNilNode);
  row.follow.push_back(kNilNode);
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    const auto& node = node_as<NeilsenNode>(space, v);
    row.holding.push_back(node.holding());
    row.next.push_back(node.next());
    row.follow.push_back(node.follow());
  }
  return row;
}

NodeView view(service::LockSpace& space) {
  NodeView nodes;
  nodes.push_back(nullptr);
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    nodes.push_back(&node_as<NeilsenNode>(space, v));
  }
  return nodes;
}

TEST(PaperFigure2, SimpleExample) {
  // Line 1-2-3-4-5-6, node 5 holds the token (Figure 2a).
  const auto owned = testsupport::single_cs(
      make_neilsen_algorithm(),
      testsupport::cs_config(6, topology::Tree::line(6)), /*home=*/5);
  service::LockSpace& space = *owned;

  auto& n3 = node_as<NeilsenNode>(space, 3);
  auto& n4 = node_as<NeilsenNode>(space, 4);
  auto& n5 = node_as<NeilsenNode>(space, 5);
  EXPECT_TRUE(n5.holding());
  EXPECT_EQ(n5.next(), kNilNode);
  EXPECT_EQ(n3.next(), 4);
  EXPECT_EQ(n4.next(), 5);

  // Node 5 wants its CS: holds the token, enters immediately.
  bool entered5 = false;
  space.acquire(kCs, 5, [&](ResourceId, NodeId) { entered5 = true; });
  EXPECT_TRUE(entered5);
  EXPECT_FALSE(n5.holding());  // HOLDING := false upon entry

  // Figure 2b: node 3 requests; sends REQUEST to node 4, NEXT_3 = 0.
  bool entered3 = false;
  space.acquire(kCs, 3, [&](ResourceId, NodeId) { entered3 = true; });
  EXPECT_EQ(n3.next(), kNilNode);
  EXPECT_TRUE(n3.is_sink());

  // Figure 2c: node 4 forwards the request to node 5, NEXT_4 = 3.
  space.simulator().run(1);  // deliver REQUEST(3,3) at node 4
  EXPECT_EQ(n4.next(), 3);
  EXPECT_EQ(space.network().stats().sent("REQUEST"), 2u);

  // Figure 2d: node 5 receives it: FOLLOW_5 = 3, NEXT_5 = 4.
  space.simulator().run(1);
  EXPECT_EQ(n5.follow(), 3);
  EXPECT_EQ(n5.next(), 4);
  EXPECT_FALSE(n5.is_sink());

  // Node 5 leaves its CS: PRIVILEGE goes to node 3 (Figure 2e).
  space.release(kCs, 5);
  EXPECT_EQ(n5.follow(), kNilNode);
  EXPECT_EQ(space.network().stats().sent("PRIVILEGE"), 1u);
  space.run_to_quiescence();
  EXPECT_TRUE(entered3);
  EXPECT_TRUE(space.is_in_cs(kCs, 3));
  space.release(kCs, 3);
  EXPECT_TRUE(n3.holding());  // nobody follows; node 3 keeps the token
}

class PaperFigure6 : public ::testing::Test {
 protected:
  // Figure 6a: edges {1-2, 2-3, 3-4, 2-5, 4-6}, token at node 3.
  // Initial NEXT: 1->2, 2->3, 3->0, 4->3, 5->2, 6->4.
  PaperFigure6() {
    space = testsupport::single_cs(
        make_neilsen_algorithm(),
        testsupport::cs_config(
            6, topology::Tree::from_edges(
                   6, {{1, 2}, {2, 3}, {3, 4}, {2, 5}, {4, 6}})),
        /*home=*/3);
  }

  void expect_row(const std::vector<bool>& holding,
                  const std::vector<NodeId>& next,
                  const std::vector<NodeId>& follow, const char* figure) {
    const VarRow row = snapshot(*space);
    for (NodeId v = 1; v <= 6; ++v) {
      const auto i = static_cast<std::size_t>(v);
      EXPECT_EQ(row.holding[i], holding[i - 1])
          << figure << ": HOLDING_" << v;
      EXPECT_EQ(row.next[i], next[i - 1]) << figure << ": NEXT_" << v;
      EXPECT_EQ(row.follow[i], follow[i - 1]) << figure << ": FOLLOW_" << v;
    }
  }

  std::unique_ptr<service::LockSpace> space;
  std::vector<NodeId> entry_order;
};

TEST_F(PaperFigure6, CompleteExample) {
  const bool T = true;
  const bool F = false;

  // Figure 6a: node 3 holding.
  expect_row({F, F, T, F, F, F}, {2, 3, 0, 3, 2, 4}, {0, 0, 0, 0, 0, 0},
             "6a");

  // Step 2: node 3 enters its critical section.
  space->acquire(kCs, 3, [&](ResourceId, NodeId v) {
    entry_order.push_back(v);
  });
  EXPECT_EQ(entry_order, (std::vector<NodeId>{3}));

  // Step 3 (6b): node 2 requests; REQUEST(2,2) to 3; NEXT_2 = 0.
  space->acquire(kCs, 2, [&](ResourceId, NodeId v) {
    entry_order.push_back(v);
  });
  expect_row({F, F, F, F, F, F}, {2, 0, 0, 3, 2, 4}, {0, 0, 0, 0, 0, 0},
             "6b");

  // Step 4 (6c): node 3 receives it: FOLLOW_3 = 2, NEXT_3 = 2.
  space->simulator().run(1);
  expect_row({F, F, F, F, F, F}, {2, 0, 2, 3, 2, 4}, {0, 0, 2, 0, 0, 0},
             "6c");

  // Steps 5 & 6 (6d): nodes 1 and 5 request (in that order).
  space->acquire(kCs, 1, [&](ResourceId, NodeId v) {
    entry_order.push_back(v);
  });
  space->acquire(kCs, 5, [&](ResourceId, NodeId v) {
    entry_order.push_back(v);
  });
  expect_row({F, F, F, F, F, F}, {0, 0, 2, 3, 0, 4}, {0, 0, 2, 0, 0, 0},
             "6d");

  // Step 7 (6e): node 2 processes REQUEST(1,1): FOLLOW_2 = 1, NEXT_2 = 1.
  space->simulator().run(1);
  expect_row({F, F, F, F, F, F}, {0, 1, 2, 3, 0, 4}, {0, 1, 2, 0, 0, 0},
             "6e");

  // Step 8 (6f): node 2 processes REQUEST(5,5): forwards REQUEST(2,5) to
  // node 1 and sets NEXT_2 = 5.
  space->simulator().run(1);
  expect_row({F, F, F, F, F, F}, {0, 5, 2, 3, 0, 4}, {0, 1, 2, 0, 0, 0},
             "6f");

  // Step 9 (6g): node 1 processes REQUEST(2,5): FOLLOW_1 = 5, NEXT_1 = 2.
  space->simulator().run(1);
  expect_row({F, F, F, F, F, F}, {2, 5, 2, 3, 0, 4}, {5, 1, 2, 0, 0, 0},
             "6g");

  // The implicit global queue is now 2, 1, 5 — deduced by following
  // FOLLOW variables from the token holder (node 3).
  {
    NodeView nodes = view(*space);
    EXPECT_EQ(find_token_holder(nodes), 3);
    EXPECT_EQ(deduce_waiting_queue(nodes, 3),
              (std::vector<NodeId>{2, 1, 5}));
  }

  // Step 10 (6h): node 3 leaves; PRIVILEGE to node 2; FOLLOW_3 = 0.
  space->release(kCs, 3);
  expect_row({F, F, F, F, F, F}, {2, 5, 2, 3, 0, 4}, {5, 1, 0, 0, 0, 0},
             "6h");

  // Step 11 (6i): node 2 enters and leaves; PRIVILEGE to node 1.
  space->run_to_quiescence();  // grants are delivered; holds are zero →
                                 // but we drive releases explicitly below
  // With zero hold time the callbacks only record entries; releases are
  // manual so we can inspect each table.
  EXPECT_EQ(entry_order, (std::vector<NodeId>{3, 2}));
  space->release(kCs, 2);
  expect_row({F, F, F, F, F, F}, {2, 5, 2, 3, 0, 4}, {5, 0, 0, 0, 0, 0},
             "6i");

  // Step 12 (6j): node 1 enters and leaves; PRIVILEGE to node 5.
  space->run_to_quiescence();
  EXPECT_EQ(entry_order, (std::vector<NodeId>{3, 2, 1}));
  space->release(kCs, 1);
  expect_row({F, F, F, F, F, F}, {2, 5, 2, 3, 0, 4}, {0, 0, 0, 0, 0, 0},
             "6j");

  // Step 13 (6k): node 5 enters, leaves, and keeps the token: HOLDING_5.
  space->run_to_quiescence();
  EXPECT_EQ(entry_order, (std::vector<NodeId>{3, 2, 1, 5}));
  space->release(kCs, 5);
  expect_row({F, F, F, F, T, F}, {2, 5, 2, 3, 0, 4}, {0, 0, 0, 0, 0, 0},
             "6k");

  // Total traffic: 4 REQUESTs (2,2),(1,1),(5,5),(2,5) + 3 PRIVILEGEs.
  EXPECT_EQ(space->network().stats().sent("REQUEST"), 4u);
  EXPECT_EQ(space->network().stats().sent("PRIVILEGE"), 3u);
}

}  // namespace
}  // namespace dmx::core
