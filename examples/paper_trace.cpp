// Replays the paper's Figure 6 "Complete Example" step by step, printing
// the same variable tables (HOLDING/NEXT/FOLLOW per node) the thesis
// shows in Figures 6a–6k, plus the implicit queue deduced from the FOLLOW
// chain at the moment the paper calls it out.
//
//   $ ./paper_trace
#include <iomanip>
#include <iostream>

#include "core/algorithm.hpp"
#include "core/implicit_queue.hpp"
#include "core/neilsen_node.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"

namespace {

using namespace dmx;

const core::NeilsenNode& neilsen_node(service::LockSpace& space,
                                      ResourceId cs, NodeId v) {
  return dynamic_cast<const core::NeilsenNode&>(space.node(cs, v));
}

void print_table(service::LockSpace& space, ResourceId cs,
                 const std::string& caption) {
  std::cout << "\n" << caption << "\n";
  std::cout << "  I         ";
  for (NodeId v = 1; v <= space.nodes(); ++v) std::cout << std::setw(4) << v;
  std::cout << "\n  HOLDING_I ";
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    std::cout << std::setw(4)
              << (neilsen_node(space, cs, v).holding() ? 't' : 'f');
  }
  std::cout << "\n  NEXT_I    ";
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    std::cout << std::setw(4) << neilsen_node(space, cs, v).next();
  }
  std::cout << "\n  FOLLOW_I  ";
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    std::cout << std::setw(4) << neilsen_node(space, cs, v).follow();
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  using namespace dmx;
  std::cout << "Figure 6 complete example: 6 nodes, edges "
               "{1-2, 2-3, 3-4, 2-5, 4-6}, token at node 3\n";

  const proto::Algorithm neilsen = core::make_neilsen_algorithm();
  service::LockSpaceConfig config;
  config.n = 6;
  config.algorithm = neilsen;
  config.tree =
      topology::Tree::from_edges(6, {{1, 2}, {2, 3}, {3, 4}, {2, 5}, {4, 6}});
  service::LockSpace space(std::move(config));
  const ResourceId cs = space.open("cs", neilsen, /*home=*/3);

  print_table(space, cs, "Figure 6a: node 3 is holding the token.");

  space.acquire(cs, 3);
  space.acquire(cs, 2);
  print_table(space, cs,
              "Figure 6b: node 3 enters its CS; node 2 sends a request to "
              "node 3.");

  space.simulator().run(1);
  print_table(space, cs,
              "Figure 6c: node 3 processes the request: FOLLOW_3=2, "
              "NEXT_3=2.");

  space.acquire(cs, 1);
  space.acquire(cs, 5);
  print_table(space, cs, "Figure 6d: nodes 1 and 5 send requests to node 2.");

  space.simulator().run(1);
  print_table(space, cs,
              "Figure 6e: node 2 processes node 1's request: FOLLOW_2=1, "
              "NEXT_2=1.");

  space.simulator().run(1);
  print_table(space, cs,
              "Figure 6f: node 2 forwards node 5's request to node 1, "
              "NEXT_2=5.");

  space.simulator().run(1);
  print_table(space, cs,
              "Figure 6g: node 1 processes REQUEST(2,5): FOLLOW_1=5, "
              "NEXT_1=2.");

  {
    core::NodeView nodes;
    nodes.push_back(nullptr);
    for (NodeId v = 1; v <= 6; ++v) {
      nodes.push_back(&neilsen_node(space, cs, v));
    }
    const NodeId holder = core::find_token_holder(nodes);
    std::cout << "\nImplicit queue deduced from FOLLOW chain (holder "
              << holder << "):";
    for (NodeId v : core::deduce_waiting_queue(nodes, holder)) {
      std::cout << " " << v;
    }
    std::cout << "   <- the paper's \"2, 1, 5\"\n";
  }

  space.release(cs, 3);
  print_table(space, cs,
              "Figure 6h: node 3 leaves its CS and sends PRIVILEGE to "
              "node 2.");

  space.run_to_quiescence();
  space.release(cs, 2);
  print_table(space, cs,
              "Figure 6i: node 2 enters/leaves its CS; PRIVILEGE to node 1.");

  space.run_to_quiescence();
  space.release(cs, 1);
  print_table(space, cs,
              "Figure 6j: node 1 enters/leaves its CS; PRIVILEGE to node 5.");

  space.run_to_quiescence();
  space.release(cs, 5);
  print_table(space, cs,
              "Figure 6k: node 5 enters/leaves its CS and keeps the token "
              "(HOLDING_5 = t).");

  std::cout << "\ntotal: " << space.network().stats().sent("REQUEST")
            << " REQUEST + " << space.network().stats().sent("PRIVILEGE")
            << " PRIVILEGE messages for 4 critical-section entries\n";
  return 0;
}
