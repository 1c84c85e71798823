// Watches the DAG evolve: prints the NEXT-edge structure (the arrows of
// the paper's Figures 1/2) after every single simulator event while
// requests travel and invert edges, with the message trace alongside.
//
//   $ ./dag_evolution
#include <iostream>

#include "core/algorithm.hpp"
#include "core/neilsen_node.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"
#include "trace/trace.hpp"

namespace {

using namespace dmx;

std::string dag(service::LockSpace& space, ResourceId cs) {
  std::vector<const core::NeilsenNode*> nodes;
  nodes.push_back(nullptr);
  for (NodeId v = 1; v <= space.nodes(); ++v) {
    nodes.push_back(&dynamic_cast<core::NeilsenNode&>(space.node(cs, v)));
  }
  return trace::render_dag(nodes);
}

}  // namespace

int main() {
  using namespace dmx;
  std::cout << "Figure 2 scenario: line 1-2-3-4-5-6, token at node 5.\n"
            << "Watch the REQUEST invert edges hop by hop, then the\n"
            << "PRIVILEGE fly straight to the requester.\n\n";

  const proto::Algorithm neilsen = core::make_neilsen_algorithm();
  service::LockSpaceConfig config;
  config.n = 6;
  config.algorithm = neilsen;
  config.tree = topology::Tree::line(6);
  service::LockSpace space(std::move(config));
  const ResourceId cs = space.open("cs", neilsen, /*home=*/5);
  trace::MessageTrace trace;
  space.network().set_observer(&trace);

  std::cout << "initial:            " << dag(space, cs) << "\n";

  space.acquire(cs, 5);
  std::cout << "5 enters its CS:    " << dag(space, cs) << "\n";

  space.acquire(cs, 3);
  std::cout << "3 requests:         " << dag(space, cs) << "\n";

  while (space.simulator().step()) {
    std::cout << "after "
              << (trace.records().empty()
                      ? std::string("event")
                      : trace.records().back().description)
              << " hop:  " << dag(space, cs) << "\n";
    if (space.is_waiting(cs, 3) && space.network().in_flight_count() == 0) {
      break;
    }
  }

  space.release(cs, 5);
  std::cout << "5 releases:         " << dag(space, cs) << "\n";
  space.run_to_quiescence();
  std::cout << "3 enters its CS:    " << dag(space, cs) << "\n";
  space.release(cs, 3);
  std::cout << "3 releases:         " << dag(space, cs) << "\n";

  std::cout << "\nmessage trace (sent / delivered / route / payload):\n"
            << trace.dump();
  return 0;
}
