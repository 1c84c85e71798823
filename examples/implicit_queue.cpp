// Implicit-queue inspector: demonstrates the paper's structural claim
// that "no node or message explicitly holds a waiting queue ... the queue
// may be constructed by observing the states of the nodes". We freeze a
// contended moment, print every node's three variables, deduce the queue
// from the FOLLOW chain, then let the token run and verify the service
// order equals the deduced queue.
//
//   $ ./implicit_queue [n]
#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/algorithm.hpp"
#include "core/implicit_queue.hpp"
#include "core/invariants.hpp"
#include "core/neilsen_node.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"

int main(int argc, char** argv) {
  using namespace dmx;
  const int n = argc > 1 ? std::atoi(argv[1]) : 7;

  const proto::Algorithm neilsen = core::make_neilsen_algorithm();
  service::LockSpaceConfig config;
  config.n = n;
  config.algorithm = neilsen;
  config.tree = topology::Tree::random_tree(n, 4);
  service::LockSpace space(std::move(config));
  const ResourceId cs = space.open("cs", neilsen, /*home=*/1);

  // Node 1 occupies the CS; everyone else queues up behind it.
  space.acquire(cs, 1);
  std::vector<NodeId> service_order;
  for (NodeId v = 2; v <= n; ++v) {
    space.acquire(cs, v, [&](ResourceId, NodeId who) {
      service_order.push_back(who);
    });
  }
  // Absorb all in-flight requests into FOLLOW variables.
  const net::MessageKind request = net::MessageKind::of("REQUEST");
  while (space.network().in_flight_count(cs, space.epoch(cs), request) > 0) {
    space.simulator().step();
  }

  std::cout << "frozen state with node 1 in its CS and " << n - 1
            << " waiters:\n\n";
  core::NodeView nodes;
  nodes.push_back(nullptr);
  for (NodeId v = 1; v <= n; ++v) {
    const auto& node = dynamic_cast<core::NeilsenNode&>(space.node(cs, v));
    nodes.push_back(&node);
    std::cout << "  node " << v << ": " << node.debug_state() << "\n";
  }

  const core::InvariantReport report = core::check_all(nodes, 0);
  std::cout << "\nstructural invariants: "
            << (report.ok ? "OK" : report.violation) << "\n";

  const NodeId holder = core::find_token_holder(nodes);
  const std::vector<NodeId> deduced =
      core::deduce_waiting_queue(nodes, holder);
  std::cout << "deduced implicit queue (from FOLLOW chain, holder " << holder
            << "):";
  for (NodeId v : deduced) std::cout << " " << v;
  std::cout << "\n";

  // Let the token walk the queue.
  space.release(cs, 1);
  for (std::size_t i = 0; i < deduced.size(); ++i) {
    space.run_to_quiescence();
    space.release(cs, service_order.back());
  }
  std::cout << "actual service order:                               ";
  for (NodeId v : service_order) std::cout << " " << v;
  std::cout << "\n"
            << (service_order == deduced
                    ? "service order matches the deduced queue\n"
                    : "MISMATCH — protocol bug!\n");
  return service_order == deduced ? 0 : 1;
}
