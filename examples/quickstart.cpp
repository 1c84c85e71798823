// Quickstart: five nodes on a star topology run the Neilsen DAG mutual
// exclusion algorithm on the deterministic simulator. Shows the public
// API end to end: build a topology, open one lock over the simulated
// cluster, request/hold/release its critical section, and read the
// message counters.
//
//   $ ./quickstart
#include <iostream>

#include "baselines/registry.hpp"
#include "harness/probe.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

int main() {
  using namespace dmx;

  // 1. A logical topology: node 1 in the center, 2..5 as leaves (the
  //    paper's best topology — worst case three messages per entry).
  const proto::Algorithm neilsen = baselines::algorithm_by_name("Neilsen");
  service::LockSpaceConfig config;
  config.n = 5;
  config.algorithm = neilsen;
  config.tree = topology::Tree::star(5, 1);

  // 2. Protocol nodes over the simulated network, serving one lock whose
  //    token starts at node 1.
  service::LockSpace space(std::move(config));
  const ResourceId cs = space.open("cs", neilsen, /*home=*/1);

  // 3. Ask node 4 for its critical section; hold it 10 ticks.
  harness::hold_and_release(space, cs, 4, 10, [](NodeId v) {
    std::cout << "node " << v << " left its critical section\n";
  });
  space.run_to_quiescence();

  std::cout << "messages for that entry: "
            << space.network().stats().total_sent << " (REQUEST="
            << space.network().stats().sent("REQUEST") << ", PRIVILEGE="
            << space.network().stats().sent("PRIVILEGE") << ")\n";

  // 4. Run a contended workload: every node loops request -> hold ->
  //    release until 1000 entries complete.
  workload::WorkloadConfig wl;
  wl.target_entries = 1000;
  wl.mean_think_ticks = 20.0;
  wl.hold_lo = 1;
  wl.hold_hi = 5;
  const workload::WorkloadResult result =
      workload::run_workload(space, cs, wl);

  std::cout << "\ncontended run: " << result.entries << " entries, "
            << result.messages << " messages ("
            << result.messages_per_entry << " per entry)\n"
            << "waiting ticks: " << result.waiting_ticks.to_string() << "\n"
            << "sync delay:    " << result.sync_delay_ticks.to_string()
            << "\n";
  return 0;
}
