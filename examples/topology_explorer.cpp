// Topology explorer: how does the choice of logical structure drive the
// cost of the Neilsen algorithm? For each topology this prints diameter,
// the paper's worst-case bound D+1, the measured worst case, the measured
// uniform average, and contended throughput figures — the ablation
// DESIGN.md calls out for the paper's "best topology" claim (Figure 8).
//
//   $ ./topology_explorer [n]
#include <cstdlib>
#include <iostream>

#include "baselines/registry.hpp"
#include "harness/probe.hpp"
#include "metrics/table.hpp"
#include "service/lock_space.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace {

using namespace dmx;

topology::Tree make(const std::string& kind, int n) {
  if (kind == "line") return topology::Tree::line(n);
  if (kind == "star") return topology::Tree::star(n, 1);
  if (kind == "kary2") return topology::Tree::kary(n, 2);
  if (kind == "kary3") return topology::Tree::kary(n, 3);
  if (kind == "radiating") return topology::Tree::radiating_star(n, 4);
  return topology::Tree::random_tree(n, 99);
}

std::uint64_t worst_probe(service::LockSpace& space, ResourceId cs) {
  std::uint64_t worst = 0;
  for (NodeId holder = 1; holder <= space.nodes(); ++holder) {
    harness::park_token_at(space, cs, holder);
    for (NodeId requester = 1; requester <= space.nodes(); ++requester) {
      worst = std::max(
          worst,
          harness::single_entry_probe(space, cs, requester).messages_total);
      harness::park_token_at(space, cs, holder);
    }
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmx;
  const int n = argc > 1 ? std::atoi(argv[1]) : 13;
  std::cout << "Neilsen algorithm cost vs logical topology, N = " << n
            << "\n\n";

  metrics::Table table({"topology", "D", "worst (D+1)", "worst measured",
                        "avg measured", "saturated msgs/entry",
                        "mean wait (ticks)"});
  for (const std::string kind :
       {"line", "star", "kary2", "kary3", "radiating", "random"}) {
    const topology::Tree tree = make(kind, n);

    const proto::Algorithm neilsen = baselines::algorithm_by_name("Neilsen");
    service::LockSpaceConfig config;
    config.n = n;
    config.algorithm = neilsen;
    config.tree = tree;
    service::LockSpace space(std::move(config));
    const ResourceId cs = space.open("cs", neilsen, /*home=*/1);

    const std::uint64_t worst = worst_probe(space, cs);

    std::uint64_t total = 0;
    std::uint64_t probes = 0;
    for (NodeId holder = 1; holder <= n; ++holder) {
      harness::park_token_at(space, cs, holder);
      for (NodeId requester = 1; requester <= n; ++requester) {
        total += harness::single_entry_probe(space, cs, requester)
                     .messages_total;
        ++probes;
        harness::park_token_at(space, cs, holder);
      }
    }
    const double average =
        static_cast<double>(total) / static_cast<double>(probes);

    workload::WorkloadConfig wl;
    wl.target_entries = static_cast<std::uint64_t>(50 * n);
    wl.mean_think_ticks = 0.0;
    wl.hold_lo = wl.hold_hi = 2;
    wl.seed = 23;
    const workload::WorkloadResult result =
        workload::run_workload(space, cs, wl);

    table.add_row({kind, std::to_string(tree.diameter()),
                   std::to_string(tree.diameter() + 1), std::to_string(worst),
                   metrics::Table::num(average),
                   metrics::Table::num(result.messages_per_entry),
                   metrics::Table::num(result.waiting_ticks.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nThe star (the paper's \"centralized topology\", Figure 8) "
               "minimizes both the worst\ncase and the average — the "
               "paper's best-topology claim.\n";
  return 0;
}
