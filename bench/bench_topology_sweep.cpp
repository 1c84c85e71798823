// E2 — §6.1 topology dependence (and the Raymond comparison the paper
// leans on): Neilsen's worst case is D+1 on any tree — N on the straight
// line (worst topology), 3 on the centralized star (best topology) —
// while Raymond pays up to 2D. This bench sweeps topologies at fixed N
// and sweeps N on the two extreme topologies.
#include <iostream>

#include "bench_util.hpp"

namespace dmx::bench {
namespace {

void sweep_topologies(int n) {
  std::cout << "\nE2a: worst-case messages per entry across logical "
               "topologies, N = "
            << n << "\n\n";
  metrics::Table table({"topology", "diameter D", "Neilsen (D+1)",
                        "Neilsen measured", "Raymond (2D)",
                        "Raymond measured"});
  for (const std::string kind :
       {"line", "star", "kary3", "radiating", "random"}) {
    const topology::Tree tree = make_topology(kind, n, 5);
    const int d = tree.diameter();

    const auto neilsen =
        make_space(baselines::algorithm_by_name("Neilsen"), kind, n, 1, 5);
    const std::uint64_t neilsen_worst = worst_case_probe(*neilsen);

    const auto raymond =
        make_space(baselines::algorithm_by_name("Raymond"), kind, n, 1, 5);
    const std::uint64_t raymond_worst = worst_case_probe(*raymond);

    table.add_row({kind, std::to_string(d), std::to_string(d + 1),
                   std::to_string(neilsen_worst), std::to_string(2 * d),
                   std::to_string(raymond_worst)});
  }
  table.print(std::cout);
}

void sweep_n() {
  std::cout << "\nE2b: Neilsen worst case vs N on the extreme topologies "
               "(line: N, star: 3)\n\n";
  metrics::Table table({"N", "line measured", "line paper (N)",
                        "star measured", "star paper (3)"});
  for (int n : {3, 5, 9, 17, 25}) {
    const auto line =
        make_space(baselines::algorithm_by_name("Neilsen"), "line", n);
    const auto star =
        make_space(baselines::algorithm_by_name("Neilsen"), "star", n);
    table.add_row({std::to_string(n),
                   std::to_string(worst_case_probe(*line)), std::to_string(n),
                   std::to_string(worst_case_probe(*star)), "3"});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_topology_sweep — reproduces §6.1 topology analysis "
               "(worst = line, best = centralized star)\n";
  dmx::bench::sweep_topologies(15);
  dmx::bench::sweep_n();
  return 0;
}
