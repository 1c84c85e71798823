// E1 — §6.1 upper-bound comparison.
//
// Reproduces the paper's list of worst-case messages per critical-section
// entry. For every algorithm we measure the worst single-entry cost over
// all (token position, requester) placements on the centralized (star)
// topology — the setting §6.1 quotes "3" for — plus the paper's closed-
// form bound evaluated at the same N. Maekawa's contended worst case
// (the 7*sqrt(N) figure) additionally needs adversarial interleaving, so
// we report both the uncontended probe and the maximum observed per-entry
// cost under a saturated workload.
#include <cmath>
#include <iostream>
#include <sstream>

#include "bench_util.hpp"

namespace dmx::bench {
namespace {

std::string paper_bound(const std::string& name, int n, int diameter) {
  std::ostringstream oss;
  if (name == "Lamport") {
    oss << "3(N-1) = " << 3 * (n - 1);
  } else if (name == "Ricart-Agrawala") {
    oss << "2(N-1) = " << 2 * (n - 1);
  } else if (name == "Carvalho-Roucairol") {
    oss << "0..2(N-1) = 0.." << 2 * (n - 1);
  } else if (name == "Suzuki-Kasami" || name == "Singhal") {
    oss << "N = " << n;
  } else if (name == "Maekawa") {
    oss << "~3..7*sqrt(N) = " << static_cast<int>(3 * std::sqrt(n)) << ".."
        << static_cast<int>(7 * std::sqrt(n));
  } else if (name == "Raymond") {
    oss << "2D = " << 2 * diameter;
  } else if (name == "Neilsen") {
    oss << "D+1 = " << diameter + 1;
  } else if (name == "Central") {
    oss << "3";
  }
  return oss.str();
}

void run(int n) {
  const int diameter = 2;  // star topology
  std::cout << "\nE1 (§6.1): worst-case messages per CS entry, centralized "
               "(star) topology, N = "
            << n << "\n\n";
  metrics::Table table({"algorithm", "paper worst case", "measured worst",
                        "saturated mean"});
  for (const auto& algo : baselines::all_algorithms()) {
    const auto probe_space = make_space(algo, "star", n, /*holder=*/2);
    const std::uint64_t worst = worst_case_probe(*probe_space);

    const auto load_space = make_space(algo, "star", n, 2);
    workload::WorkloadConfig wl;
    wl.target_entries = static_cast<std::uint64_t>(40 * n);
    wl.mean_think_ticks = 0.0;
    wl.hold_lo = wl.hold_hi = n;
    wl.seed = 7;
    const workload::WorkloadResult result =
        workload::run_workload(*load_space, kCs, wl);

    table.add_row({algo.name, paper_bound(algo.name, n, diameter),
                   std::to_string(worst),
                   metrics::Table::num(result.messages_per_entry)});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_upper_bound — reproduces §6.1 (worst-case message "
               "complexity comparison)\n";
  for (int n : {5, 10, 20}) {
    dmx::bench::run(n);
  }
  std::cout << "\nShape check: Neilsen matches the centralized scheme's 3 "
               "and beats Raymond's 4;\nbroadcast algorithms grow linearly "
               "with N while quorum/tree schemes stay sublinear.\n";
  return 0;
}
