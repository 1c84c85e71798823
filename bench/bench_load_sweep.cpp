// E6 — §6.2 heavy-demand remark.
//
// "Under heavy demand, the performance is about the same, i.e., at most
// three messages per critical section entry." We sweep offered load
// (mean think time from light to saturation) on the star topology and
// report messages per entry for Neilsen against the closest comparison
// points. Under saturation every Neilsen entry costs at most 3 messages:
// one or two REQUEST hops plus one PRIVILEGE.
#include <iostream>

#include "bench_util.hpp"

namespace dmx::bench {
namespace {

void run(int n) {
  std::cout << "\nE6 (§6.2): messages per CS entry vs offered load, star "
               "topology, N = "
            << n << " (think time in ticks; 0 = saturation)\n\n";
  metrics::Table table({"mean think", "Neilsen", "Central", "Raymond",
                        "Suzuki-Kasami", "Ricart-Agrawala"});
  for (double think : {500.0, 200.0, 100.0, 50.0, 20.0, 5.0, 0.0}) {
    std::vector<std::string> row{metrics::Table::num(think, 0)};
    for (const char* name : {"Neilsen", "Central", "Raymond",
                             "Suzuki-Kasami", "Ricart-Agrawala"}) {
      const auto space =
          make_space(baselines::algorithm_by_name(name), "star", n, 2, 3);
      workload::WorkloadConfig wl;
      wl.target_entries = static_cast<std::uint64_t>(60 * n);
      wl.mean_think_ticks = think;
      wl.hold_lo = wl.hold_hi = 2;
      wl.seed = 17;
      const workload::WorkloadResult result =
          workload::run_workload(*space, kCs, wl);
      row.push_back(metrics::Table::num(result.messages_per_entry));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_load_sweep — reproduces the §6.2 heavy-demand claim "
               "(Neilsen stays <= 3 msgs/entry on the star)\n";
  dmx::bench::run(15);
  std::cout << "\nShape check: Neilsen and Central track each other around "
               "~3 and below;\nbroadcast algorithms pay O(N) regardless of "
               "load.\n";
  return 0;
}
