// E7 (extension) — fairness beyond starvation freedom.
//
// The paper proves no node waits forever (Theorem 2) but reports no
// fairness numbers. This extension bench quantifies service fairness
// under saturation: Jain's index over per-node entry counts, plus bypass
// statistics (how many later requesters overtake an earlier one). The
// implicit FOLLOW queue serializes requests by arrival at the sink, so
// Neilsen is near-FIFO; the centralized coordinator is exactly FIFO;
// priority-based schemes (Maekawa, Ricart–Agrawala) reorder by timestamp.
#include <iostream>

#include "bench_util.hpp"
#include "harness/delay_analysis.hpp"
#include "metrics/summary.hpp"

namespace dmx::bench {
namespace {

void run(int n) {
  std::cout << "\nE7 (extension): fairness under saturation, star topology, "
               "N = "
            << n << "\n\n";
  metrics::Table table({"algorithm", "Jain index", "mean bypass",
                        "max bypass"});
  for (const auto& algo : baselines::all_algorithms()) {
    const auto space = make_space(algo, "star", n, 1, 3);
    workload::WorkloadConfig wl;
    wl.target_entries = static_cast<std::uint64_t>(50 * n);
    wl.mean_think_ticks = 0.0;
    wl.hold_lo = wl.hold_hi = n;
    wl.seed = 29;
    const workload::WorkloadResult result =
        workload::run_workload(*space, kCs, wl);

    std::vector<double> counts = harness::entries_per_node(result.events, n);
    counts.erase(counts.begin());
    const metrics::Summary bypasses = harness::bypass_counts(result.events);
    table.add_row({algo.name,
                   metrics::Table::num(metrics::jain_fairness_index(counts),
                                       4),
                   metrics::Table::num(bypasses.mean()),
                   metrics::Table::num(bypasses.max(), 0)});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_fairness — extension experiment: service fairness "
               "(not reported in the paper;\nquantifies the FIFO-ness "
               "implied by the implicit-queue design)\n";
  dmx::bench::run(10);
  return 0;
}
