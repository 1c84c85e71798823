// E4 — §6.3 synchronization delay.
//
// Sequential messages between one node leaving its CS and the next
// (already blocked) node entering. With unit link latency, the tick gap
// equals the message count on the critical path. Paper values:
//   Neilsen 1, Suzuki–Kasami 1, Singhal 1, Raymond <= D, centralized 2.
// CS hold times are >= N ticks so every pending request is enqueued by
// exit — the scenario the paper defines the metric for.
#include <iostream>

#include "bench_util.hpp"

namespace dmx::bench {
namespace {

std::string paper_delay(const std::string& name, int diameter) {
  if (name == "Neilsen" || name == "Suzuki-Kasami" || name == "Singhal") {
    return "1";
  }
  if (name == "Raymond") return "<= D = " + std::to_string(diameter);
  if (name == "Central") return "2";
  if (name == "Maekawa") return "(not stated)";
  return "(not stated)";
}

void run(const std::string& topology_kind, int n) {
  const topology::Tree tree = make_topology(topology_kind, n, 3);
  std::cout << "\nE4 (§6.3): synchronization delay, " << topology_kind
            << " topology, N = " << n << ", D = " << tree.diameter()
            << ", saturated\n\n";
  metrics::Table table(
      {"algorithm", "paper", "measured mean", "measured max"});
  for (const auto& algo : baselines::all_algorithms()) {
    const auto space = make_space(algo, topology_kind, n, /*holder=*/1, 3);
    workload::WorkloadConfig wl;
    wl.target_entries = static_cast<std::uint64_t>(30 * n);
    wl.mean_think_ticks = 0.0;
    wl.hold_lo = wl.hold_hi = n;
    wl.seed = 11;
    const workload::WorkloadResult result =
        workload::run_workload(*space, kCs, wl);
    table.add_row({algo.name, paper_delay(algo.name, tree.diameter()),
                   metrics::Table::num(result.sync_delay_ticks.mean()),
                   metrics::Table::num(result.sync_delay_ticks.max(), 0)});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_sync_delay — reproduces the §6.3 synchronization-"
               "delay comparison\n";
  dmx::bench::run("star", 10);
  dmx::bench::run("line", 10);
  std::cout << "\nShape check: Neilsen's hand-off is a single PRIVILEGE hop "
               "on every topology —\nhalf the centralized scheme's RELEASE+"
               "GRANT and up to D times cheaper than Raymond.\n";
  return 0;
}
