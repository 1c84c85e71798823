// E3 — §6.2 average bound on the best (centralized/star) topology.
//
// The paper derives, under "each node has an equal likelihood of holding
// the token" and a single outstanding request:
//   Neilsen:      3 - 5/N + 2/N^2   messages per entry,
//   centralized:  3 - 3/N,
// both approaching 3 as N grows. We measure the exact uniform average by
// enumerating every (token position, requester) pair.
#include <iostream>

#include "bench_util.hpp"

namespace dmx::bench {
namespace {

void run() {
  std::cout << "\nE3 (§6.2): average messages per CS entry, star topology, "
               "uniform token position\n\n";
  metrics::Table table({"N", "Neilsen measured", "Neilsen 3-5/N+2/N^2",
                        "Central measured", "Central 3-3/N"});
  for (int n : {3, 5, 10, 20, 50, 100}) {
    const auto neilsen =
        make_space(baselines::algorithm_by_name("Neilsen"), "star", n);
    const double neilsen_measured = average_probe(*neilsen);
    const double neilsen_paper =
        3.0 - 5.0 / n + 2.0 / (static_cast<double>(n) * n);

    const auto central =
        make_space(baselines::algorithm_by_name("Central"), "star", n);
    const double central_measured = average_probe(*central);
    const double central_paper = 3.0 - 3.0 / n;

    table.add_row({std::to_string(n), metrics::Table::num(neilsen_measured, 4),
                   metrics::Table::num(neilsen_paper, 4),
                   metrics::Table::num(central_measured, 4),
                   metrics::Table::num(central_paper, 4)});
  }
  table.print(std::cout);
  std::cout << "\nBoth columns converge to 3 as N grows — the paper's "
               "headline parity with centralized schemes.\n";
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_average_messages — reproduces the §6.2 average-bound "
               "analysis\n";
  dmx::bench::run();
  return 0;
}
