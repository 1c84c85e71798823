// E5 — §6.4 storage overhead.
//
// "Each node maintains three simple variables. A REQUEST message carries
// two integer variables, and a PRIVILEGE message needs no data structure."
// We report, per algorithm, the peak resident protocol state across all
// nodes during a contended run (captured after every event), plus the
// peak payload of the token/grant message and of a REQUEST message.
#include <algorithm>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "net/network.hpp"

namespace dmx::bench {
namespace {

struct StorageResult {
  std::size_t peak_node_bytes = 0;
  std::size_t peak_token_payload = 0;
  std::size_t request_payload = 0;
};

/// Observer capturing the largest payload per message kind.
class PayloadObserver final : public net::NetworkObserver {
 public:
  void on_send(const net::Envelope& env) override {
    auto& peak = peak_[std::string(env.message->kind())];
    peak = std::max(peak, env.message->payload_bytes());
  }
  void on_deliver(const net::Envelope&) override {}

  std::size_t peak(const std::string& kind) const {
    auto it = peak_.find(kind);
    return it == peak_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::size_t> peak_;
};

StorageResult measure(const proto::Algorithm& algo, int n) {
  const auto space = make_space(algo, "star", n, 1, 9);
  PayloadObserver observer;
  space->network().set_observer(&observer);

  StorageResult result;
  space->set_post_event_hook(
      [&result](service::LockSpace& s, ResourceId r) {
        for (NodeId v = 1; v <= s.nodes(); ++v) {
          result.peak_node_bytes =
              std::max(result.peak_node_bytes, s.node(r, v).state_bytes());
        }
      });

  workload::WorkloadConfig wl;
  wl.target_entries = static_cast<std::uint64_t>(20 * n);
  wl.mean_think_ticks = 2.0;  // high contention -> long queues
  wl.hold_lo = wl.hold_hi = 3;
  wl.seed = 13;
  workload::run_workload(*space, kCs, wl);

  for (const char* kind : {"PRIVILEGE", "TOKEN", "GRANT", "LOCKED"}) {
    result.peak_token_payload =
        std::max(result.peak_token_payload, observer.peak(kind));
  }
  result.request_payload = observer.peak("REQUEST");
  return result;
}

void run(int n) {
  std::cout << "\nE5 (§6.4): storage overhead under contention, N = " << n
            << "\n\n";
  metrics::Table table({"algorithm", "peak node state (B)",
                        "token/grant payload (B)", "REQUEST payload (B)"});
  for (const auto& algo : baselines::all_algorithms()) {
    const StorageResult r = measure(algo, n);
    table.add_row({algo.name, std::to_string(r.peak_node_bytes),
                   std::to_string(r.peak_token_payload),
                   std::to_string(r.request_payload)});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dmx::bench

int main() {
  std::cout << "bench_storage — reproduces the §6.4 storage-overhead "
               "comparison\n";
  for (int n : {10, 50}) {
    dmx::bench::run(n);
  }
  std::cout << "\nShape check: Neilsen keeps O(1) bytes per node (3 scalar "
               "variables) and a\npayload-free token, while queue/array "
               "algorithms grow with N.\n";
  return 0;
}
