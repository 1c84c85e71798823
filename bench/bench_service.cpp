// Service-layer throughput sweep: resources x nodes x skew on the
// multi-resource LockSpace.
//
// The scaling argument: one resource serializes the whole cluster behind
// a single token, so aggregate throughput is pinned near 1/handoff-
// latency no matter how many nodes ask. Independent resources admit
// concurrent critical sections — aggregate entries per unit time grows
// with the resource count until clients saturate. Skew (Zipfian resource
// popularity) pulls the service back toward the serialized regime as the
// hot resources re-serialize their shard of the traffic.
//
// Two sections, both written by one run:
//  * sim — the deterministic sim substrate, entries per kilotick of
//    virtual time (exact, seed-reproducible; the scaling table);
//  * lease_sweep — hot-shard chaining before/after on the threaded
//    runtime, wall-clock entries per second over lease cap x skew.
//
// Threaded and TCP wall-clock throughput at fixed workload points is
// lockbench's job (`python3 lockbench/run.py`).
//
//   $ ./bench_service [--smoke] [out.json]
//
// --smoke shrinks both sections' targets so the fast test tier can run
// the whole program in seconds.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "metrics/table.hpp"
#include "service/lock_space.hpp"
#include "service/space_workload.hpp"
#include "service/threaded_lock_space.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::bench {
namespace {

struct SimPoint {
  int nodes;
  int resources;
  double zipf_s;
  std::uint64_t entries;
  std::uint64_t messages;
  Tick makespan;
  double entries_per_kilotick;
};

SimPoint run_sim_point(int nodes, int resources, double zipf_s,
                       std::uint64_t target_entries) {
  service::LockSpaceConfig config;
  config.n = nodes;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.seed = 7;
  service::LockSpace space(std::move(config));
  for (int i = 0; i < resources; ++i) {
    space.open("bench/shard-" + std::to_string(i));
  }
  service::SpaceWorkloadConfig wl;
  wl.target_entries = target_entries;
  wl.clients_per_node = 4;
  wl.zipf_s = zipf_s;
  wl.mean_think_ticks = 0.0;  // saturation
  wl.hold_lo = 0;
  wl.hold_hi = 2;
  wl.seed = 7;
  const service::SpaceWorkloadResult result =
      service::run_space_workload(space, wl);
  return {nodes,          resources,      zipf_s,
          result.entries, result.messages, result.makespan,
          result.entries_per_kilotick};
}

// ---- Lease sweep ------------------------------------------------------------
// Hot-shard chaining before/after: the same saturated zero-hold workload
// swept over lease caps (0 = chaining off — the pre-chaining baseline) at
// uniform and Zipf-0.99 skew. Zero hold makes the point deliberately
// hand-off-bound: every entry's cost is the grant hand-off itself, which
// is exactly what chaining removes for co-located waiters, so the ratio
// between cap 0 and the default cap is the headline chaining speedup.
// Delivery jitter (100us, the same knob the exclusivity stress tests use)
// stands in for network latency: a protocol round pays it, a local chain
// hand-off does not — without it the strand pool's in-process hand-off is
// so cheap that chaining's advantage shrinks to the scheduling overhead.
// 32 clients per node keeps the hot shard's local queues deep enough for
// real chains to form at 64 resources. Each point runs `repetitions`
// times, the grid in turn so slow phases of the host spread over every
// point; a point reports its median run with the [min, max] entries/s,
// and each speed-up is the median of the per-repetition ratios with
// their [min, max].

struct LeasePoint {
  double zipf_s;
  int max_chain;
  std::uint64_t entries;
  double entries_per_second;
  std::uint64_t chained_grants;
  std::uint64_t lease_yields;
  /// Fraction of entries served by a local hand-off (no protocol round).
  double chained_fraction;
  /// Mean closed-window chain length (global histogram, diffed per point).
  double mean_chain_len;
  /// Jain fairness index over per-client completed entries (1 = perfectly
  /// even, 1/clients = one client took everything).
  double jain_fairness;
  /// Spread of entries_per_second over the point's repetitions.
  double entries_per_second_min = 0.0;
  double entries_per_second_max = 0.0;
};

/// A median and the [min, max] of the values it was taken from.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return {values[values.size() / 2], values.front(), values.back()};
}

/// The sweep's points, and the cap-16 vs cap-0 speed-up per skew.
struct LeaseSweep {
  int repetitions = 0;
  std::vector<LeasePoint> points;
  Spread uniform_speedup;
  Spread zipf_speedup;
};

/// The process-wide closed-window chain-length histogram, copied out of
/// its snapshot (empty before the first window closes).
telemetry::HistogramSnapshot chain_len_histogram() {
  const telemetry::MetricsSnapshot snap =
      telemetry::Registry::global().snapshot();
  const telemetry::HistogramSnapshot* hist =
      snap.histogram("client.chain_len");
  return hist != nullptr ? *hist : telemetry::HistogramSnapshot{};
}

LeasePoint run_lease_point(int nodes, int resources, int workers,
                           int clients_per_node, double zipf_s,
                           int max_chain, unsigned jitter_us,
                           std::uint64_t target_entries) {
  service::ThreadedLockSpaceConfig config;
  config.n = nodes;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.workers = workers;
  config.jitter_us = jitter_us;
  config.lease.max_chain = max_chain;
  for (int i = 0; i < resources; ++i) {
    config.resources.push_back("bench/shard-" + std::to_string(i));
  }
  const telemetry::HistogramSnapshot before = chain_len_histogram();

  service::ThreadedLockSpace space(std::move(config));
  const service::ZipfSampler zipf(resources, zipf_s);
  std::atomic<std::uint64_t> claimed{0};
  std::vector<std::uint64_t> per_client(
      static_cast<std::size_t>(nodes) *
          static_cast<std::size_t>(clients_per_node),
      0);
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (NodeId v = 1; v <= nodes; ++v) {
    for (int c = 0; c < clients_per_node; ++c) {
      const std::size_t slot =
          static_cast<std::size_t>(v - 1) *
              static_cast<std::size_t>(clients_per_node) +
          static_cast<std::size_t>(c);
      threads.emplace_back([&, v, c, slot] {
        Rng rng(static_cast<std::uint64_t>(v) * 100 +
                static_cast<std::uint64_t>(c) + 1);
        while (claimed.fetch_add(1, std::memory_order_relaxed) <
               target_entries) {
          const auto r = static_cast<ResourceId>(zipf.sample(rng));
          service::ScopedLock guard(space, r, v);
          ++per_client[slot];
        }
      });
    }
  }
  for (auto& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();
  if (auto error = space.first_error()) {
    std::cerr << "threaded service error: " << *error << "\n";
    std::exit(1);
  }
  const telemetry::HistogramSnapshot after = chain_len_histogram();
  const std::uint64_t windows = after.count - before.count;
  const std::uint64_t chain_sum = after.sum - before.sum;

  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::uint64_t x : per_client) {
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  const double jain =
      sum_sq == 0.0 ? 1.0
                    : sum * sum / (static_cast<double>(per_client.size()) *
                                   sum_sq);
  const std::uint64_t entries = space.total_entries();
  return {zipf_s,
          max_chain,
          entries,
          static_cast<double>(entries) / seconds,
          space.chained_grants(),
          space.lease_yields(),
          entries == 0 ? 0.0
                       : static_cast<double>(space.chained_grants()) /
                             static_cast<double>(entries),
          windows == 0 ? 0.0
                       : static_cast<double>(chain_sum) /
                             static_cast<double>(windows),
          jain};
}

/// Runs the cap x skew grid `repetitions` times, prints the table, and
/// returns the median points and speed-ups.
LeaseSweep run_lease_sweep(std::uint64_t target_entries, int repetitions) {
  const int nodes = 8;
  const int resources = 64;
  const int workers = 4;
  const int clients_per_node = 32;
  const unsigned jitter_us = 100;
  const double skews[] = {0.0, 0.99};
  const int caps[] = {0, 1, 4, 16, 64, -1};
  constexpr std::size_t kCaps = std::size(caps);
  // runs[point][repetition], points in skew-major grid order.
  std::vector<std::vector<LeasePoint>> runs(std::size(skews) * kCaps);
  for (int rep = 0; rep < repetitions; ++rep) {
    std::size_t i = 0;
    for (const double s : skews) {
      for (const int cap : caps) {
        runs[i++].push_back(run_lease_point(nodes, resources, workers,
                                            clients_per_node, s, cap,
                                            jitter_us, target_entries));
      }
    }
  }
  LeaseSweep sweep;
  sweep.repetitions = repetitions;
  // The headline: cap 16 over cap 0, one ratio per repetition.
  constexpr std::size_t kCap16 = 3;
  for (std::size_t k = 0; k < std::size(skews); ++k) {
    std::vector<double> ratios;
    for (int rep = 0; rep < repetitions; ++rep) {
      const auto r = static_cast<std::size_t>(rep);
      ratios.push_back(runs[k * kCaps + kCap16][r].entries_per_second /
                       runs[k * kCaps][r].entries_per_second);
    }
    (k == 0 ? sweep.uniform_speedup : sweep.zipf_speedup) =
        spread_of(std::move(ratios));
  }
  for (std::vector<LeasePoint>& point_runs : runs) {
    std::sort(point_runs.begin(), point_runs.end(),
              [](const LeasePoint& a, const LeasePoint& b) {
                return a.entries_per_second < b.entries_per_second;
              });
    LeasePoint median = point_runs[point_runs.size() / 2];
    median.entries_per_second_min = point_runs.front().entries_per_second;
    median.entries_per_second_max = point_runs.back().entries_per_second;
    sweep.points.push_back(median);
  }
  metrics::Table table({"skew s", "lease cap", "entries/s", "min", "max",
                        "chained %", "mean chain", "yields", "fairness",
                        "vs cap 0"});
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const LeasePoint& p = sweep.points[i];
    const double off = sweep.points[i - i % kCaps].entries_per_second;
    table.add_row(
        {metrics::Table::num(p.zipf_s),
         p.max_chain < 0 ? "unbounded" : metrics::Table::num(p.max_chain, 0),
         metrics::Table::num(p.entries_per_second, 0),
         metrics::Table::num(p.entries_per_second_min, 0),
         metrics::Table::num(p.entries_per_second_max, 0),
         metrics::Table::num(p.chained_fraction * 100.0, 1),
         metrics::Table::num(p.mean_chain_len),
         metrics::Table::num(static_cast<double>(p.lease_yields), 0),
         metrics::Table::num(p.jain_fairness),
         metrics::Table::num(p.entries_per_second / off) + "x"});
  }
  table.print(std::cout);
  return sweep;
}

void append_lease_json(std::ostringstream& json, const LeaseSweep& sweep) {
  json << "  \"lease_sweep\": {\n"
       << "    \"nodes\": 8, \"resources\": 64, \"workers\": 4, "
          "\"clients_per_node\": 32, \"jitter_us\": 100, \"hold_us\": 0, "
          "\"repetitions\": "
       << sweep.repetitions << ",\n    \"points\": [\n";
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const LeasePoint& p = sweep.points[i];
    json << "      {\"zipf_s\": " << p.zipf_s
         << ", \"max_chain\": " << p.max_chain
         << ", \"entries\": " << p.entries
         << ", \"entries_per_second\": " << p.entries_per_second
         << ", \"entries_per_second_range\": [" << p.entries_per_second_min
         << ", " << p.entries_per_second_max << "]"
         << ", \"chained_grants\": " << p.chained_grants
         << ", \"lease_yields\": " << p.lease_yields
         << ", \"chained_fraction\": " << p.chained_fraction
         << ", \"mean_chain_len\": " << p.mean_chain_len
         << ", \"jain_fairness\": " << p.jain_fairness << "}"
         << (i + 1 < sweep.points.size() ? "," : "") << "\n";
  }
  const auto spread = [&json](const char* name, const Spread& sp) {
    json << "    \"" << name << "\": " << sp.median << ",\n    \"" << name
         << "_range\": [" << sp.min << ", " << sp.max << "]";
  };
  json << "    ],\n";
  spread("chaining_speedup_uniform", sweep.uniform_speedup);
  json << ",\n";
  spread("chaining_speedup_zipf99", sweep.zipf_speedup);
  json << "\n  }";
}

}  // namespace
}  // namespace dmx::bench

int main(int argc, char** argv) {
  using namespace dmx;
  using dmx::bench::SimPoint;

  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  std::cout << "bench_service — LockSpace throughput: resources x nodes x "
               "skew (Neilsen-backed, saturation)\n";

  std::vector<SimPoint> sim_points;
  for (const int nodes : {8, 16}) {
    std::cout << "\nSim substrate, N = " << nodes
              << ", 4 clients/node, entries per kilotick of virtual time\n\n";
    metrics::Table table({"resources", "skew s", "entries", "msgs/entry",
                          "makespan", "entries/ktick", "vs 1 resource"});
    for (const double s : {0.0, 0.99}) {
      double single = 0.0;
      for (const int resources : {1, 4, 16, 64}) {
        const SimPoint p = bench::run_sim_point(nodes, resources, s,
                                                smoke ? 2000 : 20000);
        if (resources == 1) single = p.entries_per_kilotick;
        sim_points.push_back(p);
        table.add_row(
            {metrics::Table::num(resources, 0), metrics::Table::num(s),
             metrics::Table::num(static_cast<double>(p.entries), 0),
             metrics::Table::num(static_cast<double>(p.messages) /
                                 static_cast<double>(p.entries)),
             metrics::Table::num(static_cast<double>(p.makespan), 0),
             metrics::Table::num(p.entries_per_kilotick),
             metrics::Table::num(p.entries_per_kilotick / single) + "x"});
      }
    }
    table.print(std::cout);
  }
  std::cout << "\nShape check: throughput grows with resource count (>= 3x "
               "by 64 resources at\nuniform skew); skew 0.99 lands between "
               "the serialized and fully sharded regimes\nas the hot shards "
               "re-serialize.\n";

  // Hot-shard chaining before/after (see run_lease_sweep): cap 0 is the
  // pre-chaining service, the default cap is the shipped release path.
  std::cout << "\nLease sweep: chaining before/after (N=8, 64 resources, "
               "zero hold, saturated)\n\n";
  const bench::LeaseSweep lease_sweep =
      bench::run_lease_sweep(smoke ? 400 : 6000, smoke ? 1 : 5);
  std::cout << "\nShape check: cap 0 is the pre-chaining baseline; the "
               "default cap (16) recovers the\nhand-off cost for "
               "co-located waiters (chained % rises with skew, >= 2x "
               "at Zipf 0.99)\nwhile yields and fairness stay healthy. "
               "Caps past 16 buy throughput with longer\nchains — the "
               "fairness/throughput trade the lease window is for.\n";

  if (out_path != nullptr) {
    std::ostringstream json;
    json << "{\n  \"sim\": [\n";
    for (std::size_t i = 0; i < sim_points.size(); ++i) {
      const SimPoint& p = sim_points[i];
      json << "    {\"nodes\": " << p.nodes
           << ", \"resources\": " << p.resources << ", \"zipf_s\": " << p.zipf_s
           << ", \"entries\": " << p.entries
           << ", \"messages\": " << p.messages
           << ", \"makespan_ticks\": " << p.makespan
           << ", \"entries_per_kilotick\": " << p.entries_per_kilotick << "}"
           << (i + 1 < sim_points.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    bench::append_lease_json(json, lease_sweep);
    json << "\n}\n";
    std::ofstream out(out_path);
    out << json.str();
    std::cout << "\nwrote " << out_path << "\n";
  }
  return 0;
}
