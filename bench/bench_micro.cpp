// M1 — engineering microbenchmarks (google-benchmark): substrate and
// protocol throughput. Not a paper experiment; guards against the
// simulator becoming the bottleneck of the reproduction.
#include <benchmark/benchmark.h>

#include <vector>

#include "baselines/registry.hpp"
#include "harness/cluster.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<Tick>(i % 97), [&sum] { ++sum; });
    }
    sim.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

// Timer churn: most scheduled events are cancelled before firing (the
// pattern of timeout guards and retry timers). Exercises true O(1)/O(log n)
// cancellation rather than lazy tombstoning.
void BM_SimulatorCancelHeavy(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventId> ids(events);
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      ids[i] = sim.schedule_at(static_cast<Tick>(i % 97),
                               [&fired] { ++fired; });
    }
    // Cancel three quarters; the survivors still fire in order.
    std::size_t cancelled = 0;
    for (std::size_t i = 0; i < events; ++i) {
      if (i % 4 != 0) cancelled += sim.cancel(ids[i]) ? 1 : 0;
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(cancelled);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimulatorCancelHeavy)->Arg(1000)->Arg(10000);

class PingMessage final : public net::Message {
 public:
  PingMessage() : net::Message(ping_kind()) {}
  std::size_t payload_bytes() const override { return 0; }
  net::MessagePtr clone() const override {
    return std::make_unique<PingMessage>(*this);
  }

 private:
  static net::MessageKind ping_kind() {
    static const net::MessageKind kind = net::MessageKind::of("PING");
    return kind;
  }
};

void BM_NetworkSendDeliver(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    net::Network network(sim, 2, std::make_unique<net::FixedLatency>(1));
    std::uint64_t delivered = 0;
    network.set_delivery_handler(
        [&delivered](const net::Envelope&) { ++delivered; });
    for (int i = 0; i < 1000; ++i) {
      network.send(1, 2, std::make_unique<PingMessage>());
    }
    sim.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_NetworkSendDeliver);

// Steady-state message throughput with warm pools: one long-lived
// simulator+network, send/deliver in rounds so every envelope slot, event
// slot, and message block is recycled. This is the regime the
// zero-allocation kernel optimizes for (BM_NetworkSendDeliver pays
// construction and warm-up inside the timed region).
void BM_MessagePoolSendDeliver(benchmark::State& state) {
  sim::Simulator sim;
  net::Network network(sim, 2, std::make_unique<net::FixedLatency>(1));
  std::uint64_t delivered = 0;
  network.set_delivery_handler(
      [&delivered](const net::Envelope&) { ++delivered; });
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      network.send(1, 2, std::make_unique<PingMessage>());
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_MessagePoolSendDeliver);

void BM_AlgorithmSaturatedEntries(benchmark::State& state,
                                  const std::string& name) {
  const int n = 16;
  for (auto _ : state) {
    harness::ClusterConfig config;
    config.n = n;
    config.initial_token_holder = 1;
    config.tree = topology::Tree::star(n, 1);
    harness::Cluster cluster(baselines::algorithm_by_name(name),
                             std::move(config));
    cluster.set_event_logging(false);
    workload::WorkloadConfig wl;
    wl.target_entries = 500;
    wl.mean_think_ticks = 0.0;
    wl.seed = 3;
    const workload::WorkloadResult result =
        workload::run_workload(cluster, wl);
    benchmark::DoNotOptimize(result.entries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          500);
}
BENCHMARK_CAPTURE(BM_AlgorithmSaturatedEntries, neilsen, "Neilsen");
BENCHMARK_CAPTURE(BM_AlgorithmSaturatedEntries, raymond, "Raymond");
BENCHMARK_CAPTURE(BM_AlgorithmSaturatedEntries, suzuki_kasami,
                  "Suzuki-Kasami");
BENCHMARK_CAPTURE(BM_AlgorithmSaturatedEntries, ricart_agrawala,
                  "Ricart-Agrawala");
BENCHMARK_CAPTURE(BM_AlgorithmSaturatedEntries, maekawa, "Maekawa");

void BM_TopologyDiameter(benchmark::State& state) {
  const topology::Tree tree = topology::Tree::random_tree(200, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.diameter());
  }
}
BENCHMARK(BM_TopologyDiameter);

// --- Telemetry callsite costs -----------------------------------------------
// The per-call budget of the always-on instrumentation: one relaxed
// fetch_add on a thread-local shard for counters, one bit_width + two
// fetch_adds for histograms, a few relaxed stores into the thread's ring
// for flight events. The Threads(8) variants show the shards stay independent
// (per-call cost must not grow with writer count).

void BM_TelemetryCounterAdd(benchmark::State& state) {
  static const telemetry::CounterId id =
      telemetry::Registry::global().counter("bench.counter_add");
  for (auto _ : state) {
    telemetry::count(id);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryCounterAdd);
BENCHMARK(BM_TelemetryCounterAdd)->Threads(8);

void BM_TelemetryHistogramRecord(benchmark::State& state) {
  static const telemetry::HistogramId id =
      telemetry::Registry::global().histogram("bench.hist_record");
  std::uint64_t value = 1;
  for (auto _ : state) {
    telemetry::observe(id, value);
    value = value * 2862933555777941757ull + 3037000493ull;  // cheap lcg
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryHistogramRecord);
BENCHMARK(BM_TelemetryHistogramRecord)->Threads(8);

void BM_TelemetryFlightRecord(benchmark::State& state) {
  for (auto _ : state) {
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRequest,
                                      /*resource=*/1, /*node=*/2,
                                      /*arg=*/3);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryFlightRecord);
BENCHMARK(BM_TelemetryFlightRecord)->Threads(8);

void BM_TelemetrySnapshot(benchmark::State& state) {
  static const telemetry::CounterId id =
      telemetry::Registry::global().counter("bench.snapshot_subject");
  telemetry::count(id);
  for (auto _ : state) {
    benchmark::DoNotOptimize(telemetry::Registry::global().snapshot());
  }
}
BENCHMARK(BM_TelemetrySnapshot);

}  // namespace
}  // namespace dmx

BENCHMARK_MAIN();
