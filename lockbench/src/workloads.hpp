// The closed-loop workloads of the lock-service benchmark and the totals
// one run of a workload accumulates over its slices.
//
// A run is split into slices of about one second. Each slice builds a
// fresh lock space (its construction time is a set-up sample), warms it
// up, measures a fixed wall-clock window, stops the clients, checks
// correctness and tears the space down. The run reports the mean over its
// slices of each slice's entries/s, acquire p50 and acquire p99. The host
// switches between a fast and a slow speed every minute or so; a mean
// weighs a run's phases by their share of it, where a median (of slices,
// or of the pooled operations) snaps to whichever phase held most of it.
// A traced run alternates untraced and traced slices, so the tracing
// overhead is measured inside one run on the same host state.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"

namespace lockbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Deliberate correctness break for the gate's self-test: "witness"
  /// double-enters one critical section, "count" miscounts one entry.
  std::string inject;
};

/// Service, executor and wire counters read through the program's public
/// accessors and telemetry snapshots, summed over slices.
struct LayerCounters {
  std::uint64_t chained = 0;
  std::uint64_t lease_yields = 0;
  std::uint64_t tasks = 0;
  std::uint64_t parks = 0;
  std::uint64_t steals = 0;
  std::uint64_t activations = 0;
  std::uint64_t batch_sum = 0;
  std::uint64_t batch_count = 0;
  /// Merged log2 buckets of the program's client.wait_ns histogram.
  std::array<std::uint64_t, 65> client_wait{};
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t epoll_wakeups = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t partial_frames = 0;
  std::uint64_t backpressure_waits = 0;

  void merge(const LayerCounters& other);
};

/// What one slice measured inside its window.
struct SliceFigures {
  double entries_per_s = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// The slices of one kind (untraced or traced) of a run, and the entries
/// completed inside their windows.
struct SliceSeries {
  std::vector<SliceFigures> slices;
  std::uint64_t entries = 0;

  double mean_rate() const;
  double mean_p50_ns() const;
  double mean_p99_ns() const;
};

struct RunTotals {
  /// Set-up samples: one per slice for the TCP mesh, several per slice
  /// for the threaded spaces; the run reports their median.
  std::vector<double> setup_s;
  SliceSeries untraced;
  SliceSeries traced;
  std::vector<std::string> slice_notes;  // per-slice figures and host steal
  /// Every untraced measured operation, for the printed latency shape.
  LatencyHistogram acquire;
  std::unique_ptr<SpanStats> spans;  // traced runs only
  std::vector<std::unique_ptr<SpanStats>> span_logs;  // per lane, for the file
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every entry of every slice, warm-up included; the denominator of
  /// the per-entry ratios.
  std::uint64_t entries = 0;
  std::uint64_t messages = 0;
  double measured_cpu_us = 0.0;
  StealMeter steal;
  double peak_rss_kb = 0.0;
  LayerCounters layers;
  /// Empty when every correctness check passed.
  std::string error;
};

/// CPUs the named workload is pinned to. On a shared 4-vCPU host the
/// hypervisor steals time from busy vCPUs in bursts (7-25% at times),
/// while a lone busy vCPU lost under 1% in the same spells, so the
/// threaded workloads run on one CPU. The TCP mesh needs a CPU per node
/// process: squeezed onto one CPU, whichever process holds the CPU keeps
/// re-entering on tokens it already owns while its peers wait to be
/// scheduled, and runs flip between two modes (30k and 80k entries/s). On
/// three or four CPUs it rides the steal bursts (7k-150k entries/s across
/// placements in one busy spell), which is why it is no benchmark
/// workload: traced runs use it as the transport probe.
int workload_cpus(const std::string& workload);

/// Runs the named workload; throws std::invalid_argument for an unknown
/// name.
RunTotals run_workload(const Options& options);

}  // namespace lockbench
