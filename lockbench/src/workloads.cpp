#include "workloads.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "service/space_workload.hpp"
#include "service/threaded_lock_space.hpp"
#include "telemetry/telemetry.hpp"
#include "transport/distributed_lock_space.hpp"
#include "transport/process_harness.hpp"

namespace lockbench {
namespace {

using dmx::NodeId;
using dmx::ResourceId;
using dmx::service::LockError;
using dmx::service::ZipfSampler;
using dmx::transport::SharedWitness;

/// Bounded wait of every acquire; a grant slower than this counts as a
/// failed operation.
constexpr std::chrono::milliseconds kAcquireTimeout{2000};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// How a run's `seconds` split into slices: ~1 s windows, each after a
/// short warm-up on a freshly built space.
struct Plan {
  int slices = 2;
  double window_s = 1.0;
  double warmup_s = 0.1;
};

Plan plan_for(const Options& options) {
  Plan plan;
  plan.slices =
      std::clamp(static_cast<int>(std::lround(options.seconds)), 2, 60);
  plan.window_s = options.seconds / plan.slices;
  plan.warmup_s = std::min(0.1, 0.25 * plan.window_s);
  return plan;
}

/// Traced runs trace every other slice; the rest measure the untraced
/// figures the overhead is taken against.
bool slice_traced(const Options& options, int slice) {
  return options.trace && slice % 2 == 1;
}

std::vector<std::string> resource_names(int count) {
  std::vector<std::string> names;
  for (int i = 0; i < count; ++i) names.push_back("bench/r" + std::to_string(i));
  return names;
}

/// Independent per-lane seed derived from the run seed (splitmix64).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (a + 1) +
                    0xbf58476d1ce4e5b9ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void sleep_s(double seconds) {
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

double seconds_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

dmx::proto::Algorithm neilsen() {
  return dmx::baselines::algorithm_by_name("Neilsen");
}

/// Folds one slice's telemetry snapshot into the layer counters.
void add_snapshot(LayerCounters& c,
                  const dmx::telemetry::MetricsSnapshot& snap) {
  c.chained += snap.counter("client.chained_grants");
  c.lease_yields += snap.counter("client.lease_yields");
  c.tasks += snap.counter("exec.tasks_executed");
  c.parks += snap.counter("exec.parks");
  c.steals += snap.counter("exec.steals");
  c.activations += snap.counter("exec.strand_activations");
  if (const auto* batch = snap.histogram("exec.strand_batch")) {
    c.batch_sum += batch->sum;
    c.batch_count += batch->count;
  }
  // The gate records wait time per resource lane ("client.wait_ns.<r>");
  // summing the lanes here works whether or not a space rolled them up.
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind("client.wait_ns.", 0) != 0) continue;
    for (std::size_t b = 0; b < c.client_wait.size(); ++b) {
      c.client_wait[b] += hist.buckets[b];
    }
  }
  c.frames += snap.counter("wire.frames_sent");
  c.bytes += snap.counter("wire.bytes_sent");
  c.epoll_wakeups += snap.counter("wire.epoll_wakeups");
  c.frames_received += snap.counter("wire.frames_received");
  c.partial_frames += snap.counter("wire.partial_frames");
  c.backpressure_waits += snap.counter("wire.backpressure_waits");
}

void set_error(std::string& error, const std::string& what) {
  if (error.empty()) error = what;
}

/// Files one slice's measured entries and host steal, with a note of its
/// rate, steal and failed acquires.
void record_slice(RunTotals& t, bool traced, std::uint64_t entries,
                  double seconds, std::uint64_t failed,
                  const LatencyHistogram& acquire, const CpuTimes& begin,
                  const CpuTimes& end) {
  StealMeter steal;
  steal.add(begin, end);
  t.steal.add(begin, end);
  SliceSeries& series = traced ? t.traced : t.untraced;
  series.slices.push_back({static_cast<double>(entries) / seconds,
                           acquire.quantile(0.50), acquire.quantile(0.99)});
  series.entries += entries;
  char line[200];
  std::snprintf(line, sizeof line,
                "slice %zu%s: %.6g entries/s, p50 %.6g us, p99 %.6g us, "
                "steal %.3f, %llu failed",
                t.slice_notes.size() + 1, traced ? " (traced)" : "",
                static_cast<double>(entries) / seconds,
                acquire.quantile(0.50) / 1e3, acquire.quantile(0.99) / 1e3,
                steal.fraction(), static_cast<unsigned long long>(failed));
  t.slice_notes.push_back(line);
}

// --- closed-loop clients of the threaded and TCP spaces ---------------------

/// One client thread's tallies. Histograms are large, so lanes live on
/// the heap (or in the shared region, for node processes).
struct LaneState {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t entries = 0;
  std::uint64_t measured = 0;
  /// Process CPU time when this client first saw the measure phase and
  /// when it saw the stop (node processes report their own CPU this way).
  double cpu_begin_us = 0.0;
  double cpu_end_us = 0.0;
  LatencyHistogram acquire;
};

struct ClientSpec {
  std::uint32_t lane = 0;
  NodeId node = dmx::kNilNode;
  std::uint64_t seed = 0;
  int resources = 1;
  double zipf_s = 0.0;
  bool inject_witness = false;
};

/// The closed loop: draw a resource, try_lock_for it, pass the witness,
/// unlock, repeat until the stop phase. Only operations that complete in
/// the measure phase are timed into the histogram.
template <typename Lock, typename Unlock>
void client_loop(const std::atomic<int>& phase, const ClientSpec& spec,
                 SharedWitness& witness, LaneState& lane, SpanStats* spans,
                 Lock&& lock, Unlock&& unlock) {
  dmx::Rng rng(spec.seed);
  const ZipfSampler zipf(spec.resources, spec.zipf_s);
  bool inject = spec.inject_witness;
  bool measuring = false;
  std::uint64_t op = static_cast<std::uint64_t>(spec.lane) << 40;
  for (;;) {
    const int now_phase = phase.load(std::memory_order_acquire);
    if (now_phase == kStop) break;
    if (now_phase == kMeasure && !measuring) {
      measuring = true;
      lane.cpu_begin_us = process_cpu_us();
    }
    const std::uint64_t t_pick = spans != nullptr ? now_ns() : 0;
    const auto r = static_cast<ResourceId>(zipf.sample(rng));
    ++lane.attempted;
    const std::uint64_t t_call = now_ns();
    const LockError result = lock(r);
    const std::uint64_t t_grant = now_ns();
    if (result != LockError::kOk) {
      ++lane.failed;
      continue;
    }
    witness.enter(r, spec.node);
    if (inject && measuring) {
      inject = false;
      witness.enter(r, spec.node);  // deliberate double entry
      witness.exit(r);
    }
    witness.exit(r);
    const std::uint64_t t_release = spans != nullptr ? now_ns() : 0;
    unlock(r);
    ++lane.entries;
    if (phase.load(std::memory_order_acquire) == kMeasure) {
      ++lane.measured;
      lane.acquire.add(t_grant - t_call);
    }
    if (spans != nullptr) {
      const std::uint64_t t_released = now_ns();
      spans->record_op(spec.lane, op++, t_pick, t_call, t_grant, t_release,
                       t_released, now_ns());
    }
  }
  lane.cpu_end_us = process_cpu_us();
  if (!measuring) lane.cpu_begin_us = lane.cpu_end_us;
}

/// Merges one slice's per-lane tallies and span logs into the totals and
/// its acquire times into `slice_acquire`; returns the entries completed
/// inside the measured window.
std::uint64_t merge_lanes(RunTotals& t, bool traced,
                          const std::vector<const LaneState*>& lanes,
                          const std::vector<const SpanStats*>& spans,
                          LatencyHistogram& slice_acquire) {
  std::uint64_t measured = 0;
  for (const LaneState* lane : lanes) {
    t.attempted += lane->attempted;
    t.failed += lane->failed;
    measured += lane->measured;
    slice_acquire.merge(lane->acquire);
  }
  if (!traced) t.acquire.merge(slice_acquire);
  const bool keep_logs = t.span_logs.empty();  // first traced slice only
  for (const SpanStats* s : spans) {
    t.spans->merge(*s);
    if (keep_logs) t.span_logs.push_back(std::make_unique<SpanStats>(*s));
  }
  return measured;
}

// --- threaded-spread / threaded-hot -----------------------------------------

constexpr int kExtraSetups = 31;

struct ThreadedShape {
  int nodes = 4;
  int clients_per_node = 1;
  int resources = 64;
  double zipf_s = 0.0;
  int workers = 2;
};

void run_threaded_slice(const Options& options, const ThreadedShape& shape,
                        const Plan& plan, int slice, RunTotals& t) {
  const bool traced = slice_traced(options, slice);
  dmx::service::ThreadedLockSpaceConfig config;
  config.n = shape.nodes;
  config.algorithm = neilsen();
  config.resources = resource_names(shape.resources);
  config.seed = derive_seed(options.seed, 1000, static_cast<std::uint64_t>(slice));
  config.workers = shape.workers;

  // Construction takes 0.02-0.2 ms, mostly thread start-up, so one
  // sample per slice is noisy: every slice also builds and drops
  // kExtraSetups spaces, and each build is one set-up sample.
  for (int extra = 0; extra < kExtraSetups; ++extra) {
    auto copy = config;
    const std::uint64_t start = now_ns();
    dmx::service::ThreadedLockSpace throwaway(std::move(copy));
    t.setup_s.push_back(seconds_between(start, now_ns()));
  }
  const std::uint64_t setup_start = now_ns();
  auto space = std::make_unique<dmx::service::ThreadedLockSpace>(std::move(config));
  t.setup_s.push_back(seconds_between(setup_start, now_ns()));
  dmx::telemetry::Registry::global().reset();

  auto witness = std::make_unique<SharedWitness>();
  std::atomic<int> phase{kWarmup};
  const int lanes = shape.nodes * shape.clients_per_node;
  std::vector<std::unique_ptr<LaneState>> state;
  std::vector<std::unique_ptr<SpanStats>> spans;
  std::vector<std::string> errors(static_cast<std::size_t>(lanes));
  std::vector<std::thread> threads;
  for (int lane = 0; lane < lanes; ++lane) {
    state.push_back(std::make_unique<LaneState>());
    spans.push_back(traced ? std::make_unique<SpanStats>() : nullptr);
  }
  for (int lane = 0; lane < lanes; ++lane) {
    ClientSpec spec;
    spec.lane = static_cast<std::uint32_t>(lane);
    spec.node = lane / shape.clients_per_node + 1;
    spec.seed = derive_seed(options.seed, static_cast<std::uint64_t>(slice),
                            static_cast<std::uint64_t>(lane));
    spec.resources = shape.resources;
    spec.zipf_s = shape.zipf_s;
    spec.inject_witness = options.inject == "witness" && lane == 0;
    threads.emplace_back([&, spec, lane] {
      const auto index = static_cast<std::size_t>(lane);
      try {
        client_loop(
            phase, spec, *witness, *state[index], spans[index].get(),
            [&](ResourceId r) {
              return space->try_lock_for(r, spec.node, kAcquireTimeout);
            },
            [&](ResourceId r) { space->unlock(r, spec.node); });
      } catch (const std::exception& e) {
        errors[index] = e.what();
      }
    });
  }
  sleep_s(plan.warmup_s);
  const CpuTimes cpu_begin = read_cpu_times();
  const double cpu_us_begin = process_cpu_us();
  const std::uint64_t window_start = now_ns();
  phase.store(kMeasure, std::memory_order_release);
  sleep_s(plan.window_s);
  phase.store(kStop, std::memory_order_release);
  const std::uint64_t window_end = now_ns();
  t.measured_cpu_us += process_cpu_us() - cpu_us_begin;
  const CpuTimes cpu_end = read_cpu_times();
  for (std::thread& thread : threads) thread.join();

  std::vector<const LaneState*> lane_views;
  std::vector<const SpanStats*> span_views;
  std::uint64_t client_entries = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    const auto index = static_cast<std::size_t>(lane);
    lane_views.push_back(state[index].get());
    if (spans[index]) span_views.push_back(spans[index].get());
    client_entries += state[index]->entries;
    if (!errors[index].empty()) set_error(t.error, "client " + errors[index]);
  }
  const std::uint64_t failed_before = t.failed;
  const auto slice_acquire = std::make_unique<LatencyHistogram>();
  const std::uint64_t measured =
      merge_lanes(t, traced, lane_views, span_views, *slice_acquire);
  record_slice(t, traced, measured, seconds_between(window_start, window_end),
               t.failed - failed_before, *slice_acquire, cpu_begin, cpu_end);
  if (options.inject == "count") ++client_entries;

  if (const auto error = space->first_error()) {
    set_error(t.error, "first_error(): " + *error);
  }
  if (const int violations = witness->violations.load(); violations != 0) {
    set_error(t.error, "witness saw " + std::to_string(violations) +
                           " overlapping critical sections");
  }
  const std::uint64_t space_entries = space->total_entries();
  if (client_entries != space_entries) {
    set_error(t.error, "client-counted entries " +
                           std::to_string(client_entries) +
                           " != total_entries() " +
                           std::to_string(space_entries));
  }
  t.entries += space_entries;
  t.messages += space->messages_sent();
  add_snapshot(t.layers, space->telemetry_snapshot());
}

RunTotals run_threaded(const Options& options, const ThreadedShape& shape) {
  RunTotals t;
  if (options.trace) t.spans = std::make_unique<SpanStats>();
  const Plan plan = plan_for(options);
  for (int slice = 0; slice < plan.slices; ++slice) {
    run_threaded_slice(options, shape, plan, slice, t);
  }
  t.peak_rss_kb = peak_rss_kb();
  return t;
}

// --- tcp-mesh ---------------------------------------------------------------

constexpr int kMeshNodes = 3;
constexpr int kMeshResources = 4;

/// What one node process reports back to the parent.
struct NodeReport {
  std::uint64_t ready_ns = 0;
  std::uint64_t space_entries = 0;
  std::uint64_t messages = 0;
  double peak_rss_kb = 0.0;
  LayerCounters layers;
  LaneState lane;
  SpanStats spans;
  char error[256] = {};
};

/// Parent/child shared state of one mesh slice, in a MAP_SHARED region.
struct MeshControl {
  std::atomic<int> phase{kWarmup};
  std::atomic<int> ready{0};
  std::atomic<int> done{0};
  NodeReport nodes[kMeshNodes + 1];  // by node id
};

void copy_error(NodeReport& report, const std::string& what) {
  if (report.error[0] != '\0') return;
  std::strncpy(report.error, what.c_str(), sizeof report.error - 1);
}

/// Waits (bounded) until `counter` reaches `target`.
bool await_count(const std::atomic<int>& counter, int target,
                 std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (counter.load(std::memory_order_acquire) < target) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

int run_mesh_node(const Options& options, int slice, bool traced,
                  MeshControl& control, NodeId self,
                  const dmx::transport::ProcessHarness::Rendezvous& rendezvous,
                  SharedWitness& witness) {
  NodeReport& report = control.nodes[self];
  try {
    dmx::transport::DistributedLockSpaceConfig config;
    config.self = self;
    config.n = kMeshNodes;
    config.algorithm = neilsen();
    config.resources = resource_names(kMeshResources);
    config.seed = derive_seed(options.seed, 1000, static_cast<std::uint64_t>(slice));
    config.workers = 1;
    dmx::transport::DistributedLockSpace space(std::move(config));
    const std::uint16_t port = space.listen();
    const std::vector<std::uint16_t> ports = rendezvous(port);
    for (NodeId peer = 1; peer < self; ++peer) {
      space.connect(peer, ports[static_cast<std::size_t>(peer)]);
    }
    space.start();
    if (!space.wait_connected(std::chrono::milliseconds(10000))) {
      copy_error(report, "mesh did not connect");
      return 2;
    }
    report.ready_ns = now_ns();
    dmx::telemetry::Registry::global().reset();
    control.ready.fetch_add(1, std::memory_order_acq_rel);

    ClientSpec spec;
    spec.lane = static_cast<std::uint32_t>(self);
    spec.node = self;
    spec.seed = derive_seed(options.seed, static_cast<std::uint64_t>(slice),
                            static_cast<std::uint64_t>(self));
    spec.resources = kMeshResources;
    spec.inject_witness = options.inject == "witness" && self == 1;
    client_loop(
        control.phase, spec, witness, report.lane,
        traced ? &report.spans : nullptr,
        [&](ResourceId r) { return space.try_lock_for(r, kAcquireTimeout); },
        [&](ResourceId r) { space.unlock(r); });

    // Departure is collective: nobody shuts down while a sibling's last
    // request may still need this node.
    control.done.fetch_add(1, std::memory_order_acq_rel);
    if (!await_count(control.done, kMeshNodes,
                     std::chrono::milliseconds(10000))) {
      copy_error(report, "siblings did not finish");
    }
    report.space_entries = space.total_entries();
    const dmx::telemetry::MetricsSnapshot snap = space.telemetry_snapshot();
    add_snapshot(report.layers, snap);
    report.messages = snap.counter("wire.frames_sent");
    if (const auto error = space.first_error()) {
      copy_error(report, "first_error(): " + *error);
    }
    space.shutdown();
    report.peak_rss_kb = peak_rss_kb();
  } catch (const std::exception& e) {
    copy_error(report, e.what());
  }
  return report.error[0] == '\0' ? 0 : 3;
}

void run_mesh_slice(const Options& options, const Plan& plan, int slice,
                    RunTotals& t) {
  const bool traced = slice_traced(options, slice);
  void* region = ::mmap(nullptr, sizeof(MeshControl), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) throw std::runtime_error("mmap failed");
  auto* control = new (region) MeshControl();

  double window_s = 0.0;
  bool started = false;
  CpuTimes cpu_begin;
  CpuTimes cpu_end;
  const std::uint64_t fork_ns = now_ns();
  const dmx::transport::HarnessResult result =
      dmx::transport::ProcessHarness::run(
          kMeshNodes,
          [&](NodeId self,
              const dmx::transport::ProcessHarness::Rendezvous& rendezvous,
              SharedWitness& witness) {
            return run_mesh_node(options, slice, traced, *control, self,
                                 rendezvous, witness);
          },
          [&](const std::vector<pid_t>&, SharedWitness&) {
            if (!await_count(control->ready, kMeshNodes,
                             std::chrono::milliseconds(15000))) {
              control->phase.store(kStop, std::memory_order_release);
              return;
            }
            started = true;
            sleep_s(plan.warmup_s);
            cpu_begin = read_cpu_times();
            const std::uint64_t window_start = now_ns();
            control->phase.store(kMeasure, std::memory_order_release);
            sleep_s(plan.window_s);
            control->phase.store(kStop, std::memory_order_release);
            window_s = seconds_between(window_start, now_ns());
            cpu_end = read_cpu_times();
          });

  if (!started) set_error(t.error, "tcp mesh never became ready");
  std::uint64_t ready_ns = 0;
  std::uint64_t client_entries = 0;
  std::uint64_t space_entries = 0;
  double peak_kb = 0.0;
  std::vector<const LaneState*> lanes;
  std::vector<const SpanStats*> spans;
  for (NodeId v = 1; v <= kMeshNodes; ++v) {
    const NodeReport& report = control->nodes[v];
    if (report.error[0] != '\0') {
      set_error(t.error, "node " + std::to_string(v) + ": " + report.error);
    }
    ready_ns = std::max(ready_ns, report.ready_ns);
    client_entries += report.lane.entries;
    space_entries += report.space_entries;
    peak_kb = std::max(peak_kb, report.peak_rss_kb);
    t.messages += report.messages;
    t.measured_cpu_us += report.lane.cpu_end_us - report.lane.cpu_begin_us;
    t.layers.merge(report.layers);
    lanes.push_back(&report.lane);
    if (traced) spans.push_back(&report.spans);
  }
  if (started) {
    t.setup_s.push_back(seconds_between(fork_ns, ready_ns));
    const std::uint64_t failed_before = t.failed;
    const auto slice_acquire = std::make_unique<LatencyHistogram>();
    const std::uint64_t measured =
        merge_lanes(t, traced, lanes, spans, *slice_acquire);
    record_slice(t, traced, measured, window_s, t.failed - failed_before,
                 *slice_acquire, cpu_begin, cpu_end);
  }
  if (options.inject == "count") ++client_entries;
  if (!result.all_ok()) {
    std::string codes;
    for (std::size_t v = 1; v < result.exit_codes.size(); ++v) {
      codes += " " + std::to_string(result.exit_codes[v]);
    }
    set_error(t.error, "node exit codes:" + codes);
  }
  if (result.witness.violations != 0) {
    set_error(t.error, "SharedWitness.violations = " +
                           std::to_string(result.witness.violations));
  }
  if (client_entries != space_entries ||
      result.witness.entries != space_entries) {
    set_error(t.error, "client-counted entries " +
                           std::to_string(client_entries) +
                           ", witness entries " +
                           std::to_string(result.witness.entries) +
                           ", total_entries() summed " +
                           std::to_string(space_entries));
  }
  t.entries += space_entries;
  t.peak_rss_kb = std::max(t.peak_rss_kb, peak_kb);
  control->~MeshControl();
  ::munmap(region, sizeof(MeshControl));
}

RunTotals run_tcp_mesh(const Options& options) {
  RunTotals t;
  if (options.trace) t.spans = std::make_unique<SpanStats>();
  const Plan plan = plan_for(options);
  for (int slice = 0; slice < plan.slices; ++slice) {
    run_mesh_slice(options, plan, slice, t);
  }
  return t;
}

}  // namespace

namespace {

double mean_of(const std::vector<SliceFigures>& slices,
               double SliceFigures::*field) {
  if (slices.empty()) return 0.0;
  double sum = 0.0;
  for (const SliceFigures& slice : slices) sum += slice.*field;
  return sum / static_cast<double>(slices.size());
}

}  // namespace

double SliceSeries::mean_rate() const {
  return mean_of(slices, &SliceFigures::entries_per_s);
}

double SliceSeries::mean_p50_ns() const {
  return mean_of(slices, &SliceFigures::p50_ns);
}

double SliceSeries::mean_p99_ns() const {
  return mean_of(slices, &SliceFigures::p99_ns);
}

void LayerCounters::merge(const LayerCounters& o) {
  chained += o.chained;
  lease_yields += o.lease_yields;
  tasks += o.tasks;
  parks += o.parks;
  steals += o.steals;
  activations += o.activations;
  batch_sum += o.batch_sum;
  batch_count += o.batch_count;
  for (std::size_t b = 0; b < client_wait.size(); ++b) {
    client_wait[b] += o.client_wait[b];
  }
  frames += o.frames;
  bytes += o.bytes;
  epoll_wakeups += o.epoll_wakeups;
  frames_received += o.frames_received;
  partial_frames += o.partial_frames;
  backpressure_waits += o.backpressure_waits;
}

int workload_cpus(const std::string& workload) {
  return workload == "tcp-mesh" ? kMeshNodes : 1;
}

RunTotals run_workload(const Options& options) {
  if (options.workload == "threaded-spread") {
    return run_threaded(options, ThreadedShape{4, 1, 64, 0.0, 2});
  }
  if (options.workload == "threaded-hot") {
    return run_threaded(options, ThreadedShape{2, 2, 4, 0.99, 2});
  }
  if (options.workload == "tcp-mesh") return run_tcp_mesh(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace lockbench
