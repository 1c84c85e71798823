// lockbench: closed-loop benchmark of the dagmx lock service on the
// threaded and TCP substrates, with exact-count sim probes of the protocol.
//
//   lockbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--inject witness|count]
//
// Prints every metric as "name value unit", then one JSON result line.
// With --trace 1 the run alternates untraced and traced slices, runs the
// layer microbenches and a short TCP mesh probe, and writes the recorded
// spans to --spans. A failed correctness check prints the reason to
// stderr, no result, and exits 1.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "measure.hpp"
#include "micro.hpp"
#include "workloads.hpp"

namespace lockbench {
namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "lockbench: " << problem
            << "\nusage: lockbench --workload <threaded-spread|threaded-hot|"
               "tcp-mesh> --seed <n> --seconds <s> --trace "
               "<0|1> [--spans <path>] [--inject witness|count]\n";
  std::exit(2);
}

struct Args {
  Options options;
  std::string spans_path;
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.options.trace = std::stoi(value) != 0;
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else if (flag == "--inject") {
        if (value != "witness" && value != "count") usage("bad --inject");
        args.options.inject = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.options.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Length of the mesh probe: two slices of one second.
constexpr double kMeshProbeSeconds = 2.0;

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double per_entry(std::uint64_t count, std::uint64_t entries) {
  return ratio(static_cast<double>(count), static_cast<double>(entries));
}

void add_end_to_end(Report& report, const RunTotals& t) {
  report.add("entries_per_s", t.untraced.mean_rate(), "1/s");
  report.add("acquire_p50_us", t.untraced.mean_p50_ns() / 1e3, "us");
  report.add("acquire_p99_us", t.untraced.mean_p99_ns() / 1e3, "us");
  report.add("msgs_per_entry", per_entry(t.messages, t.entries), "msgs/entry");
  report.add("setup_s", median(t.setup_s), "s");
  report.add("peak_rss_mb", t.peak_rss_kb / 1024.0, "MB");
}

void add_counted_layers(Report& report, const RunTotals& t, double calib_ns) {
  const LayerCounters& c = t.layers;
  const std::uint64_t e = t.entries;
  report.add("service.chained_frac", per_entry(c.chained, e), "fraction");
  report.add("service.lease_yields_per_kentry",
             1000.0 * per_entry(c.lease_yields, e), "1/kentry");
  report.add("service.client_wait_p50_us",
             log2_bucket_quantile(c.client_wait.data(), 65, 0.50) / 1e3, "us");
  report.add("service.client_wait_p99_us",
             log2_bucket_quantile(c.client_wait.data(), 65, 0.99) / 1e3, "us");
  report.add("service.failed_frac", per_entry(t.failed, t.attempted),
             "fraction");
  report.add("exec.tasks_per_entry", per_entry(c.tasks, e), "tasks/entry");
  report.add("exec.parks_per_entry", per_entry(c.parks, e), "parks/entry");
  report.add("exec.steals_per_entry", per_entry(c.steals, e), "steals/entry");
  report.add("exec.strand_activations_per_entry", per_entry(c.activations, e),
             "acts/entry");
  report.add("exec.strand_batch_mean", per_entry(c.batch_sum, c.batch_count),
             "tasks");
  report.add("proc.cpu_us_per_entry",
             ratio(t.measured_cpu_us,
                   static_cast<double>(t.untraced.entries + t.traced.entries)),
             "us/entry");
  report.add("env.steal_frac", t.steal.fraction(), "fraction");
  report.add("env.calib_ns", calib_ns, "ns");
}

/// Transport counts of a TCP mesh run: the tcp-mesh workload itself, or
/// the mesh probe of a traced run of another workload.
void add_wire_layers(Report& report, const RunTotals& mesh) {
  const LayerCounters& c = mesh.layers;
  const std::uint64_t e = mesh.entries;
  report.add("wire.frames_per_entry", per_entry(c.frames, e), "frames/entry");
  report.add("wire.bytes_per_entry", per_entry(c.bytes, e), "bytes/entry");
  report.add("wire.epoll_wakeups_per_entry", per_entry(c.epoll_wakeups, e),
             "wakeups/entry");
  report.add("wire.partial_frames_frac",
             per_entry(c.partial_frames, c.frames_received), "fraction");
  report.add("wire.backpressure_waits",
             static_cast<double>(c.backpressure_waits), "count");
}

void add_traced_layers(Report& report, const RunTotals& t,
                       const MicroResults& m) {
  const SpanStats& spans = *t.spans;
  const SimCounts& s = m.sim;
  report.add("proto.request_msgs_per_entry",
             per_entry(s.request_msgs, s.entries), "msgs/entry");
  report.add("proto.token_msgs_per_entry", per_entry(s.token_msgs, s.entries),
             "msgs/entry");
  report.add("proto.max_wait_ticks", static_cast<double>(s.max_wait_ticks),
             "ticks");
  report.add("proto.entries_per_kilotick",
             1000.0 * per_entry(s.entries, s.makespan_ticks), "1/ktick");
  report.add("proto.mean_wait_ticks", per_entry(s.wait_ticks_sum, s.entries),
             "ticks");
  report.add("sim.events_per_entry", per_entry(s.events, s.entries),
             "events/entry");
  report.add("service.release_p50_us", spans.release_self.quantile(0.5) / 1e3,
             "us");
  report.add("service.gate_uncontended_ns", m.gate_ns, "ns");
  report.add("exec.hop_idle_us", m.hop_idle_us, "us");
  report.add("exec.hop_busy_us", m.hop_busy_us, "us");
  report.add("sim.ns_per_event", m.sim_ns_per_event, "ns");
  report.add("net.pool_alloc_free_ns", m.pool_ns, "ns");
  report.add("codec.encode_ns", m.encode_ns, "ns");
  report.add("codec.decode_ns", m.decode_ns, "ns");
  report.add("wire.rtt_us", m.rtt_us, "us");
  report.add("trace.acquire_self_us", spans.acquire_self.quantile(0.5) / 1e3,
             "us");
  report.add("trace.cs_self_us", spans.cs_self.quantile(0.5) / 1e3, "us");
  report.add("trace.client_self_us", spans.client_self.quantile(0.5) / 1e3,
             "us");
  // Tracing overhead: traced slices against the untraced slices of the
  // same run, as a share of the untraced figure.
  const double untraced_rate = t.untraced.mean_rate();
  const double untraced_p50 = t.untraced.mean_p50_ns();
  report.add("trace.overhead_entries_per_s_frac",
             ratio(untraced_rate - t.traced.mean_rate(), untraced_rate),
             "fraction");
  report.add("trace.overhead_acquire_p50_frac",
             ratio(t.traced.mean_p50_ns() - untraced_p50, untraced_p50),
             "fraction");
}

int run(const Args& args) {
  const Options& options = args.options;
  const std::string cpus = pin_to_cpus(workload_cpus(options.workload));
  const double calib_ns = calibration_ns();
  const RunTotals totals = run_workload(options);
  if (!totals.error.empty()) {
    std::cerr << "lockbench: correctness check failed on " << options.workload
              << ": " << totals.error << "\n";
    return 1;
  }

  Report report;
  char line[240];
  const std::size_t untraced_slices =
      std::max<std::size_t>(1, totals.untraced.slices.size());
  std::snprintf(line, sizeof line,
                "workload %s seed %llu: %zu slices, %zu set-up samples, %llu "
                "entries, %llu untraced acquire samples (a slice's p99 has "
                "about %llu beyond it)",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                totals.slice_notes.size(), totals.setup_s.size(),
                static_cast<unsigned long long>(totals.entries),
                static_cast<unsigned long long>(totals.acquire.count()),
                static_cast<unsigned long long>(totals.acquire.count() /
                                                untraced_slices / 100));
  report.note(line);
  // The shape of the pooled distribution: on one CPU the acquire times
  // cluster by how many other clients run during a wait, and the p50
  // sits at the edge of a cluster, so it moves more than entries/s does.
  std::string shape = "acquire quantiles (us):";
  for (const double q : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    std::snprintf(line, sizeof line, " p%.0f %.4g", q * 100,
                  totals.acquire.quantile(q) / 1e3);
    shape += line;
  }
  report.note(shape);
  report.note(cpus.empty() ? "cpu affinity unchanged"
                           : "pinned to cpus " + cpus);
  for (const std::string& slice : totals.slice_notes) report.note(slice);
  add_end_to_end(report, totals);
  add_counted_layers(report, totals, calib_ns);

  if (options.trace) {
    const auto micro_spans = std::make_unique<SpanStats>();
    const MicroResults micro = run_microbenches(options.seed, *micro_spans);
    const SimCounts& s = micro.sim;
    std::snprintf(line, sizeof line,
                  "exact sim probe: entries=%llu makespan=%llu messages=%llu "
                  "request=%llu token=%llu events=%llu wait_sum=%llu "
                  "max_wait=%llu",
                  static_cast<unsigned long long>(s.entries),
                  static_cast<unsigned long long>(s.makespan_ticks),
                  static_cast<unsigned long long>(s.messages),
                  static_cast<unsigned long long>(s.request_msgs),
                  static_cast<unsigned long long>(s.token_msgs),
                  static_cast<unsigned long long>(s.events),
                  static_cast<unsigned long long>(s.wait_ticks_sum),
                  static_cast<unsigned long long>(s.max_wait_ticks));
    report.note(line);
    // The TCP mesh is no benchmark workload (see workloads.hpp), so a
    // traced run of another workload measures the transport layer with
    // a short mesh run of its own, on the mesh's CPUs. It runs after the
    // microbenches, which stay on the workload's CPUs.
    std::optional<RunTotals> probe;
    if (options.workload != "tcp-mesh") {
      Options mesh = options;
      mesh.workload = "tcp-mesh";
      mesh.seconds = kMeshProbeSeconds;
      mesh.trace = false;
      mesh.inject.clear();
      pin_to_cpus(workload_cpus(mesh.workload));
      probe = run_workload(mesh);
      if (!probe->error.empty()) {
        std::cerr << "lockbench: correctness check failed on the tcp-mesh "
                     "probe: "
                  << probe->error << "\n";
        return 1;
      }
      std::snprintf(line, sizeof line,
                    "tcp-mesh probe: %zu slices, %llu entries, %.6g "
                    "entries/s",
                    probe->slice_notes.size(),
                    static_cast<unsigned long long>(probe->entries),
                    probe->untraced.mean_rate());
      report.note(line);
    }
    add_wire_layers(report, probe ? *probe : totals);
    add_traced_layers(report, totals, micro);
    if (!args.spans_path.empty()) {
      std::vector<const SpanStats*> logs;
      for (const auto& log : totals.span_logs) logs.push_back(log.get());
      logs.push_back(micro_spans.get());
      if (!write_span_file(args.spans_path, logs, micro_labels())) {
        std::cerr << "lockbench: cannot write " << args.spans_path << "\n";
        return 1;
      }
      report.note("spans written to " + args.spans_path);
    }
  }
  report.print(totals.attempted, totals.failed);
  return 0;
}

}  // namespace
}  // namespace lockbench

int main(int argc, char** argv) {
  const lockbench::Args args = lockbench::parse(argc, argv);
  try {
    return lockbench::run(args);
  } catch (const std::exception& e) {
    // Per-event invariant checks and DMX_CHECKs throw; either is a failed
    // correctness check.
    std::cerr << "lockbench: " << args.options.workload << " failed: "
              << e.what() << "\n";
    return 1;
  }
}
