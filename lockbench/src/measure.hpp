// Measurement primitives of the lock-service benchmark: a log-linear
// latency histogram, the span log of traced runs, host-noise probes
// (/proc/stat steal, a fixed calibration kernel) and the metric report
// printed at the end of a run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lockbench {

/// Nanoseconds on the steady clock. Every wall-clock figure of the
/// benchmark is read from this one clock, never from the program's own
/// timebase, so a change to the program's clocks cannot move the ruler.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Log-linear histogram of nanosecond samples: exact below 256 ns, then
/// 128 sub-buckets per power of two (<0.8% bucket width), quantiles
/// interpolated inside a bucket. Plain data with a fixed size, so it can
/// live in a MAP_SHARED region written by a forked node process.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kBuckets = 2 * kSub + 33 * kSub;

  void add(std::uint64_t ns);
  void merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Value at quantile q in [0, 1], in nanoseconds (0 when empty).
  double quantile(double q) const;

 private:
  static int index_of(std::uint64_t ns);
  static double lower_bound_of(int index);
  static double upper_bound_of(int index);

  std::uint64_t count_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Quantile of the program's own log2-bucket telemetry histogram
/// (bucket b holds values of bit width b), interpolated inside the bucket
/// so the figure moves with the distribution rather than in 2x steps.
double log2_bucket_quantile(const std::uint64_t* buckets, int bucket_count,
                            double q);

/// Names of the spans a traced run records around its calls into the
/// lock service. One operation is the parent "op" span with the three
/// child spans acquire, cs and release; a microbench batch is one
/// "micro" span.
enum class SpanName : std::uint8_t { kOp, kAcquire, kCs, kRelease, kMicro };
const char* span_name(SpanName name);

struct Span {
  std::uint64_t op = 0;  // shared by every span of one operation
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t lane = 0;  // client thread (or node * 100 + client)
  SpanName name = SpanName::kOp;
  std::uint8_t label = 0;  // microbench index for kMicro spans
};

/// Self times (span duration minus its children's) of every traced
/// operation, kept as histograms, plus a bounded log of raw spans for
/// the span file. Plain data for the same shared-memory reason as
/// LatencyHistogram; one log per client thread, merged at the end.
struct SpanStats {
  static constexpr int kCapacity = 1 << 13;

  /// Records one closed-loop operation: op = [t0, t5], acquire = [t1,
  /// t2], cs = [t2, t3], release = [t3, t4]; everything in the op span
  /// outside its children is the client's own self time.
  void record_op(std::uint32_t lane, std::uint64_t op, std::uint64_t t0,
                 std::uint64_t t1, std::uint64_t t2, std::uint64_t t3,
                 std::uint64_t t4, std::uint64_t t5);
  void record_micro(std::uint8_t label, std::uint64_t start_ns,
                    std::uint64_t end_ns);
  void merge(const SpanStats& other);

  LatencyHistogram acquire_self;
  LatencyHistogram cs_self;
  LatencyHistogram release_self;
  LatencyHistogram client_self;
  std::uint64_t spans_recorded = 0;  // logged spans; later ones are not kept
  std::array<Span, kCapacity> log{};

 private:
  void push(const Span& span);
};

/// Writes every logged span as a Chrome trace-event file (ph "X",
/// microsecond timestamps; args carry the op id). Returns false on I/O
/// failure.
bool write_span_file(const std::string& path,
                     const std::vector<const SpanStats*>& logs,
                     const std::vector<std::string>& micro_labels);

/// /proc/stat CPU counters (jiffies) summed over the CPUs the benchmark is
/// pinned to (see pin_to_cpus), or of the whole machine when unpinned.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes read_cpu_times();

/// Steal jiffies and total jiffies accumulated over measured windows.
struct StealMeter {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  void add(const CpuTimes& begin, const CpuTimes& end);
  double fraction() const;
};

/// User + system CPU time of this process, microseconds.
double process_cpu_us();
/// Peak resident set of this process, kilobytes.
double peak_rss_kb();

/// Confines this process, and every thread and process it starts later,
/// to the first `count` CPUs it may run on; returns their numbers ("" if
/// the affinity calls fail). read_cpu_times() follows the pinned CPUs.
std::string pin_to_cpus(int count);

/// Fixed single-thread kernel (an xorshift-indexed walk over a 256 KiB
/// table), timed several times; median nanoseconds per step. A host
/// diagnostic: it shows CPU drift between runs and never scales any
/// reported metric.
double calibration_ns();

double median(std::vector<double> values);

/// Metrics of one run, in print order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Human-readable note printed above the result line.
  void note(const std::string& line);

  /// Prints the notes, every metric as "name value unit", then the
  /// result line {"correct", "attempted", "failed", "metrics"} with every
  /// metric (run.py narrows it to the set BENCHMARK.json names).
  void print(std::uint64_t attempted, std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

}  // namespace lockbench
