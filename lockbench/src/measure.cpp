#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace lockbench {

int LatencyHistogram::index_of(std::uint64_t ns) {
  if (ns < 2 * static_cast<std::uint64_t>(kSub)) return static_cast<int>(ns);
  const int shift = std::bit_width(ns) - (kSubBits + 1);
  const int index =
      2 * kSub + (shift - 1) * kSub + static_cast<int>(ns >> shift) - kSub;
  return std::min(index, kBuckets - 1);
}

double LatencyHistogram::lower_bound_of(int index) {
  if (index < 2 * kSub) return index;
  const int shift = (index - 2 * kSub) / kSub + 1;
  const int mantissa = (index - 2 * kSub) % kSub + kSub;
  return static_cast<double>(static_cast<std::uint64_t>(mantissa) << shift);
}

double LatencyHistogram::upper_bound_of(int index) {
  if (index < 2 * kSub) return index + 1;
  const int shift = (index - 2 * kSub) / kSub + 1;
  const int mantissa = (index - 2 * kSub) % kSub + kSub;
  return static_cast<double>(static_cast<std::uint64_t>(mantissa + 1)
                             << shift);
}

void LatencyHistogram::add(std::uint64_t ns) {
  ++buckets_[static_cast<std::size_t>(index_of(ns))];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[static_cast<std::size_t>(i)] +=
        other.buckets_[static_cast<std::size_t>(i)];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
  double seen = 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    const auto in_bucket =
        static_cast<double>(buckets_[static_cast<std::size_t>(i)]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      const double frac = (target - seen) / in_bucket;
      return lower_bound_of(i) +
             frac * (upper_bound_of(i) - lower_bound_of(i));
    }
    seen += in_bucket;
  }
  return upper_bound_of(kBuckets - 1);
}

double log2_bucket_quantile(const std::uint64_t* buckets, int bucket_count,
                            double q) {
  double total = 0.0;
  for (int b = 0; b < bucket_count; ++b) total += static_cast<double>(buckets[b]);
  if (total == 0.0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * total;
  double seen = 0.0;
  for (int b = 0; b < bucket_count; ++b) {
    const auto in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(std::uint64_t{1} << (b - 1));
      return lo + (target - seen) / in_bucket * lo;  // bucket is [lo, 2lo)
    }
    seen += in_bucket;
  }
  return 0.0;
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kOp: return "op";
    case SpanName::kAcquire: return "acquire";
    case SpanName::kCs: return "cs";
    case SpanName::kRelease: return "release";
    case SpanName::kMicro: return "micro";
  }
  return "?";
}

void SpanStats::push(const Span& span) {
  if (spans_recorded < static_cast<std::uint64_t>(kCapacity)) {
    log[static_cast<std::size_t>(spans_recorded++)] = span;
  }
}

void SpanStats::record_op(std::uint32_t lane, std::uint64_t op,
                          std::uint64_t t0, std::uint64_t t1,
                          std::uint64_t t2, std::uint64_t t3,
                          std::uint64_t t4, std::uint64_t t5) {
  acquire_self.add(t2 - t1);
  cs_self.add(t3 - t2);
  release_self.add(t4 - t3);
  client_self.add((t5 - t0) - (t4 - t1));
  push({op, t0, t5, lane, SpanName::kOp, 0});
  push({op, t1, t2, lane, SpanName::kAcquire, 0});
  push({op, t2, t3, lane, SpanName::kCs, 0});
  push({op, t3, t4, lane, SpanName::kRelease, 0});
}

void SpanStats::record_micro(std::uint8_t label, std::uint64_t start_ns,
                             std::uint64_t end_ns) {
  push({0, start_ns, end_ns, 0, SpanName::kMicro, label});
}

void SpanStats::merge(const SpanStats& other) {
  acquire_self.merge(other.acquire_self);
  cs_self.merge(other.cs_self);
  release_self.merge(other.release_self);
  client_self.merge(other.client_self);
}

bool write_span_file(const std::string& path,
                     const std::vector<const SpanStats*>& logs,
                     const std::vector<std::string>& micro_labels) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  std::uint64_t origin = ~std::uint64_t{0};
  for (const SpanStats* stats : logs) {
    for (std::uint64_t i = 0; i < stats->spans_recorded; ++i) {
      origin = std::min(origin, stats->log[static_cast<std::size_t>(i)].start_ns);
    }
  }
  char buffer[256];
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const SpanStats& stats = *logs[l];
    for (std::uint64_t i = 0; i < stats.spans_recorded; ++i) {
      const Span& s = stats.log[static_cast<std::size_t>(i)];
      const std::string name =
          s.name == SpanName::kMicro && s.label < micro_labels.size()
              ? "micro." + micro_labels[s.label]
              : span_name(s.name);
      std::snprintf(buffer, sizeof buffer,
                    "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, "
                    "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                    "\"args\": {\"op\": %llu}}",
                    first ? "" : ",", name.c_str(), l, s.lane,
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.op));
      out << buffer;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {
/// "/proc/stat" rows of the pinned CPUs ("cpu" = all CPUs until pinned).
std::vector<std::string>& stat_rows() {
  static std::vector<std::string> rows = {"cpu"};
  return rows;
}
}  // namespace

CpuTimes read_cpu_times() {
  CpuTimes times;
  std::ifstream in("/proc/stat");
  std::string label;
  while (in >> label) {
    const auto& rows = stat_rows();
    if (std::find(rows.begin(), rows.end(), label) != rows.end()) {
      // user nice system idle iowait irq softirq steal (guest time is
      // already inside user and nice).
      for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(in >> value)) break;
        times.total += value;
        if (field == 7) times.steal += value;
      }
    }
    in.ignore(1 << 12, '\n');
  }
  return times;
}

void StealMeter::add(const CpuTimes& begin, const CpuTimes& end) {
  steal += end.steal - begin.steal;
  total += end.total - begin.total;
}

double StealMeter::fraction() const {
  return total == 0 ? 0.0
                    : static_cast<double>(steal) / static_cast<double>(total);
}

double process_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double peak_rss_kb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve and so
  // reports the launching interpreter's footprint when that was larger.
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0.0;
}

std::string pin_to_cpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return "";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::vector<std::string> rows;
  std::string names;
  for (int cpu = 0; cpu < CPU_SETSIZE && static_cast<int>(rows.size()) < count;
       ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    rows.push_back("cpu" + std::to_string(cpu));
    names += (names.empty() ? "" : ",") + std::to_string(cpu);
  }
  if (rows.empty() || sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    return "";
  }
  stat_rows() = rows;
  return names;
}

double calibration_ns() {
  constexpr std::size_t kWords = (256 * 1024) / sizeof(std::uint64_t);
  constexpr int kSteps = 1 << 21;
  std::vector<std::uint64_t> table(kWords);
  for (std::size_t i = 0; i < kWords; ++i) table[i] = i * 0x9e3779b97f4a7c15ULL;
  std::vector<double> samples;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 7; ++rep) {
    std::uint64_t x = 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(rep);
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x += table[(x ^ sink) % kWords];
      sink += x;
    }
    samples.push_back(static_cast<double>(now_ns() - start) / kSteps);
  }
  // Keeps the kernel from being optimised away.
  if (sink == 42) std::cerr << "";
  return median(samples);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  // A non-finite figure would make the result line invalid JSON; it can
  // only come from an empty denominator, which run.py then rejects.
  if (!std::isfinite(value)) {
    notes_.push_back("non-finite value for " + name);
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(std::uint64_t attempted, std::uint64_t failed) const {
  for (const std::string& line : notes_) std::cout << line << "\n";
  char buffer[160];
  for (const Metric& m : metrics_) {
    std::snprintf(buffer, sizeof buffer, "%-36s %16.6g %s", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << buffer << "\n";
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": true, \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace lockbench
