// Always-on runtime telemetry for the hardware substrates (threaded lock
// service, strand executor, TCP transport).
//
// The sim substrate observes itself for free — virtual time, per-event
// invariant hooks, deterministic traces. The substrates that run on real
// threads and sockets need the opposite discipline: measurement that is
// cheap enough to never turn off. This layer provides it:
//
//  * Counters and log-bucket latency histograms live in SHARD-PER-THREAD
//    storage: a writer touches only its own thread's cache lines with
//    relaxed atomics, so the hot path is one TLS load plus one
//    uncontended fetch_add and steady state allocates nothing. Shards
//    are leased from a registry free list and returned on thread exit,
//    so memory is bounded by the peak number of concurrent threads, not
//    the total number ever started (counts survive recycling — the
//    snapshot sums across shards, so totals stay exact).
//  * Metrics are interned by name in a global Registry (the Prometheus
//    default-registry model: instrumentation points resolve their ids
//    once, in cold code). snapshot() merges every shard on demand and
//    renders as aligned text or JSON.
//
// The flight recorder (telemetry/flight_recorder.hpp) shares the same
// per-thread shard infrastructure.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define DMX_HAS_TSC 1
#else
#define DMX_HAS_TSC 0
#endif

namespace dmx::telemetry {

/// Handle of an interned counter. index < 0 means "dropped" (registry
/// capacity exhausted); recording through it is a safe no-op.
struct CounterId {
  std::int32_t index = -1;
};

/// Handle of an interned histogram; same dropped-id convention.
struct HistogramId {
  std::int32_t index = -1;
};

/// Capacity of the per-thread shards. Fixed so a shard is one flat block
/// of atomics that never reallocates (writers race with snapshot readers;
/// growth would invalidate their pointers).
inline constexpr int kMaxCounters = 512;
inline constexpr int kMaxHistograms = 192;

/// Histogram buckets are value bit-widths: bucket b counts samples x with
/// bit_width(x) == b, i.e. [2^(b-1), 2^b). Bucket 0 counts exact zeros.
/// ~2x resolution over the full uint64 range in 65 counters — the right
/// shape for latencies spanning nanoseconds to seconds.
inline constexpr int kHistogramBuckets = 65;

/// Merged view of one histogram across all shards.
struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper bound of the bucket holding the q-th sample (q in [0,1]).
  /// Pinned to 0 on an empty histogram — never garbage.
  std::uint64_t quantile(double q) const;
  /// Upper bound of the highest non-empty bucket (0 when empty).
  std::uint64_t max_bound() const;

  void merge(const HistogramSnapshot& other);
};

/// Point-in-time merged view of every registered metric. Plain data.
struct MetricsSnapshot {
  /// Name -> merged value, in registration order.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value of one counter (0 if absent).
  std::uint64_t counter(std::string_view name) const;
  /// One histogram (nullptr if absent).
  const HistogramSnapshot* histogram(std::string_view name) const;
  /// Adds or overwrites a counter — used to fold externally maintained
  /// stats (executor, event loop) into one exported view.
  void set_counter(std::string_view name, std::uint64_t value);

  /// Sums `other` into this snapshot (counters add, histograms merge).
  void merge(const MetricsSnapshot& other);

  /// Merges every histogram named `parent` + "." + <suffix> into the
  /// histogram named `parent` (created if absent). Lets hot paths record
  /// only the per-resource lane and still export the process-wide
  /// roll-up, at snapshot cost instead of a second record per event.
  void roll_up(const std::string& parent);

  /// Aligned human-readable rendering; zero-count metrics are omitted.
  std::string to_text() const;
  /// Machine-readable rendering: {"counters": {...}, "histograms": {...}}
  /// with count/sum/mean/p50/p95/p99/max per histogram.
  std::string to_json() const;
};

class Registry {
 public:
  /// The process-wide registry (never destroyed: instrumentation may fire
  /// from detached threads during static teardown).
  static Registry& global();

  /// Interns `name`, returning the existing id if already registered.
  /// When capacity is exhausted the returned id is dropped (index -1) and
  /// recording through it is a no-op — instrumentation never throws.
  CounterId counter(std::string_view name);
  HistogramId histogram(std::string_view name);

  /// Hot path: one TLS load + one relaxed fetch_add on this thread's
  /// shard. Safe with a dropped id.
  void add(CounterId id, std::uint64_t delta = 1);
  /// Hot path: buckets the value by bit width into this thread's shard.
  void record(HistogramId id, std::uint64_t value);

  /// Merges every shard (live and leased-back) into one snapshot.
  MetricsSnapshot snapshot() const;

  /// Zeroes every counter, histogram, and flight ring in every shard.
  /// For tests and benches that measure deltas; not thread-safe against
  /// concurrent writers losing *exactly* their in-flight increment, but
  /// safe (no torn state) at any time.
  void reset();

 private:
  friend class FlightRecorder;
  friend struct ShardLease;
  struct Shard;
  struct Impl;

  Registry();
  ~Registry() = delete;  // leaked singleton

  Shard* this_thread_shard();
  Shard* acquire_shard();
  void release_shard(Shard* shard);

  Impl* impl_;
};

/// now_ns() fallback: steady_clock against a process-start anchor.
std::uint64_t steady_now_ns();

#if DMX_HAS_TSC
namespace detail {
/// Calibrated TSC reader. On every x86 this code will meet, the TSC is
/// constant-rate and synchronized across cores, and reading it costs
/// ~7ns where clock_gettime costs ~27ns — the difference shows up
/// directly in saturated lock-service throughput, which pays several
/// reads per entry. Calibrated once against the steady clock over a
/// short spin; the resulting scale error (<0.1%) is far below
/// histogram bucket resolution.
struct TscClock {
  std::uint64_t anchor = 0;
  double ns_per_tick = 0.0;  // 0 => calibration failed, fall back

  TscClock() {
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t c0 = __rdtsc();
    auto t1 = t0;
    do {
      t1 = std::chrono::steady_clock::now();
    } while (t1 - t0 < std::chrono::milliseconds(2));
    const std::uint64_t c1 = __rdtsc();
    if (c1 > c0) {
      ns_per_tick =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          static_cast<double>(c1 - c0);
      anchor = c0;
    }
  }
};

inline const TscClock& tsc_clock() {
  static const TscClock clock;
  return clock;
}
}  // namespace detail
#endif  // DMX_HAS_TSC

/// Nanoseconds since a process-start anchor; the shared timebase of
/// histograms and flight-recorder events. Inline because instrumented
/// hot paths read it up to three times per lock-service entry.
inline std::uint64_t now_ns() {
#if DMX_HAS_TSC
  const detail::TscClock& clock = detail::tsc_clock();
  if (clock.ns_per_tick > 0.0) {
    return static_cast<std::uint64_t>(
        static_cast<double>(__rdtsc() - clock.anchor) * clock.ns_per_tick);
  }
#endif
  return steady_now_ns();
}

/// Convenience wrappers over the global registry.
inline void count(CounterId id, std::uint64_t delta = 1) {
  Registry::global().add(id, delta);
}
inline void observe(HistogramId id, std::uint64_t value) {
  Registry::global().record(id, value);
}

/// Hot-path histograms that sample 1 in 8 events.
enum class SampleSite { kClientWait, kClientHold, kStrandBatch, kInjectorDepth };

/// 1-in-8 sampling gate for distribution-shape histograms on per-event
/// hot paths (client wait/hold, strand batch, injector depth). Counters
/// and flight events stay exact; a histogram only needs enough samples
/// for a stable shape, and at saturation every event would pay for it —
/// on an oversubscribed box the per-thread shard arrays don't fit in
/// cache, so each skipped observe also skips a likely cache miss.
///
/// Every site keeps its own per-thread tick. On one shared tick, sites
/// that interleave on a thread in a fixed rhythm alias: a token-resident
/// lock/unlock loop ticks request, wait, release and hold in a 4-step
/// cycle, so the wait sample landed on ticks 2, 6, 10, ... and never
/// fired.
template <SampleSite kSite>
inline bool sample_1_in_8() {
  thread_local std::uint32_t tick = 0;
  return (++tick & 7u) == 0;
}

}  // namespace dmx::telemetry
