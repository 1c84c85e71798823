// Tests for the runtime telemetry substrate: shard-per-thread counters
// and histograms merged through the global registry, the flight
// recorder's ring semantics, and the exported text/JSON renderings.
//
// The registry is process-global and shared with every other test in
// this binary, so each test uses metric names unique to itself and the
// flight-recorder tests clear the rings first.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::telemetry {
namespace {

// --- Minimal JSON well-formedness checker ----------------------------------
// Recursive descent over the full grammar; good enough to prove an export
// would load in chrome://tracing without shipping a JSON library.

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }

  bool string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --- Snapshot types (compiled in both modes) -------------------------------

TEST(Telemetry, EmptyHistogramSnapshotQuantileIsZero) {
  HistogramSnapshot hist;
  EXPECT_EQ(hist.count, 0u);
  EXPECT_EQ(hist.quantile(0.0), 0u);
  EXPECT_EQ(hist.quantile(0.5), 0u);
  EXPECT_EQ(hist.quantile(1.0), 0u);
  EXPECT_EQ(hist.max_bound(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
}

TEST(Telemetry, HistogramSnapshotMergeAddsBucketsCountAndSum) {
  HistogramSnapshot a;
  a.buckets[3] = 5;  // five samples in [4, 7]
  a.count = 5;
  a.sum = 25;
  HistogramSnapshot b;
  b.buckets[3] = 1;
  b.buckets[10] = 2;  // two samples in [512, 1023]
  b.count = 3;
  b.sum = 1100;
  a.merge(b);
  EXPECT_EQ(a.buckets[3], 6u);
  EXPECT_EQ(a.buckets[10], 2u);
  EXPECT_EQ(a.count, 8u);
  EXPECT_EQ(a.sum, 1125u);
  EXPECT_EQ(a.max_bound(), 1023u);
  EXPECT_EQ(a.quantile(0.5), 7u);   // 6 of 8 samples in bucket 3
  EXPECT_EQ(a.quantile(0.99), 1023u);
}

TEST(Telemetry, MetricsSnapshotMergeAndSetCounter) {
  MetricsSnapshot a;
  a.set_counter("x", 2);
  a.set_counter("y", 3);
  MetricsSnapshot b;
  b.set_counter("x", 10);
  b.set_counter("z", 1);
  a.merge(b);
  EXPECT_EQ(a.counter("x"), 12u);
  EXPECT_EQ(a.counter("y"), 3u);
  EXPECT_EQ(a.counter("z"), 1u);
  EXPECT_EQ(a.counter("missing"), 0u);
  a.set_counter("x", 7);  // overwrite, not add
  EXPECT_EQ(a.counter("x"), 7u);
}

// --- Registry: interning, recording, shard merge ---------------------------

TEST(Telemetry, RegistryInternsSameNameToSameId) {
  auto& registry = Registry::global();
  const CounterId a = registry.counter("telemetry_test.intern");
  const CounterId b = registry.counter("telemetry_test.intern");
  EXPECT_EQ(a.index, b.index);
  EXPECT_GE(a.index, 0);
  const HistogramId ha = registry.histogram("telemetry_test.intern_h");
  const HistogramId hb = registry.histogram("telemetry_test.intern_h");
  EXPECT_EQ(ha.index, hb.index);
  EXPECT_GE(ha.index, 0);
}

TEST(Telemetry, CounterShardMergeIsExactUnderEightConcurrentWriters) {
  auto& registry = Registry::global();
  const CounterId id = registry.counter("telemetry_test.conc_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) registry.add(id);
    });
  }
  for (auto& thread : threads) thread.join();
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("telemetry_test.conc_counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Telemetry, HistogramShardMergeIsExactUnderEightConcurrentWriters) {
  auto& registry = Registry::global();
  const HistogramId id = registry.histogram("telemetry_test.conc_hist");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t v = 1; v <= kPerThread; ++v) {
        registry.record(id, v);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSnapshot* hist = snap.histogram("telemetry_test.conc_hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kThreads * kPerThread);
  // sum(1..1000) per thread.
  EXPECT_EQ(hist->sum, kThreads * (kPerThread * (kPerThread + 1) / 2));
  // 1000 has bit_width 10, so the top bucket's bound is 2^10 - 1.
  EXPECT_EQ(hist->max_bound(), 1023u);
  EXPECT_LE(hist->quantile(0.5), 1023u);
}

TEST(Telemetry, SnapshotIsConsistentWhileWritersAreRunning) {
  auto& registry = Registry::global();
  const CounterId id = registry.counter("telemetry_test.live_counter");
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) registry.add(id);
    });
  }
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t now =
        registry.snapshot().counter("telemetry_test.live_counter");
    EXPECT_GE(now, last);  // monotone under concurrent writers
    last = now;
  }
  stop.store(true);
  for (auto& thread : threads) thread.join();
}

TEST(Telemetry, DroppedIdsAreSafe) {
  // A dropped id (registry capacity exhausted) records nowhere and must
  // not crash.
  auto& registry = Registry::global();
  registry.add(CounterId{}, 5);
  registry.record(HistogramId{}, 5);
}

TEST(Telemetry, TextAndJsonExportsRenderRecordedMetrics) {
  auto& registry = Registry::global();
  registry.add(registry.counter("telemetry_test.export_counter"), 42);
  registry.record(registry.histogram("telemetry_test.export_hist"), 9);
  const MetricsSnapshot snap = registry.snapshot();
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("telemetry_test.export_counter"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("telemetry_test.export_hist"), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"telemetry_test.export_counter\": 42"),
            std::string::npos);
}

// --- Flight recorder -------------------------------------------------------

TEST(TelemetryFlight, RingWraparoundKeepsTheMostRecentEvents) {
  FlightRecorder::clear();
  const int total = kFlightRingCapacity + 1000;
  for (int i = 0; i < total; ++i) {
    FlightRecorder::record(FlightEvent::kRequest, /*resource=*/1,
                           /*node=*/2, /*arg=*/i);
  }
  const std::vector<FlightRecord> tail = FlightRecorder::tail(100);
  ASSERT_EQ(tail.size(), 100u);
  // Oldest-first; the last record is the last one written, and the window
  // covers exactly the 100 most recent args.
  EXPECT_EQ(tail.back().arg, total - 1);
  EXPECT_EQ(tail.front().arg, total - 100);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LE(tail[i - 1].t_ns, tail[i].t_ns);
  }
}

TEST(TelemetryFlight, TailMergesThreadsByTimestamp) {
  FlightRecorder::clear();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < 50; ++i) {
        FlightRecorder::record(FlightEvent::kGrant, /*resource=*/t,
                               /*node=*/1, /*arg=*/i);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const std::vector<FlightRecord> all = FlightRecorder::tail(1000);
  EXPECT_EQ(all.size(), 200u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].t_ns, all[i].t_ns);
  }
}

TEST(TelemetryFlight, DumpTailRendersEventFields) {
  FlightRecorder::clear();
  FlightRecorder::record(FlightEvent::kRepairDone, /*resource=*/2,
                         /*node=*/4, /*arg=*/7);
  const std::string dump = FlightRecorder::dump_tail(10);
  EXPECT_NE(dump.find("fault.repair_done"), std::string::npos) << dump;
  EXPECT_NE(dump.find("r=2 node=4 arg=7"), std::string::npos) << dump;
}

TEST(TelemetryFlight, ChromeTraceJsonIsWellFormedWithAllFourCategories) {
  FlightRecorder::clear();
  FlightRecorder::record(FlightEvent::kRequest, 1, 1);     // client
  FlightRecorder::record(FlightEvent::kSteal, 0, 0, 3);    // strand
  FlightRecorder::record(FlightEvent::kFrameSend, 1, 2);   // wire
  FlightRecorder::record(FlightEvent::kPeerDown, 0, 2);    // fault
  const std::string json = FlightRecorder::chrome_trace_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  for (const char* cat :
       {"\"cat\": \"client\"", "\"cat\": \"strand\"", "\"cat\": \"wire\"",
        "\"cat\": \"fault\""}) {
    EXPECT_NE(json.find(cat), std::string::npos) << "missing " << cat;
  }
}

TEST(TelemetryFlight, EventNamesCoverEveryCategoryPrefix) {
  EXPECT_EQ(flight_event_category(FlightEvent::kRequest), "client");
  EXPECT_EQ(flight_event_category(FlightEvent::kTokenForward), "strand");
  EXPECT_EQ(flight_event_category(FlightEvent::kBackpressure), "wire");
  EXPECT_EQ(flight_event_category(FlightEvent::kRepairStart), "fault");
  EXPECT_EQ(flight_event_name(FlightEvent::kGoodbye), "fault.goodbye");
}

TEST(TelemetryFlight, ClearEmptiesEveryRing) {
  FlightRecorder::record(FlightEvent::kRelease, 1, 1);
  FlightRecorder::clear();
  EXPECT_TRUE(FlightRecorder::tail(100).empty());
}

}  // namespace
}  // namespace dmx::telemetry
