#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "telemetry/flight_recorder.hpp"

namespace dmx::telemetry {

namespace {

/// Upper inclusive bound of bit-width bucket b: 0, 1, 3, 7, ... 2^b - 1.
std::uint64_t bucket_upper_bound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

void json_escape(std::ostringstream& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      default: out << c; break;
    }
  }
}

}  // namespace

// --- Snapshot types (compiled in both modes) -------------------------------

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen > rank || (seen == count && seen != 0)) {
      return bucket_upper_bound(b);
    }
  }
  return bucket_upper_bound(kHistogramBuckets - 1);
}

std::uint64_t HistogramSnapshot::max_bound() const {
  for (int b = kHistogramBuckets - 1; b >= 0; --b) {
    if (buckets[static_cast<std::size_t>(b)] != 0) return bucket_upper_bound(b);
  }
  return 0;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  for (int b = 0; b < kHistogramBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
  }
  count += other.count;
  sum += other.sum;
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

void MetricsSnapshot::set_counter(std::string_view name, std::uint64_t value) {
  for (auto& [n, v] : counters) {
    if (n == name) {
      v = value;
      return;
    }
  }
  counters.emplace_back(std::string(name), value);
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    bool found = false;
    for (auto& [n, v] : counters) {
      if (n == name) {
        v += value;
        found = true;
        break;
      }
    }
    if (!found) counters.emplace_back(name, value);
  }
  for (const auto& [name, hist] : other.histograms) {
    bool found = false;
    for (auto& [n, h] : histograms) {
      if (n == name) {
        h.merge(hist);
        found = true;
        break;
      }
    }
    if (!found) histograms.emplace_back(name, hist);
  }
}

void MetricsSnapshot::roll_up(const std::string& parent) {
  const std::string prefix = parent + ".";
  HistogramSnapshot folded;
  for (const auto& [name, hist] : histograms) {
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      folded.merge(hist);
    }
  }
  for (auto& [name, hist] : histograms) {
    if (name == parent) {
      hist.merge(folded);
      return;
    }
  }
  histograms.emplace_back(parent, folded);
}

std::string MetricsSnapshot::to_text() const {
  std::ostringstream out;
  std::size_t width = 0;
  for (const auto& [name, value] : counters) {
    if (value != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, hist] : histograms) {
    if (hist.count != 0) width = std::max(width, name.size());
  }
  char line[256];
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    std::snprintf(line, sizeof(line), "%-*s %llu\n", static_cast<int>(width),
                  name.c_str(), static_cast<unsigned long long>(value));
    out << line;
  }
  for (const auto& [name, hist] : histograms) {
    if (hist.count == 0) continue;
    std::snprintf(
        line, sizeof(line),
        "%-*s count=%llu mean=%.0f p50<=%llu p95<=%llu p99<=%llu max<=%llu\n",
        static_cast<int>(width), name.c_str(),
        static_cast<unsigned long long>(hist.count), hist.mean(),
        static_cast<unsigned long long>(hist.quantile(0.50)),
        static_cast<unsigned long long>(hist.quantile(0.95)),
        static_cast<unsigned long long>(hist.quantile(0.99)),
        static_cast<unsigned long long>(hist.max_bound()));
    out << line;
  }
  return out.str();
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ", ";
    first = false;
    out << "\"";
    json_escape(out, name);
    out << "\": " << value;
  }
  out << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out << ", ";
    first = false;
    out << "\"";
    json_escape(out, name);
    out << "\": {\"count\": " << hist.count << ", \"sum\": " << hist.sum
        << ", \"mean\": " << hist.mean() << ", \"p50\": " << hist.quantile(0.50)
        << ", \"p95\": " << hist.quantile(0.95)
        << ", \"p99\": " << hist.quantile(0.99)
        << ", \"max\": " << hist.max_bound() << "}";
  }
  out << "}}";
  return out.str();
}

// --- Registry internals ----------------------------------------------------

/// One thread's private slice of every metric plus its flight ring.
/// Fixed-size so writer pointers stay valid forever; leased to exactly
/// one thread at a time and recycled through a free list afterwards.
struct Registry::Shard {
  std::atomic<std::uint64_t> counters[kMaxCounters] = {};
  struct HistCells {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
  };
  HistCells histograms[kMaxHistograms] = {};

  /// Flight ring: single-writer (the owning thread), lock-free. Every
  /// slot field is a relaxed atomic, so dumpers on other threads read
  /// without stopping the writer and without formal data races. A slot
  /// being overwritten mid-read can come back torn (fields from two
  /// events) — harmless in a diagnostic recorder, and the reads that
  /// matter (failure dumps, tests) happen after writers quiesce.
  /// The recording thread is implicit (it's the shard), so slots carry
  /// no thread field — collect_all() stamps shard->index on the way out.
  struct FlightSlot {
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::int64_t> arg{0};
    std::atomic<ResourceId> resource{0};
    std::atomic<NodeId> node{0};
    std::atomic<std::uint8_t> event{0};
  };
  FlightSlot ring[kFlightRingCapacity] = {};
  /// Total records ever; slot = next % cap. Written by the owner with a
  /// release store (publishes the slot), read by dumpers with acquire.
  std::atomic<std::uint64_t> ring_next{0};

  /// Fault-category events land here instead, so high-rate client/wire
  /// traffic cannot evict them (see kFlightFaultRingCapacity).
  FlightSlot fault_ring[kFlightFaultRingCapacity] = {};
  std::atomic<std::uint64_t> fault_ring_next{0};

  /// Stable label for flight records ("t03"); identifies the shard, so
  /// successive threads reusing a shard share a lane — acceptable for a
  /// peak-bounded recorder.
  std::uint32_t index = 0;
};

struct Registry::Impl {
  mutable std::mutex mutex;
  std::vector<std::string> counter_names;
  std::vector<std::string> histogram_names;
  /// Every shard ever allocated (snapshot iterates these; never shrinks).
  std::vector<std::unique_ptr<Shard>> shards;
  /// Shards whose owning thread has exited, ready for reuse.
  std::vector<Shard*> free_shards;
};

/// RAII lease binding one shard to one thread; the thread_local's
/// destructor returns the shard to the free list on thread exit.
/// Friend of Registry (see header) so it can name the private Shard.
struct ShardLease {
  Registry::Shard* shard = nullptr;
  ~ShardLease() {
    if (shard != nullptr) Registry::global().release_shard(shard);
  }
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::global() {
  static Registry* registry = new Registry();  // leaked: see header
  return *registry;
}

Registry::Shard* Registry::acquire_shard() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (!impl_->free_shards.empty()) {
    Shard* shard = impl_->free_shards.back();
    impl_->free_shards.pop_back();
    return shard;
  }
  auto shard = std::make_unique<Shard>();
  shard->index = static_cast<std::uint32_t>(impl_->shards.size());
  Shard* raw = shard.get();
  impl_->shards.push_back(std::move(shard));
  return raw;
}

void Registry::release_shard(Shard* shard) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->free_shards.push_back(shard);
}

Registry::Shard* Registry::this_thread_shard() {
  thread_local ShardLease lease;
  if (lease.shard == nullptr) lease.shard = acquire_shard();
  return lease.shard;
}

CounterId Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (std::size_t i = 0; i < impl_->counter_names.size(); ++i) {
    if (impl_->counter_names[i] == name) {
      return {static_cast<std::int32_t>(i)};
    }
  }
  if (impl_->counter_names.size() >= kMaxCounters) return {};  // dropped
  impl_->counter_names.emplace_back(name);
  return {static_cast<std::int32_t>(impl_->counter_names.size() - 1)};
}

HistogramId Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (std::size_t i = 0; i < impl_->histogram_names.size(); ++i) {
    if (impl_->histogram_names[i] == name) {
      return {static_cast<std::int32_t>(i)};
    }
  }
  if (impl_->histogram_names.size() >= kMaxHistograms) return {};  // dropped
  impl_->histogram_names.emplace_back(name);
  return {static_cast<std::int32_t>(impl_->histogram_names.size() - 1)};
}

void Registry::add(CounterId id, std::uint64_t delta) {
  if (id.index < 0) return;
  this_thread_shard()->counters[id.index].fetch_add(
      delta, std::memory_order_relaxed);
}

void Registry::record(HistogramId id, std::uint64_t value) {
  if (id.index < 0) return;
  Shard* shard = this_thread_shard();
  auto& cells = shard->histograms[id.index];
  cells.buckets[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  snap.counters.reserve(impl_->counter_names.size());
  snap.histograms.reserve(impl_->histogram_names.size());
  for (const auto& name : impl_->counter_names) {
    snap.counters.emplace_back(name, 0);
  }
  for (const auto& name : impl_->histogram_names) {
    snap.histograms.emplace_back(name, HistogramSnapshot{});
  }
  for (const auto& shard : impl_->shards) {
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      snap.counters[i].second +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
      HistogramSnapshot& hist = snap.histograms[i].second;
      const auto& cells = shard->histograms[i];
      for (int b = 0; b < kHistogramBuckets; ++b) {
        const std::uint64_t n =
            cells.buckets[static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
        hist.buckets[static_cast<std::size_t>(b)] += n;
        hist.count += n;
      }
      hist.sum += cells.sum.load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& shard : impl_->shards) {
    for (auto& counter : shard->counters) {
      counter.store(0, std::memory_order_relaxed);
    }
    for (auto& cells : shard->histograms) {
      for (auto& bucket : cells.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      cells.sum.store(0, std::memory_order_relaxed);
    }
    shard->ring_next.store(0, std::memory_order_relaxed);
    shard->fault_ring_next.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t steady_now_ns() {
  static const auto anchor = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - anchor)
          .count());
}

// --- Flight recorder -------------------------------------------------------

std::string_view flight_event_name(FlightEvent event) {
  switch (event) {
    case FlightEvent::kRequest: return "client.request";
    case FlightEvent::kGrant: return "client.grant";
    case FlightEvent::kRelease: return "client.release";
    case FlightEvent::kTimeout: return "client.timeout";
    case FlightEvent::kUnavailable: return "client.unavailable";
    case FlightEvent::kChainGrant: return "client.chain_grant";
    case FlightEvent::kLeaseYield: return "client.lease_yield";
    case FlightEvent::kTokenForward: return "strand.token_forward";
    case FlightEvent::kPark: return "strand.park";
    case FlightEvent::kSteal: return "strand.steal";
    case FlightEvent::kFrameSend: return "wire.frame_send";
    case FlightEvent::kFrameRecv: return "wire.frame_recv";
    case FlightEvent::kBackpressure: return "wire.backpressure";
    case FlightEvent::kPeerUp: return "fault.peer_up";
    case FlightEvent::kPeerDown: return "fault.peer_down";
    case FlightEvent::kGoodbye: return "fault.goodbye";
    case FlightEvent::kCrash: return "fault.crash";
    case FlightEvent::kRecover: return "fault.recover";
    case FlightEvent::kRepairStart: return "fault.repair_start";
    case FlightEvent::kRepairDone: return "fault.repair_done";
    case FlightEvent::kResourceUnavailable: return "fault.unavailable";
  }
  return "unknown";
}

std::string_view flight_event_category(FlightEvent event) {
  const std::string_view name = flight_event_name(event);
  return name.substr(0, name.find('.'));
}

void FlightRecorder::record(FlightEvent event, ResourceId resource,
                            NodeId node, std::int64_t arg) {
  record_at(now_ns(), event, resource, node, arg);
}

void FlightRecorder::record_at(std::uint64_t t_ns, FlightEvent event,
                               ResourceId resource, NodeId node,
                               std::int64_t arg) {
  Registry& registry = Registry::global();
  Registry::Shard* shard = registry.this_thread_shard();
  // Fault events are the trailing enum block (asserted in the enum's
  // comment); they go to the eviction-protected side ring.
  const bool fault = event >= FlightEvent::kPeerUp;
  auto& next = fault ? shard->fault_ring_next : shard->ring_next;
  const std::uint64_t cap =
      fault ? kFlightFaultRingCapacity : kFlightRingCapacity;
  const std::uint64_t seq = next.load(std::memory_order_relaxed);
  auto& slot = fault ? shard->fault_ring[seq % cap] : shard->ring[seq % cap];
  slot.t_ns.store(t_ns, std::memory_order_relaxed);
  slot.event.store(static_cast<std::uint8_t>(event),
                   std::memory_order_relaxed);
  slot.resource.store(resource, std::memory_order_relaxed);
  slot.node.store(node, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  next.store(seq + 1, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::collect_all() {
  Registry& registry = Registry::global();
  std::vector<FlightRecord> records;
  // Touch this thread's shard first so the lease exists before we take
  // the registry mutex (avoids self-deadlock ordering surprises).
  (void)registry.this_thread_shard();
  std::lock_guard<std::mutex> lock(registry.impl_->mutex);
  for (const auto& shard : registry.impl_->shards) {
    const auto drain = [&](const auto& ring, const auto& next,
                           std::uint64_t cap) {
      const std::uint64_t total = next.load(std::memory_order_acquire);
      const std::uint64_t kept = std::min<std::uint64_t>(total, cap);
      for (std::uint64_t i = total - kept; i < total; ++i) {
        const auto& slot = ring[i % cap];
        FlightRecord record;
        record.t_ns = slot.t_ns.load(std::memory_order_relaxed);
        record.thread = shard->index;
        record.event = static_cast<FlightEvent>(
            slot.event.load(std::memory_order_relaxed));
        record.resource = slot.resource.load(std::memory_order_relaxed);
        record.node = slot.node.load(std::memory_order_relaxed);
        record.arg = slot.arg.load(std::memory_order_relaxed);
        records.push_back(record);
      }
    };
    drain(shard->ring, shard->ring_next, kFlightRingCapacity);
    drain(shard->fault_ring, shard->fault_ring_next,
          kFlightFaultRingCapacity);
  }
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.t_ns < b.t_ns;
            });
  return records;
}

std::vector<FlightRecord> FlightRecorder::tail(int k) {
  std::vector<FlightRecord> records = collect_all();
  if (k >= 0 && records.size() > static_cast<std::size_t>(k)) {
    records.erase(records.begin(),
                  records.end() - static_cast<std::ptrdiff_t>(k));
  }
  return records;
}

std::string FlightRecorder::dump_tail(int k) {
  const std::vector<FlightRecord> records = tail(k);
  std::ostringstream out;
  out << "flight recorder tail (" << records.size() << " events):\n";
  char line[160];
  for (const FlightRecord& record : records) {
    const std::string_view name = flight_event_name(record.event);
    std::snprintf(line, sizeof(line), "  [+%.6fs] t%02u %.*s",
                  static_cast<double>(record.t_ns) * 1e-9, record.thread,
                  static_cast<int>(name.size()), name.data());
    out << line;
    if (record.resource != 0 || record.node != 0 || record.arg != 0) {
      std::snprintf(line, sizeof(line), " r=%d node=%d arg=%lld",
                    record.resource, record.node,
                    static_cast<long long>(record.arg));
      out << line;
    }
    out << "\n";
  }
  return out.str();
}

std::string FlightRecorder::chrome_trace_json() {
  const std::vector<FlightRecord> records = collect_all();
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FlightRecord& record = records[i];
    if (i != 0) out << ",";
    out << "\n  {\"name\": \"" << flight_event_name(record.event)
        << "\", \"cat\": \"" << flight_event_category(record.event)
        << "\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \"tid\": "
        << record.thread
        << ", \"ts\": " << static_cast<double>(record.t_ns) / 1000.0
        << ", \"args\": {\"resource\": " << record.resource
        << ", \"node\": " << record.node << ", \"arg\": " << record.arg
        << "}}";
  }
  out << "\n]}";
  return out.str();
}

void FlightRecorder::clear() {
  Registry& registry = Registry::global();
  std::lock_guard<std::mutex> lock(registry.impl_->mutex);
  for (const auto& shard : registry.impl_->shards) {
    shard->ring_next.store(0, std::memory_order_relaxed);
    shard->fault_ring_next.store(0, std::memory_order_relaxed);
  }
}

bool FlightRecorder::dump_on_failure_enabled() {
  const char* value = std::getenv("DMX_FLIGHT_DUMP");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace dmx::telemetry
