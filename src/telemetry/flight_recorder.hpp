// Flight recorder: fixed-size per-thread ring buffers of compact
// structured events, for post-hoc reconstruction of "what just happened"
// when a hardware-substrate test fails or a bench run needs a timeline.
//
// Metrics (telemetry.hpp) answer "how much / how fast"; the flight
// recorder answers "in what order". Each thread appends 32-byte records
// to its own shard's ring (overwriting the oldest once full, like a
// cockpit recorder), so steady-state recording is lock-free and
// allocation-free. On demand the rings are merged by timestamp into:
//
//  * tail(k)        — the last k events across all threads, oldest first;
//  * dump_tail(k)   — the same, rendered one line per event:
//                       [+1.234567s] t03 fault.repair_done r=2 node=4 arg=1
//  * chrome_trace_json() — a chrome://tracing / Perfetto "traceEvents"
//                     instant-event dump, one tid per recording thread,
//                     categorised client / strand / wire / fault.
//
// Fault- and transport-tier test binaries install a gtest failure
// listener (tests/support/flight_dump.hpp) that prints dump_tail next to
// the seed repro line when DMX_FLIGHT_DUMP=1 — the env var the fault and
// transport ctest presets set.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::telemetry {

/// Every recordable event, grouped by Chrome-trace category.
enum class FlightEvent : std::uint8_t {
  // client: the lock()/unlock() gate.
  kRequest,
  kGrant,
  kRelease,
  kTimeout,
  kUnavailable,
  /// Lease chaining: a release handed the CS straight to a co-located
  /// waiter (arg = chain length so far) / offered the token back to the
  /// protocol with local waiters still queued (arg = chain length ended).
  kChainGrant,
  kLeaseYield,
  // strand: executor scheduling.
  kTokenForward,
  kPark,
  kSteal,
  // wire: transport event loop.
  kFrameSend,
  kFrameRecv,
  kBackpressure,
  // fault: membership, crash, repair. This block must stay the trailing
  // block of the enum — record routing tests `event >= kPeerUp` to send
  // fault events to the dedicated side ring.
  kPeerUp,
  kPeerDown,
  kGoodbye,
  kCrash,
  kRecover,
  kRepairStart,
  kRepairDone,
  kResourceUnavailable,
};

/// Short dotted name, e.g. "fault.repair_done".
std::string_view flight_event_name(FlightEvent event);
/// Chrome-trace category: "client", "strand", "wire", or "fault".
std::string_view flight_event_category(FlightEvent event);

/// One ring slot. `resource`/`node` are kNilResource-ish 0 / kNilNode
/// when not applicable; `arg` is event-specific (epoch for repair_done,
/// byte count for frames, peer id for peer events...).
struct FlightRecord {
  std::uint64_t t_ns = 0;
  std::uint32_t thread = 0;  // recording thread's shard-stable index
  FlightEvent event = FlightEvent::kRequest;
  ResourceId resource = 0;
  NodeId node = 0;
  std::int64_t arg = 0;
};

/// Capacity of each per-thread ring, in records. Sized so a ring stays
/// cache-resident (512 x 32B = 16KB): recording streams through the
/// ring, and a larger ring turns every append into a cache miss on the
/// saturated path while buying tail depth nobody reads — failure dumps
/// show the last ~64 events, and with one ring per thread the process
/// retains thousands.
inline constexpr int kFlightRingCapacity = 512;

/// Capacity of each per-thread FAULT side ring. Fault-category events
/// (membership, crash, repair) are the rarest and most valuable
/// post-mortem evidence; in the shared ring a saturated wire or client
/// path would evict the crash that happened seconds before the failure
/// being diagnosed, so they keep their own small ring.
inline constexpr int kFlightFaultRingCapacity = 64;

/// Static facade over the per-thread rings owned by Registry's shards.
class FlightRecorder {
 public:
  /// Appends to this thread's ring: a handful of relaxed atomic stores
  /// into a fixed single-writer ring — no lock, no allocation.
  static void record(FlightEvent event, ResourceId resource = 0,
                     NodeId node = 0, std::int64_t arg = 0);

  /// record() with a caller-supplied now_ns() timestamp. Instrumented
  /// paths that already read the clock (to feed a latency histogram)
  /// pass that reading instead of paying a second clock call — the
  /// difference between ~50ns and ~25ns per event on the hot path.
  static void record_at(std::uint64_t t_ns, FlightEvent event,
                        ResourceId resource = 0, NodeId node = 0,
                        std::int64_t arg = 0);

  /// The most recent `k` events across every thread, merged by
  /// timestamp, oldest first.
  static std::vector<FlightRecord> tail(int k);

  /// tail(k) rendered one line per event (see header comment).
  static std::string dump_tail(int k);

  /// Full contents of every ring as a Chrome-trace JSON document:
  /// {"traceEvents":[{"name","cat","ph":"i","ts",...},...]}. Load in
  /// chrome://tracing or ui.perfetto.dev.
  static std::string chrome_trace_json();

  /// Clears every ring (Registry::reset() also does this).
  static void clear();

  /// True when the DMX_FLIGHT_DUMP environment variable is set to a
  /// non-empty, non-"0" value — the failure-listener gate.
  static bool dump_on_failure_enabled();

 private:
  /// Every ring's contents, merged and timestamp-sorted.
  static std::vector<FlightRecord> collect_all();
};

}  // namespace dmx::telemetry
