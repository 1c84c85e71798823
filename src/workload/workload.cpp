#include "workload/workload.hpp"

#include <algorithm>
#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dmx::workload {
namespace {

using harness::CsEvent;

/// Shared driver state across all participant loops.
struct Driver {
  service::LockSpace& space;
  ResourceId resource;
  WorkloadConfig config;
  Rng rng;
  std::uint64_t completed = 0;
  bool stopped = false;
  std::vector<CsEvent> events;

  Driver(service::LockSpace& s, ResourceId r, const WorkloadConfig& cfg)
      : space(s), resource(r), config(cfg), rng(cfg.seed) {}

  Tick sample_hold() {
    if (config.hold_hi <= config.hold_lo) return config.hold_lo;
    return rng.uniform_int(config.hold_lo, config.hold_hi);
  }

  Tick sample_think() {
    if (config.mean_think_ticks <= 0.0) return 1;
    const auto t = static_cast<Tick>(rng.exponential(config.mean_think_ticks));
    return std::max<Tick>(t, 1);
  }

  void log(NodeId v, CsEvent::Kind kind) {
    events.push_back({space.simulator().now(), v, kind});
  }

  void issue(NodeId v) {
    if (stopped) return;
    log(v, CsEvent::Kind::kRequest);
    space.acquire(resource, v, [this](ResourceId, NodeId entered) {
      log(entered, CsEvent::Kind::kEnter);
      space.simulator().schedule_after(sample_hold(), [this, entered] {
        log(entered, CsEvent::Kind::kExit);
        space.release(resource, entered);
        ++completed;
        if (completed >= config.target_entries) {
          stopped = true;
          return;
        }
        space.simulator().schedule_after(sample_think(),
                                         [this, entered] { issue(entered); });
      });
    });
  }
};

}  // namespace

WorkloadResult run_workload(service::LockSpace& space, ResourceId r,
                            const WorkloadConfig& config) {
  DMX_CHECK(config.target_entries >= 1);
  space.run_to_quiescence();
  space.network().reset_stats();

  std::vector<NodeId> participants = config.participants;
  if (participants.empty()) {
    for (NodeId v = 1; v <= space.nodes(); ++v) participants.push_back(v);
  }

  auto driver = std::make_unique<Driver>(space, r, config);
  const Tick started_at = space.simulator().now();
  const std::uint64_t entries_before = space.entries(r);

  // Stagger initial arrivals by the think-time distribution so the run
  // does not start with an artificial thundering herd (except under
  // saturation, where the herd is the point).
  for (NodeId v : participants) {
    const Tick offset =
        config.mean_think_ticks > 0.0 ? driver->sample_think() : 0;
    space.simulator().schedule_after(offset,
                                     [d = driver.get(), v] { d->issue(v); });
  }
  space.run_to_quiescence();
  DMX_CHECK_MSG(driver->completed >= config.target_entries,
                "workload stalled at " << driver->completed << " of "
                                       << config.target_entries
                                       << " entries (liveness bug?)");

  WorkloadResult result;
  result.entries = space.entries(r) - entries_before;
  result.messages = space.network().stats().total_sent;
  result.messages_per_entry =
      static_cast<double>(result.messages) /
      static_cast<double>(std::max<std::uint64_t>(result.entries, 1));
  result.makespan = space.simulator().now() - started_at;
  result.waiting_ticks = harness::waiting_times(driver->events);
  result.sync_delay_ticks = harness::synchronization_delays(driver->events);
  result.events = std::move(driver->events);
  return result;
}

}  // namespace dmx::workload
