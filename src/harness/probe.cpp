#include "harness/probe.hpp"

#include <utility>

#include "common/check.hpp"

namespace dmx::harness {

void hold_and_release(service::LockSpace& space, ResourceId r, NodeId v,
                      Tick hold_ticks,
                      std::function<void(NodeId)> after_release) {
  DMX_CHECK(hold_ticks >= 0);
  space.acquire(r, v,
                [&space, hold_ticks, after = std::move(after_release)](
                    ResourceId resource, NodeId entered) {
                  space.simulator().schedule_after(
                      hold_ticks, [&space, resource, entered, after] {
                        space.release(resource, entered);
                        if (after) after(entered);
                      });
                });
}

void park_token_at(service::LockSpace& space, ResourceId r, NodeId target) {
  space.run_to_quiescence();
  hold_and_release(space, r, target, 0);
  space.run_to_quiescence();
  if (space.algorithm(r).token_based) {
    DMX_CHECK_MSG(space.node(r, target).has_token(),
                  "token did not come to rest at node " << target);
  }
}

ProbeResult single_entry_probe(service::LockSpace& space, ResourceId r,
                               NodeId requester, Tick hold_ticks) {
  space.run_to_quiescence();
  space.network().reset_stats();

  ProbeResult result;
  const Tick started_at = space.simulator().now();
  bool entered = false;
  space.acquire(r, requester, [&](ResourceId resource, NodeId v) {
    entered = true;
    result.messages_to_enter = space.network().stats().total_sent;
    result.ticks_to_enter = space.simulator().now() - started_at;
    space.simulator().schedule_after(
        hold_ticks, [&space, resource, v] { space.release(resource, v); });
  });
  space.run_to_quiescence();
  DMX_CHECK_MSG(entered, "probe request was never granted");
  result.messages_total = space.network().stats().total_sent;
  return result;
}

}  // namespace dmx::harness
