#include "modelcheck/swarm.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "common/check.hpp"
#include "modelcheck/invariants.hpp"
#include "net/latency.hpp"
#include "net/network.hpp"
#include "service/lock_space.hpp"
#include "service/space_workload.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::modelcheck {
namespace {

/// FNV-1a 64-bit over the network event stream, mirroring the determinism
/// golden tests: tag, envelope id, resource, route, ticks, message
/// description. The resource id is mixed in so two runs that route the
/// same bytes to different resources differ.
class SwarmTraceHasher final : public net::NetworkObserver {
 public:
  void on_send(const net::Envelope& env) override { mix('S', env); }
  void on_deliver(const net::Envelope& env) override { mix('D', env); }
  std::uint64_t digest() const { return hash_; }

 private:
  void mix(char tag, const net::Envelope& env) {
    byte(static_cast<unsigned char>(tag));
    u64(env.id);
    u64(static_cast<std::uint64_t>(env.resource));
    u64(static_cast<std::uint64_t>(env.from));
    u64(static_cast<std::uint64_t>(env.to));
    u64(static_cast<std::uint64_t>(env.sent_at));
    u64(static_cast<std::uint64_t>(env.deliver_at));
    for (const char c : env.message->describe()) {
      byte(static_cast<unsigned char>(c));
    }
  }
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }

  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::string topology_name(const SwarmConfig& config) {
  switch (config.topology) {
    case SwarmConfig::Topology::kLine:
      return "line";
    case SwarmConfig::Topology::kStar:
      return "star";
    case SwarmConfig::Topology::kRandom:
      break;
  }
  return "random";
}

/// One-line repro: everything that determines the run, in a form that can
/// be copied out of a failing test log straight into a SwarmConfig.
std::string make_repro(const SwarmConfig& config) {
  std::string repro = "swarm algorithm=" + config.algorithm->name +
                      " n=" + std::to_string(config.n) +
                      " seed=" + std::to_string(config.seed) +
                      " topology=" + topology_name(config) +
                      " resources=" + std::to_string(config.resources);
  if (!config.fault_plan.empty()) {
    repro += " faults='" + config.fault_plan.describe() + "'";
    repro += config.crash_recovery_enabled ? " recovery=on" : " recovery=off";
  }
  if (config.queue_local) {
    repro += " queue_local=on lease.max_chain=" +
             std::to_string(config.lease.max_chain);
  }
  return repro;
}

topology::Tree make_tree(const SwarmConfig& config) {
  switch (config.topology) {
    case SwarmConfig::Topology::kLine:
      return topology::Tree::line(config.n);
    case SwarmConfig::Topology::kStar:
      return topology::Tree::star(config.n, 1);
    case SwarmConfig::Topology::kRandom:
      break;
  }
  return topology::Tree::random_tree(config.n, config.seed);
}

/// StateView of one resource of a LockSpace: the per-algorithm structural
/// hooks (NEXT forest, HOLDER walk, ...) run unchanged against each
/// resource's protocol instances, with in-flight traffic filtered to that
/// resource. After a crash repair the structure lives in the compact
/// survivor world, so the view is built over the current epoch's
/// membership: node ids are ranks, in-flight endpoints are translated,
/// and stale-epoch envelopes (already fenced, structurally meaningless)
/// are excluded.
StateView make_space_view(service::LockSpace& space, ResourceId r) {
  const fault::Membership* m = &space.membership(r);
  const Epoch epoch = space.epoch(r);
  StateView view;
  view.n = m->size();
  view.node = [&space, r, m](NodeId v) -> const proto::MutexNode& {
    return space.node(r, m->original_of(v));
  };
  view.phase = [&space, r, m](NodeId v) {
    const NodeId original = m->original_of(v);
    if (space.is_in_cs(r, original)) return CsPhase::kInCs;
    return space.is_waiting(r, original) ? CsPhase::kWaiting : CsPhase::kIdle;
  };
  view.for_each_in_flight =
      [&space, r, m, epoch](const std::function<void(NodeId, NodeId,
                                                     const net::Message&)>& fn) {
        space.network().for_each_in_flight(
            [&fn, r, m, epoch](const net::Envelope& env) {
              if (env.resource != r || env.epoch != epoch) return;
              fn(m->rank_of(env.from), m->rank_of(env.to), *env.message);
            });
      };
  return view;
}

}  // namespace

SwarmResult run_swarm(const SwarmConfig& config) {
  DMX_CHECK_MSG(config.algorithm != nullptr,
                "SwarmConfig::algorithm is required");
  DMX_CHECK(config.n >= 2);
  DMX_CHECK(config.latency_lo >= 1 && config.latency_lo <= config.latency_hi);
  DMX_CHECK(config.resources >= 1);
  // A single fault-free resource runs the paper's single-CS closed loop
  // (workload::run_workload); several resources or a crash plan run the
  // multi-resource Zipf workload.
  const bool single = config.resources == 1 && config.fault_plan.empty();

  service::LockSpaceConfig space_config;
  space_config.n = config.n;
  space_config.algorithm = *config.algorithm;
  if (config.algorithm->needs_tree) {
    space_config.tree = make_tree(config);
  }
  space_config.latency_model =
      std::make_unique<net::UniformLatency>(config.latency_lo,
                                            config.latency_hi);
  space_config.seed = config.seed;
  space_config.fault_plan = config.fault_plan;
  space_config.recovery_enabled = config.crash_recovery_enabled;
  space_config.detect_after = config.detect_after;
  space_config.lease = config.lease;

  SwarmResult result;
  result.repro = make_repro(config);
  service::LockSpace space(std::move(space_config));

  SwarmTraceHasher hasher;
  space.network().set_observer(&hasher);

  // Re-check the algorithm's structural invariants after every event, on
  // top of the space's built-in CS-exclusivity and token-uniqueness
  // checks.
  const InvariantHook hook = invariant_hook_for(*config.algorithm);
  if (hook != nullptr) {
    space.set_post_event_hook([hook](service::LockSpace& s, ResourceId r) {
      // Between a fault and its repair the structure is legitimately
      // broken (paths lead into the crashed node); structural checks
      // resume on the repaired compact world.
      if (s.is_degraded(r)) return;
      const std::string violation = hook(make_space_view(s, r));
      if (!violation.empty()) throw std::logic_error(violation);
    });
  }

  if (single) {
    space.open("swarm/res-1", *config.algorithm, config.initial_token_holder);
  } else {
    for (int i = 1; i <= config.resources; ++i) {
      space.open("swarm/res-" + std::to_string(i));
    }
  }

  if (config.drop_probability > 0.0) {
    space.network().set_drop_probability(config.drop_probability);
  }
  if (!config.duplicate_next_kind.empty()) {
    space.network().duplicate_next(config.duplicate_next_kind);
  }

  // Decouple the workload's RNG stream from the network's (both descend
  // from the master seed, deterministically).
  const std::uint64_t workload_seed = config.seed * 0x9e3779b97f4a7c15ULL + 1;
  try {
    if (single) {
      workload::WorkloadConfig wl;
      wl.target_entries = config.target_entries;
      wl.mean_think_ticks = config.mean_think_ticks;
      wl.hold_lo = config.hold_lo;
      wl.hold_hi = config.hold_hi;
      wl.seed = workload_seed;
      const workload::WorkloadResult run =
          workload::run_workload(space, /*r=*/0, wl);
      result.entries = run.entries;
      result.makespan = run.makespan;
      result.max_wait_ticks = static_cast<Tick>(run.waiting_ticks.max());
    } else {
      service::SpaceWorkloadConfig wl;
      wl.target_entries = config.target_entries;
      wl.clients_per_node = config.clients_per_node;
      wl.zipf_s = config.zipf_s;
      wl.mean_think_ticks = config.mean_think_ticks;
      wl.hold_lo = config.hold_lo;
      wl.hold_hi = config.hold_hi;
      wl.seed = workload_seed;
      wl.queue_local = config.queue_local;
      const service::SpaceWorkloadResult run =
          service::run_space_workload(space, wl);
      result.entries = run.entries;
      result.makespan = run.makespan;
      result.max_wait_ticks = run.max_wait_ticks;
    }
  } catch (const std::logic_error& error) {
    result.violation = error.what();
  }
  result.messages = space.network().stats().total_sent;
  result.trace_hash = hasher.digest();

  if (result.violation.empty()) {
    for (ResourceId r = 0; r < space.resource_count(); ++r) {
      // A resource left degraded (no live majority, or recovery off) may
      // legitimately strand waiters; anything else must have drained —
      // including every node's local waiter queue.
      if (space.is_degraded(r)) continue;
      for (NodeId v = 1; v <= config.n && result.violation.empty(); ++v) {
        if (space.is_waiting(r, v)) {
          result.violation = "node " + std::to_string(v) +
                             " still waiting on " + space.name(r) +
                             " after quiescence";
        } else if (space.local_queue_depth(r, v) != 0) {
          result.violation = "node " + std::to_string(v) + " still has " +
                             std::to_string(space.local_queue_depth(r, v)) +
                             " queued local waiters on " + space.name(r) +
                             " after quiescence";
        }
      }
    }
  }
  if (result.violation.empty() && config.max_wait_bound > 0 &&
      result.max_wait_ticks > config.max_wait_bound) {
    result.violation = "bounded waiting violated: max request->grant wait " +
                       std::to_string(result.max_wait_ticks) +
                       " ticks exceeds bound " +
                       std::to_string(config.max_wait_bound);
  }
  result.ok = result.violation.empty();
  if (!result.ok) result.violation += "\nrepro: " + result.repro;
  space.network().set_observer(nullptr);
  return result;
}

}  // namespace dmx::modelcheck
