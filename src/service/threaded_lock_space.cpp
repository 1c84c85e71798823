#include "service/threaded_lock_space.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quorum/election.hpp"
#include "telemetry/flight_recorder.hpp"

namespace dmx::service {

ThreadedLockSpace::ThreadedLockSpace(ThreadedLockSpaceConfig config)
    : config_(std::move(config)),
      directory_(config_.n, config_.directory_vnodes, config_.seed),
      gates_(*this, config_.n, config_.lease, config_.jitter_us,
             exec::ExecutorConfig{config_.workers, config_.spin}) {
  DMX_CHECK(config_.n >= 1);
  DMX_CHECK_MSG(!config_.resources.empty(),
                "a ThreadedLockSpace needs at least one resource");

  // Resolve each resource's algorithm (default or per-name override).
  algorithms_.reserve(config_.resources.size());
  for (const std::string& name : config_.resources) {
    const proto::Algorithm* algorithm = &config_.algorithm;
    for (const auto& [override_name, override_algorithm] :
         config_.resource_algorithms) {
      if (override_name == name) algorithm = &override_algorithm;
    }
    algorithms_.push_back(*algorithm);
  }
  for (const auto& [override_name, override_algorithm] :
       config_.resource_algorithms) {
    DMX_CHECK_MSG(std::find(config_.resources.begin(),
                            config_.resources.end(),
                            override_name) != config_.resources.end(),
                  "algorithm override for unknown resource "
                      << override_name);
  }
  bool needs_tree = false;
  for (const proto::Algorithm& algorithm : algorithms_) {
    needs_tree = needs_tree || algorithm.needs_tree;
  }
  if (needs_tree && !config_.tree.has_value()) {
    config_.tree = topology::Tree::star(config_.n, 1);
  }

  const int m = static_cast<int>(config_.resources.size());
  repair_.reserve(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    repair_.push_back(std::make_unique<RepairState>());
    repair_.back()->membership = fault::Membership::identity(config_.n);
  }

  // Every resource's metrics are interned before any protocol instance
  // is built: interleaving the registry lookups with the factories made
  // construction of a 64-resource space ~8% slower.
  for (int r = 0; r < m; ++r) {
    gates_.add_resource(config_.resources[static_cast<std::size_t>(r)],
                        algorithms_[static_cast<std::size_t>(r)]);
  }
  Rng seeder(config_.seed);
  initial_holder_.assign(static_cast<std::size_t>(m), kNilNode);
  for (const std::string& name : config_.resources) {
    const ResourceId r = directory_.open(name);
    const proto::Algorithm& algorithm =
        algorithms_[static_cast<std::size_t>(r)];
    proto::ClusterSpec spec;
    spec.n = config_.n;
    spec.initial_token_holder =
        algorithm.name == "Singhal" ? 1 : directory_.home_node(r);
    spec.tree = config_.tree.has_value() ? &*config_.tree : nullptr;
    spec.seed = config_.seed;
    initial_holder_[static_cast<std::size_t>(r)] = spec.initial_token_holder;
    auto protocol_nodes = algorithm.factory(spec);
    DMX_CHECK(protocol_nodes.size() ==
              static_cast<std::size_t>(config_.n) + 1);
    for (NodeId v = 1; v <= config_.n; ++v) {
      gates_.add_gate(r, v, seeder.next(),
                      std::move(protocol_nodes[static_cast<std::size_t>(v)]));
    }
  }

  auto& registry = telemetry::Registry::global();
  repair_hist_ = registry.histogram("fault.repair_ns");
  unavail_hist_ = registry.histogram("fault.unavail_window_ns");
}

const proto::Algorithm& ThreadedLockSpace::algorithm(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return algorithms_[static_cast<std::size_t>(r)];
}

bool ThreadedLockSpace::is_node_up(NodeId v) const {
  DMX_CHECK(v >= 1 && v <= config_.n);
  return !gate(0, v).down.load(std::memory_order_relaxed);
}

Epoch ThreadedLockSpace::epoch(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return gates_.resource(r).epoch.load(std::memory_order_acquire);
}

void ThreadedLockSpace::lock(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  const LockError error = gate(r, v).lock(nullptr);
  DMX_CHECK_MSG(error == LockError::kOk,
                "lock of resource " << name(r) << " on node " << v
                                    << " can never be granted (crashed node "
                                       "or dead resource)");
}

LockError ThreadedLockSpace::try_lock_for(ResourceId r, NodeId v,
                                          std::chrono::milliseconds timeout) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  return gate(r, v).lock(&timeout);
}

void ThreadedLockSpace::unlock(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  if (!gate(r, v).unlock()) return;
  // Complete a repair that deferred while this node held the lock. Taken
  // without the client mutex: maybe_repair acquires client mutexes under
  // the repair mutex, never the reverse.
  bool complete = false;
  {
    RepairState& rs = *repair_[static_cast<std::size_t>(r)];
    std::lock_guard<std::mutex> guard(rs.mutex);
    complete = rs.pending;
    rs.pending = false;
  }
  if (complete) maybe_repair(r);
}

void ThreadedLockSpace::crash(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  // Every gate of v goes down before anything else changes, so each
  // repair below sees v dead on its resource.
  if (gate(0, v).down.exchange(true)) return;
  for (int r = 1; r < resource_count(); ++r) {
    gate(r, v).down.store(true, std::memory_order_seq_cst);
  }
  gates_.fault_seen.store(true, std::memory_order_seq_cst);
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kCrash,
                                    /*resource=*/0, v);
  for (int r = 0; r < resource_count(); ++r) gate(r, v).abandon();
  for (int r = 0; r < resource_count(); ++r) {
    if (config_.recovery_enabled) {
      maybe_repair(r);
    } else if (initial_holder_[static_cast<std::size_t>(r)] == v) {
      // Token-loss detection without regeneration: the resource whose
      // home (initial token holder) died can never grant again. Surface
      // it instead of letting try_lock_for wait forever.
      gates_.mark_unavailable(r);
      wake_all(r);
    }
  }
}

void ThreadedLockSpace::recover(NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  if (!gate(0, v).down.exchange(false)) return;
  for (int r = 1; r < resource_count(); ++r) {
    gate(r, v).down.store(false, std::memory_order_seq_cst);
  }
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRecover,
                                    /*resource=*/0, v);
  if (!config_.recovery_enabled) return;  // back up, but never reintegrated
  for (int r = 0; r < resource_count(); ++r) {
    maybe_repair(r);
  }
}

void ThreadedLockSpace::maybe_repair(ResourceId r) {
  RepairState& rs = *repair_[static_cast<std::size_t>(r)];
  std::lock_guard<std::mutex> repair_guard(rs.mutex);

  std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1, 0);
  for (NodeId v = 1; v <= config_.n; ++v) {
    up[static_cast<std::size_t>(v)] =
        gate(r, v).down.load(std::memory_order_seq_cst) ? 0 : 1;
  }
  bool current = true;
  for (NodeId v = 1; v <= config_.n; ++v) {
    current = current && (up[static_cast<std::size_t>(v)] != 0) ==
                             rs.membership.contains(v);
  }
  if (current) {
    rs.pending = false;
    return;
  }

  // The membership is stale: a regeneration is (or stays) in flight. The
  // clock starts at first observation and survives deferrals, so the
  // histogram reflects what a waiting client actually experienced.
  if (rs.repair_started_ns == 0) {
    rs.repair_started_ns = telemetry::now_ns();
    telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairStart, r);
  }

  const NodeId winner = quorum::elect_regenerator(config_.n, up);
  if (winner == kNilNode) {
    // No live majority: the resource stays degraded until enough nodes
    // come back. Waiters are told rather than left hanging.
    gates_.mark_unavailable(r);
    wake_all(r);
    return;
  }

  // Fence first: from here on no grant minted in the old world can be
  // consumed (the gate revalidates its grant's epoch against this), and
  // every old-tagged strand task drops itself.
  GateResource& res = gates_.resource(r);
  const Epoch e = res.epoch.load(std::memory_order_acquire) + 1;
  res.epoch.store(e, std::memory_order_seq_cst);

  // Defer while a live survivor is inside its CS; its unlock completes
  // the repair (the epoch stays bumped, so the resource quiesces).
  for (NodeId v = 1; v <= config_.n; ++v) {
    if (up[static_cast<std::size_t>(v)] && gate(r, v).holding()) {
      rs.pending = true;
      return;
    }
  }

  fault::Membership membership =
      fault::Membership::survivors(config_.n, up);
  proto::ClusterSpec spec;
  spec.n = membership.size();
  spec.initial_token_holder = membership.rank_of(winner);
  spec.seed = config_.seed;
  spec.epoch = e;
  const proto::Algorithm& algorithm =
      algorithms_[static_cast<std::size_t>(r)];
  if (algorithm.needs_tree) {
    // Star over the survivors rooted at the winner: diameter 2 from any
    // survivor to the regenerated token, independent of who died.
    rs.trees.push_back(std::make_unique<topology::Tree>(
        topology::Tree::star(spec.n, spec.initial_token_holder)));
    spec.tree = rs.trees.back().get();
  }
  auto fresh = algorithm.factory(spec);
  DMX_CHECK(fresh.size() == static_cast<std::size_t>(spec.n) + 1);
  auto shared =
      std::make_shared<const fault::Membership>(std::move(membership));
  rs.membership = *shared;
  if (res.unavailable.exchange(false, std::memory_order_seq_cst)) {
    const std::uint64_t since =
        res.unavailable_since_ns.exchange(0, std::memory_order_relaxed);
    if (since != 0) {
      telemetry::observe(unavail_hist_, telemetry::now_ns() - since);
    }
  }

  // Phase 1: install the fresh world. Reset tasks are unfenced — they ARE
  // the epoch transition on each strand.
  for (NodeId rank = 1; rank <= shared->size(); ++rank) {
    gate(r, shared->original_of(rank))
        .post_reset(e, shared,
                    std::move(fresh[static_cast<std::size_t>(rank)]));
  }
  // Phase 2: only after EVERY reset is queued, re-issue requests for
  // parked waiters — any message a re-request triggers is then posted
  // behind the destination's reset in its strand FIFO, never ahead of it.
  for (NodeId rank = 1; rank <= shared->size(); ++rank) {
    gate(r, shared->original_of(rank)).post_rerequest(e);
  }
  telemetry::observe(repair_hist_,
                     telemetry::now_ns() - rs.repair_started_ns);
  rs.repair_started_ns = 0;
  telemetry::FlightRecorder::record(telemetry::FlightEvent::kRepairDone, r,
                                    winner, static_cast<std::int64_t>(e));
}

void ThreadedLockSpace::wake_all(ResourceId r) {
  for (NodeId v = 1; v <= config_.n; ++v) gate(r, v).wake();
}

std::uint64_t ThreadedLockSpace::total_entries() const {
  return gates_.total_entries();
}

std::uint64_t ThreadedLockSpace::entries(ResourceId r) const {
  DMX_CHECK(r >= 0 && r < resource_count());
  return gates_.resource(r).entries.load(std::memory_order_relaxed);
}

int ThreadedLockSpace::local_waiters(ResourceId r, NodeId v) {
  DMX_CHECK(v >= 1 && v <= config_.n);
  DMX_CHECK(r >= 0 && r < resource_count());
  return gate(r, v).local_waiters();
}

std::optional<std::string> ThreadedLockSpace::first_error() const {
  return gates_.first_error();
}

telemetry::MetricsSnapshot ThreadedLockSpace::telemetry_snapshot() const {
  telemetry::MetricsSnapshot snap = gates_.snapshot();
  snap.set_counter("service.messages_sent", messages_sent());
  return snap;
}

void ThreadedLockSpace::route(ResourceId r, NodeId from, NodeId to,
                              net::MessagePtr message, Epoch tag) {
  DMX_CHECK(to >= 1 && to <= config_.n && to != from);
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  // The network drops traffic to and from dead nodes (sends still count,
  // as in the simulated substrate).
  if (gate(r, from).down.load(std::memory_order_relaxed) ||
      gate(r, to).down.load(std::memory_order_relaxed)) {
    return;
  }
  gate(r, to).post_deliver(tag, from, std::move(message));
}

}  // namespace dmx::service
