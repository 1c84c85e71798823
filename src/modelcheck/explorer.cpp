#include "modelcheck/explorer.hpp"

#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "fault/membership.hpp"
#include "net/message.hpp"
#include "net/message_kind.hpp"
#include "proto/mutex_node.hpp"
#include "proto/snapshot.hpp"
#include "proto/world.hpp"
#include "quorum/election.hpp"

namespace dmx::modelcheck {
namespace {

/// Messages in flight are immutable once sent, so explored states share
/// them; copying a system state copies pointers, not payloads.
using SharedMessage = std::shared_ptr<const net::Message>;

/// Full system state: per-node protocol snapshots plus the engine's own
/// bookkeeping (application phase, remaining request budget) plus the
/// FIFO channel contents. The std::map keeps a canonical channel order
/// for encoding.
struct SysState {
  std::vector<std::string> node_blob;   // index 1..n
  std::vector<std::uint8_t> phase;      // index 1..n, CsPhase
  std::vector<std::uint8_t> budget;     // index 1..n
  std::map<std::pair<NodeId, NodeId>, std::vector<SharedMessage>> channels;
  /// Crash epoch flags: the configured victim has crashed / the survivors
  /// have regenerated. Post-regeneration, node_blob holds COMPACT-world
  /// snapshots at the survivors' original indices.
  std::uint8_t crashed = 0;
  std::uint8_t regenerated = 0;

  std::string encode() const {
    proto::SnapshotWriter w;
    w.u8(crashed);
    w.u8(regenerated);
    for (std::size_t v = 1; v < node_blob.size(); ++v) {
      w.str(node_blob[v]);
      w.u8(phase[v]);
      w.u8(budget[v]);
    }
    for (const auto& [channel, fifo] : channels) {
      if (fifo.empty()) continue;
      w.i32(channel.first);
      w.i32(channel.second);
      w.i32(static_cast<std::int32_t>(fifo.size()));
      for (const SharedMessage& message : fifo) {
        w.str(message->encode());
      }
    }
    return w.take();
  }
};

/// Context adapter capturing handler outputs into the successor state.
class CaptureContext final : public proto::Context {
 public:
  /// `self` is always an ORIGINAL node id. With a `membership`, the
  /// handler lives in the regenerated compact world: self()/send() speak
  /// ranks to it while channels stay keyed by original ids. `drop_to`
  /// models the network discarding traffic to a dead node.
  CaptureContext(NodeId self, int n, SysState& state,
                 const fault::Membership* membership = nullptr,
                 NodeId drop_to = kNilNode)
      : self_(self), n_(n), state_(state), membership_(membership),
        drop_to_(drop_to) {}

  NodeId self() const override {
    return membership_ != nullptr ? membership_->rank_of(self_) : self_;
  }
  int cluster_size() const override {
    return membership_ != nullptr ? membership_->size() : n_;
  }
  void send(NodeId to, net::MessagePtr message) override {
    const NodeId to_orig =
        membership_ != nullptr ? membership_->original_of(to) : to;
    DMX_CHECK(to_orig >= 1 && to_orig <= n_ && to_orig != self_);
    if (to_orig == drop_to_) return;  // dead destination: network drops it
    state_.channels[{self_, to_orig}].emplace_back(std::move(message));
  }
  void grant() override {
    const auto v = static_cast<std::size_t>(self_);
    if (state_.phase[v] != static_cast<std::uint8_t>(CsPhase::kWaiting)) {
      throw std::logic_error("grant() for node " + std::to_string(self_) +
                             " which has no pending request");
    }
    state_.phase[v] = static_cast<std::uint8_t>(CsPhase::kInCs);
  }

 private:
  NodeId self_;
  int n_;
  SysState& state_;
  const fault::Membership* membership_;
  NodeId drop_to_;
};

class Explorer {
 public:
  explicit Explorer(const ExplorerConfig& config) : config_(config) {
    DMX_CHECK_MSG(config.algorithm != nullptr,
                  "ExplorerConfig::algorithm is required");
    DMX_CHECK(config.n >= 1);
    DMX_CHECK(config.requests_per_node >= 1 &&
              config.requests_per_node <= 255);
    DMX_CHECK(config.initial_token_holder >= 1 &&
              config.initial_token_holder <= config.n);
    if (config.algorithm->needs_tree) {
      DMX_CHECK_MSG(config.tree != nullptr,
                    config.algorithm->name << " requires a logical tree");
      DMX_CHECK(config.tree->size() == config.n);
    }
    for (const std::string& kind : config.algorithm->token_message_kinds) {
      token_kinds_.push_back(net::MessageKind::of(kind));
    }
    for (const std::string& kind : config.duplicate_message_kinds) {
      duplicate_kinds_.push_back(net::MessageKind::of(kind));
    }
    hook_ = invariant_hook_for(*config.algorithm);

    nodes_ = proto::initial_world(*config_.algorithm, config_.n,
                                  config_.initial_token_holder, config_.tree)
                 .nodes;
    if (config_.mutate_initial) config_.mutate_initial(nodes_);

    if (config_.crash_node != kNilNode) {
      DMX_CHECK(config_.crash_node >= 1 && config_.crash_node <= config_.n);
      // The post-crash world is fully determined by (n, victim): survivors
      // membership, quorum-elected regenerator and the fresh compact
      // protocol instances can all be built once up front.
      std::vector<std::uint8_t> up(static_cast<std::size_t>(config_.n) + 1,
                                   1);
      up[static_cast<std::size_t>(config_.crash_node)] = 0;
      membership_ = fault::Membership::survivors(config_.n, up);
      regen_winner_ = quorum::elect_regenerator(config_.n, up);
      regen_enabled_ = config_.regeneration && regen_winner_ != kNilNode;
      if (regen_enabled_) {
        regen_nodes_ = proto::regenerated_world(
                           *config_.algorithm, membership_.size(),
                           membership_.rank_of(regen_winner_))
                           .nodes;
        regen_init_blob_.assign(1, "");
        for (NodeId r = 1; r <= membership_.size(); ++r) {
          regen_init_blob_.push_back(
              regen_nodes_[static_cast<std::size_t>(r)]->snapshot());
        }
      }
    }
  }

  ExplorerResult run() {
    SysState initial;
    initial.node_blob.resize(static_cast<std::size_t>(config_.n) + 1);
    initial.phase.assign(static_cast<std::size_t>(config_.n) + 1,
                         static_cast<std::uint8_t>(CsPhase::kIdle));
    initial.budget.assign(
        static_cast<std::size_t>(config_.n) + 1,
        static_cast<std::uint8_t>(config_.requests_per_node));
    for (NodeId v = 1; v <= config_.n; ++v) {
      initial.node_blob[static_cast<std::size_t>(v)] =
          nodes_[static_cast<std::size_t>(v)]->snapshot();
    }

    std::deque<std::string> frontier;
    const std::string initial_key = initial.encode();
    states_by_key_.emplace(initial_key, initial);
    predecessor_.emplace(initial_key,
                         std::pair<std::string, Action>{"", Action{}});
    frontier.push_back(initial_key);
    if (!check_state(initial, initial_key)) {
      dump_node_states(initial);
      return finish();
    }

    while (!frontier.empty()) {
      if (states_by_key_.size() > config_.max_states) {
        result_.truncated = true;
        result_.violation = "state budget exhausted (inconclusive)";
        return finish();
      }
      const std::string key = std::move(frontier.front());
      frontier.pop_front();
      const SysState& state = states_by_key_.at(key);

      const std::vector<Action> actions = enabled_actions(state);
      if (actions.empty()) {
        ++result_.terminal_states;
        // Terminal: channels drained, nobody in CS. A waiter here would
        // wait forever — deadlock/starvation (Theorems 1 and 2).
        for (NodeId v = 1; v <= config_.n; ++v) {
          if (state.phase[static_cast<std::size_t>(v)] !=
              static_cast<std::uint8_t>(CsPhase::kIdle)) {
            record_violation("terminal state leaves node " +
                                 std::to_string(v) + " waiting forever",
                             key);
            dump_node_states(state);
            return finish();
          }
        }
        continue;
      }
      for (const Action& action : actions) {
        SysState next;
        try {
          next = apply(state, action);
        } catch (const std::logic_error& error) {
          // A handler precondition fired (e.g. a duplicated token message
          // delivered to a node that is not waiting): the production code
          // itself detected the corruption. Report it with its trace.
          result_.violation =
              std::string("protocol assertion: ") + error.what();
          result_.counterexample = trace_to(key);
          result_.counterexample.push_back(action);
          return finish();
        }
        ++result_.transitions;
        std::string next_key = next.encode();
        if (states_by_key_.find(next_key) != states_by_key_.end()) {
          continue;
        }
        predecessor_.emplace(next_key,
                             std::pair<std::string, Action>{key, action});
        const bool ok = check_state(next, next_key);
        if (!ok) dump_node_states(next);
        states_by_key_.emplace(next_key, std::move(next));
        if (!ok) return finish();
        frontier.push_back(std::move(next_key));
      }
    }
    return finish();
  }

 private:
  std::vector<Action> enabled_actions(const SysState& state) const {
    std::vector<Action> actions;
    for (NodeId v = 1; v <= config_.n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (state.phase[i] == static_cast<std::uint8_t>(CsPhase::kIdle) &&
          state.budget[i] > 0) {
        actions.push_back({Action::Type::kRequest, v, kNilNode});
      }
      if (state.phase[i] == static_cast<std::uint8_t>(CsPhase::kInCs)) {
        actions.push_back({Action::Type::kRelease, v, kNilNode});
      }
    }
    for (const auto& [channel, fifo] : state.channels) {
      if (fifo.empty()) continue;
      actions.push_back({Action::Type::kDeliver, channel.second,
                         channel.first});
      if (is_duplicate_kind(fifo.front()->kind_id())) {
        actions.push_back({Action::Type::kDeliverDup, channel.second,
                           channel.first});
      }
    }
    if (config_.crash_node != kNilNode && !state.crashed) {
      actions.push_back({Action::Type::kCrash, config_.crash_node, kNilNode});
    }
    if (state.crashed && !state.regenerated && regen_enabled_) {
      // Repair defers while a survivor is inside its CS (the runtime's
      // install deferred to the holder's unlock): regeneration only fires
      // on an unoccupied resource.
      bool occupied = false;
      for (NodeId v = 1; v <= config_.n; ++v) {
        occupied |= state.phase[static_cast<std::size_t>(v)] ==
                    static_cast<std::uint8_t>(CsPhase::kInCs);
      }
      if (!occupied) {
        actions.push_back({Action::Type::kRegenerate, regen_winner_,
                           kNilNode});
      }
    }
    return actions;
  }

  bool is_duplicate_kind(net::MessageKind kind) const {
    for (const net::MessageKind candidate : duplicate_kinds_) {
      if (candidate == kind) return true;
    }
    return false;
  }

  SysState apply(const SysState& state, const Action& action) {
    SysState next = state;
    if (action.type == Action::Type::kCrash) {
      apply_crash(next);
      return next;
    }
    if (action.type == Action::Type::kRegenerate) {
      apply_regenerate(next);
      return next;
    }
    const auto i = static_cast<std::size_t>(action.node);
    proto::MutexNode& node = state.regenerated
                                 ? *regen_nodes_[static_cast<std::size_t>(
                                       membership_.rank_of(action.node))]
                                 : *nodes_[i];
    node.restore(state.node_blob[i]);
    CaptureContext ctx(action.node, config_.n, next,
                       state.regenerated ? &membership_ : nullptr,
                       state.crashed ? config_.crash_node : kNilNode);
    switch (action.type) {
      case Action::Type::kRequest:
        DMX_CHECK(next.budget[i] > 0);
        next.budget[i] -= 1;
        next.phase[i] = static_cast<std::uint8_t>(CsPhase::kWaiting);
        node.request_cs(ctx);
        break;
      case Action::Type::kRelease:
        next.phase[i] = static_cast<std::uint8_t>(CsPhase::kIdle);
        node.release_cs(ctx);
        break;
      case Action::Type::kDeliver:
      case Action::Type::kDeliverDup: {
        auto it = next.channels.find({action.from, action.node});
        DMX_CHECK(it != next.channels.end() && !it->second.empty());
        const SharedMessage message = it->second.front();
        if (action.type == Action::Type::kDeliver) {
          it->second.erase(it->second.begin());
          if (it->second.empty()) next.channels.erase(it);
        }
        node.on_message(ctx,
                        state.regenerated ? membership_.rank_of(action.from)
                                          : action.from,
                        *message);
        break;
      }
      case Action::Type::kCrash:
      case Action::Type::kRegenerate:
        DMX_CHECK(false);  // handled above
    }
    next.node_blob[i] = node.snapshot();
    return next;
  }

  /// The victim dies in place: its CS (if any) is silently vacated, its
  /// request budget voided, its state discarded and every message
  /// addressed to it dropped (the network's dead-destination discard).
  /// Messages it already sent stay in flight — survivors may still act on
  /// a dead node's last words until the epoch fence.
  void apply_crash(SysState& next) const {
    const auto c = static_cast<std::size_t>(config_.crash_node);
    next.crashed = 1;
    next.phase[c] = static_cast<std::uint8_t>(CsPhase::kIdle);
    next.budget[c] = 0;
    next.node_blob[c].clear();
    for (auto it = next.channels.begin(); it != next.channels.end();) {
      it = it->first.second == config_.crash_node ? next.channels.erase(it)
                                                  : std::next(it);
    }
  }

  /// The elected winner regenerates: every pre-crash in-flight message is
  /// fenced (the epoch bump makes them all stale), the survivors restart
  /// from fresh compact-world instances with the token minted at the
  /// winner, and every survivor still waiting re-issues its request in
  /// ascending id order (a one-step model of the runtime's ballot: every
  /// member installs the regenerated world and re-requests behind it).
  void apply_regenerate(SysState& next) {
    next.regenerated = 1;
    next.channels.clear();
    for (NodeId r = 1; r <= membership_.size(); ++r) {
      next.node_blob[static_cast<std::size_t>(membership_.original_of(r))] =
          regen_init_blob_[static_cast<std::size_t>(r)];
    }
    for (NodeId v = 1; v <= config_.n; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (!membership_.contains(v)) continue;
      if (next.phase[i] != static_cast<std::uint8_t>(CsPhase::kWaiting)) {
        continue;
      }
      proto::MutexNode& node =
          *regen_nodes_[static_cast<std::size_t>(membership_.rank_of(v))];
      node.restore(next.node_blob[i]);
      CaptureContext ctx(v, config_.n, next, &membership_,
                         config_.crash_node);
      node.request_cs(ctx);
      next.node_blob[i] = node.snapshot();
    }
  }

  /// All safety checks; returns false (and records) on violation.
  bool check_state(const SysState& state, const std::string& key) {
    int occupants = 0;
    for (NodeId v = 1; v <= config_.n; ++v) {
      if (state.phase[static_cast<std::size_t>(v)] ==
          static_cast<std::uint8_t>(CsPhase::kInCs)) {
        ++occupants;
      }
    }
    if (occupants > 1) {
      record_violation("two nodes inside the critical section", key);
      return false;
    }
    const bool needs_nodes = config_.algorithm->token_based ||
                             hook_ != nullptr ||
                             config_.extra_invariant != nullptr;
    if (!needs_nodes) return true;

    // Restore the live workers to this state for has_token()/hook queries.
    // Post-regeneration the survivors' blobs are compact-world snapshots
    // and live in regen_nodes_; a crashed node's blob is empty and dead.
    restore_workers(state);
    if (config_.algorithm->token_based) {
      std::size_t tokens = 0;
      for (NodeId v = 1; v <= config_.n; ++v) {
        const proto::MutexNode* node = worker(state, v);
        if (node != nullptr && node->has_token()) ++tokens;
      }
      for (const auto& [channel, fifo] : state.channels) {
        for (const SharedMessage& message : fifo) {
          for (const net::MessageKind kind : token_kinds_) {
            if (message->kind_id() == kind) ++tokens;
          }
        }
      }
      const bool degraded = state.crashed && !state.regenerated;
      if (degraded) {
        // The token may have died with the victim (count 0, the loss the
        // regeneration exists to repair) but must never be duplicated —
        // and once regenerated, exactly one token must exist again, with
        // every old-epoch token fenced out of existence.
        if (tokens > 1) {
          record_violation("token count " + std::to_string(tokens) +
                               " (must be <= 1 while degraded)",
                           key);
          return false;
        }
      } else if (tokens != 1) {
        record_violation("token count " + std::to_string(tokens) +
                             " (must be 1)",
                         key);
        return false;
      }
    }
    // Structural invariants are meaningless mid-degradation (the crash
    // broke the structure by definition); they resume over the compact
    // survivor world after regeneration.
    if (state.crashed && !state.regenerated) return true;
    if (hook_ != nullptr || config_.extra_invariant != nullptr) {
      const StateView view = make_view(state);
      if (hook_ != nullptr) {
        const std::string violation = hook_(view);
        if (!violation.empty()) {
          record_violation(violation, key);
          return false;
        }
      }
      if (config_.extra_invariant != nullptr) {
        const std::string violation = config_.extra_invariant(view);
        if (!violation.empty()) {
          record_violation(violation, key);
          return false;
        }
      }
    }
    return true;
  }

  /// Restores every live worker to `state` (no-op for the crashed node).
  void restore_workers(const SysState& state) {
    for (NodeId v = 1; v <= config_.n; ++v) {
      proto::MutexNode* node = worker(state, v);
      if (node == nullptr) continue;
      node->restore(state.node_blob[static_cast<std::size_t>(v)]);
    }
  }

  /// The worker instance carrying original node `v` in `state`'s world:
  /// the pre-crash instance, the compact regenerated instance, or nullptr
  /// for a dead node.
  proto::MutexNode* worker(const SysState& state, NodeId v) const {
    if (state.crashed && v == config_.crash_node) return nullptr;
    if (state.regenerated) {
      return regen_nodes_[static_cast<std::size_t>(membership_.rank_of(v))]
          .get();
    }
    return nodes_[static_cast<std::size_t>(v)].get();
  }

  StateView make_view(const SysState& state) {
    StateView view;
    if (state.regenerated) {
      // Compact survivor view: structural hooks (NEXT forest, HOLDER
      // walk) run over ranks 1..k exactly as the fresh instances see the
      // world.
      view.n = membership_.size();
      view.node = [this](NodeId r) -> const proto::MutexNode& {
        return *regen_nodes_[static_cast<std::size_t>(r)];
      };
      view.phase = [this, &state](NodeId r) {
        return static_cast<CsPhase>(state.phase[static_cast<std::size_t>(
            membership_.original_of(r))]);
      };
      view.for_each_in_flight =
          [this, &state](const std::function<void(NodeId, NodeId,
                                                  const net::Message&)>& fn) {
            for (const auto& [channel, fifo] : state.channels) {
              for (const SharedMessage& message : fifo) {
                fn(membership_.rank_of(channel.first),
                   membership_.rank_of(channel.second), *message);
              }
            }
          };
      return view;
    }
    view.n = config_.n;
    view.node = [this](NodeId v) -> const proto::MutexNode& {
      return *nodes_[static_cast<std::size_t>(v)];
    };
    view.phase = [&state](NodeId v) {
      return static_cast<CsPhase>(state.phase[static_cast<std::size_t>(v)]);
    };
    view.for_each_in_flight =
        [&state](const std::function<void(NodeId, NodeId,
                                          const net::Message&)>& fn) {
          for (const auto& [channel, fifo] : state.channels) {
            for (const SharedMessage& message : fifo) {
              fn(channel.first, channel.second, *message);
            }
          }
        };
    return view;
  }

  std::vector<Action> trace_to(const std::string& key) const {
    std::vector<Action> trace;
    std::string cur = key;
    while (true) {
      const auto& [pred, action] = predecessor_.at(cur);
      if (pred.empty()) break;
      trace.push_back(action);
      cur = pred;
    }
    return {trace.rbegin(), trace.rend()};
  }

  void record_violation(const std::string& what, const std::string& key) {
    result_.violation = what;
    result_.counterexample = trace_to(key);
  }

  /// Renders every node of `state` into the result, for diagnostics.
  void dump_node_states(const SysState& state) {
    result_.violating_node_states.assign(1, "");
    for (NodeId v = 1; v <= config_.n; ++v) {
      proto::MutexNode* node = worker(state, v);
      if (node == nullptr) {
        result_.violating_node_states.push_back("(crashed)");
        continue;
      }
      node->restore(state.node_blob[static_cast<std::size_t>(v)]);
      result_.violating_node_states.push_back(node->debug_state());
    }
  }

  ExplorerResult finish() {
    result_.states = states_by_key_.size();
    result_.ok = result_.violation.empty() && !result_.truncated;
    return result_;
  }

  ExplorerConfig config_;
  ExplorerResult result_;
  std::vector<net::MessageKind> token_kinds_;
  std::vector<net::MessageKind> duplicate_kinds_;
  InvariantHook hook_;
  /// Precomputed post-crash world (crash_node configured): survivor
  /// renumbering, quorum-elected winner, fresh compact instances and
  /// their initial snapshots (by rank).
  fault::Membership membership_;
  NodeId regen_winner_ = kNilNode;
  bool regen_enabled_ = false;
  std::vector<std::unique_ptr<proto::MutexNode>> regen_nodes_;
  std::vector<std::string> regen_init_blob_;
  /// Live worker nodes, restored to whichever state is being expanded or
  /// checked; handlers only ever mutate the acting node.
  std::vector<std::unique_ptr<proto::MutexNode>> nodes_;
  std::unordered_map<std::string, SysState> states_by_key_;
  std::unordered_map<std::string, std::pair<std::string, Action>>
      predecessor_;
};

}  // namespace

std::string Action::to_string() const {
  switch (type) {
    case Type::kRequest:
      return "request(" + std::to_string(node) + ")";
    case Type::kRelease:
      return "release(" + std::to_string(node) + ")";
    case Type::kDeliver:
      return "deliver(" + std::to_string(from) + " -> " +
             std::to_string(node) + ")";
    case Type::kDeliverDup:
      return "deliver+dup(" + std::to_string(from) + " -> " +
             std::to_string(node) + ")";
    case Type::kCrash:
      return "crash(" + std::to_string(node) + ")";
    case Type::kRegenerate:
      return "regenerate(winner=" + std::to_string(node) + ")";
  }
  return "?";
}

ExplorerResult explore(const ExplorerConfig& config) {
  return Explorer(config).run();
}

}  // namespace dmx::modelcheck
