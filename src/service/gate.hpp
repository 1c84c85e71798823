// The client gate: one (resource, node) protocol state machine on its
// strand, plus the bridge that maps many application threads onto that
// node's one outstanding protocol request.
//
// The node's one-request rule lives in its acquire core
// (service/acquire_core.hpp); the gate is a thin shell around it, one of
// two: lock()/unlock() park application threads on a condvar; a set built
// with a GrantSink (the sim) has no threads, so acquire_inline() queues a
// waiter and a grant ready for the front waiter is consumed on the spot
// and reported to the sink. A service::NodeRuntime owns one gate per
// resource for its node.
// Every gate of a resource shares its GateResource (name, algorithm,
// interned metric ids and the occupancy witness); what is per node — the
// fence epoch and the unavailable flag — lives on the gate, because each
// node fences on its own view of the world. A gate reaches other nodes
// only through GateHost::route, which its runtime implements.
//
// Strand confinement: protocol state (the MutexNode, its epoch and
// compact membership, the jitter Rng) is touched only by strand tasks,
// and the strand's serialization publishes task i's writes to task i+1.
// The client fields bridge application threads and strand tasks under
// the gate's client mutex.
//
// Epoch fencing: every protocol task carries the epoch it was minted in
// and drops itself when that no longer matches the strand's — the
// thread-kill equivalent. A repair raises the gate's fence epoch first,
// so queued old-world work dies unobserved, then installs a fresh
// compact-world instance with an unfenced reset task (post_reset) that
// every later same-strand task observes. Grants are revalidated against
// the fence before a waiter may consume them.
//
// Inline runs: the gate enqueues a request or release on the strand under
// the client mutex; when that strand was idle the calling thread claims
// its activation and runs it itself once the mutex is dropped
// (exec::Strand::enqueue / run_claimed). An acquire whose token rests at
// the caller is thus granted inside its own call with no pool task and no
// condvar sleep. The strands that run posts to claim ride the same
// thread's trampoline (at most Strand::kTrampolineBudget of them per
// call, the rest go to the pool), so a REQUEST to an idle remote strand
// and the PRIVILEGE it sends back also run inside the caller's lock():
// the grant fires before the caller would sleep. No claimed activation
// may run under the client mutex: on_grant, rerequest and fail all take
// it. The doomed path and every post from a pool worker, the TCP loop
// thread or a repair still go through the pool.
//
// Hand-off yield: when an unlock's release wakes a waiter that is asleep
// on a gate's condvar — on_grant run on this caller's trampoline, or a
// chained hand-off — the caller yields its CPU once at the end of
// unlock(), holding nothing of that gate. Without it, on one CPU the
// releasing client keeps running, re-requests, and queues behind the very
// waiter it woke, which cannot run until the releaser is preempted: a
// convoy. With the trampoline but no yield, lockbench's acquire p99 read
// 150–168 µs on threaded-spread (parent ~50 µs, with the yield ~1.2 µs)
// and 95–109 µs on threaded-hot (parent ~64 µs), although only 1.6% of
// spread's acquires parked. client.parked_waits counts acquires that
// slept at least once; client.handoff_yields counts the yields.
//
// Inline shell: its strands are inline (exec/strand.hpp), and a handler's
// failure is thrown to the caller instead of parked in first_error().
//
// Lock order: a runtime's repair mutex before any gate's client mutex,
// never the reverse.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "exec/executor.hpp"
#include "exec/strand.hpp"
#include "fault/membership.hpp"
#include "net/message.hpp"
#include "net/message_kind.hpp"
#include "proto/algorithm.hpp"
#include "proto/mutex_node.hpp"
#include "service/acquire_core.hpp"
#include "service/lease.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::service {

/// Outcome of a bounded-wait lock attempt.
enum class LockError {
  kOk = 0,
  /// The wait deadline passed without a grant; the request stays posted
  /// and a grant that arrives with nobody waiting is released back.
  kTimeout,
  /// The lock can never be granted: the calling node has crashed, or the
  /// resource is dead (its token died with a crashed node and recovery is
  /// disabled or lacks a live majority).
  kUnavailable,
};

/// The owning runtime's message path. route() runs on the sending gate's
/// strand and carries `message` (minted in world `tag`) from node `from`
/// to node `to`, both original ids.
class GateHost {
 public:
  virtual void route(ResourceId r, NodeId from, NodeId to,
                     net::MessagePtr message, Epoch tag) = 0;

 protected:
  ~GateHost() = default;
};

/// Per-resource state every gate of the resource shares, built once per
/// resource.
struct GateResource {
  std::string name;
  /// The protocol; its factory also builds the worlds repairs install.
  proto::Algorithm algorithm;
  /// Initial token holder (the resource's home): with recovery disabled,
  /// its crash leaves the resource unavailable.
  NodeId home = kNilNode;
  /// Entry witness: occupancy is 0 or 1 while exclusion holds (as seen
  /// from this process); entries counts critical sections served.
  std::atomic<int> occupancy{0};
  std::atomic<std::uint64_t> entries{0};
  /// Interned metric ids, resolved once so hot paths skip the registry.
  telemetry::HistogramId wait_ns;
  telemetry::CounterId ok;
  telemetry::CounterId timeouts;
  telemetry::CounterId unavailable_count;
  /// Interned kinds of the token-carrying messages, for flight-recording
  /// token forwards.
  std::vector<net::MessageKind> token_kinds;
};

/// The inline shell's consumer: a grant consumed on the spot for node
/// `v`'s front waiter on resource `r`.
class GrantSink {
 public:
  virtual void entered(ResourceId r, NodeId v) = 0;

 protected:
  ~GrantSink() = default;
};

class GateSet;

/// One (resource, node) state machine with its strand and client gate.
class Gate {
 public:
  Gate(GateSet& set, GateHost& host, GateResource& resource, ResourceId id,
       NodeId self, std::uint64_t seed,
       std::unique_ptr<proto::MutexNode> node);

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Blocks until this node holds the resource, or — with a `timeout` —
  /// gives up at the deadline. A repair wakeup neither ends the wait nor
  /// moves its deadline.
  LockError lock(const std::chrono::milliseconds* timeout);
  /// Leaves the critical section: hands it to the next local waiter under
  /// the lease, or releases into the protocol. Returns true iff it
  /// released into the protocol (the caller may then complete a repair
  /// deferred on this holder). After abandon(), a ghost unlock by the
  /// holder it revoked returns false.
  bool unlock();
  /// Inline shell: queues a waiter behind this node's one request and
  /// runs that request now. Its grant reaches the sink, possibly before
  /// this returns.
  void acquire_inline();
  /// Inline shell: drops every queued waiter (a crashed node's tickets
  /// never grant).
  void drop_waiters();

  /// Posts a message delivery from `from` (original id), fenced by `tag`.
  void post_deliver(Epoch tag, NodeId from, net::MessagePtr message);
  /// Posts the unfenced reset that installs world `e`: a fresh protocol
  /// instance speaking `membership`'s ranks.
  void post_reset(Epoch e, std::shared_ptr<const fault::Membership> membership,
                  std::unique_ptr<proto::MutexNode> node);
  /// Posts the re-request behind a reset: the node's old-world request
  /// died with the old epoch, so parked waiters ask again in world `e`.
  void post_rerequest(Epoch e);

  /// Whether a local client is inside the critical section.
  bool holding();
  /// Application threads parked in lock() (racy by nature).
  int local_waiters();
  /// Wakes parked waiters to re-check their predicates.
  void wake();
  /// Flips the gate unavailable, stamping the window start once.
  void mark_unavailable();
  /// The node died in place: clears the client state, retires a dead
  /// holder from the witness and wakes local waiters. The caller fences
  /// the gate and marks it unavailable.
  void abandon();

  /// Highest epoch this node has fenced the resource at. Requests and
  /// releases are tagged with it and grants revalidated against it.
  std::atomic<Epoch> fence{0};
  /// This node can never be granted the resource again (no live
  /// majority, or its home died with recovery disabled), and since when
  /// (0 = available). Its runtime clears it once a live majority returns.
  std::atomic<bool> unavailable{false};
  std::atomic<std::uint64_t> unavailable_since_ns{0};

  // Strand-confined state, for the single-threaded sim's checker.
  /// World this strand's protocol instance belongs to.
  Epoch world() const { return epoch_; }
  proto::MutexNode& protocol() { return *node_; }
  proto::Context& context() { return context_; }

 private:
  /// proto::Context for this state machine; used only from strand tasks.
  /// Post-repair the instance lives in the compact survivor world:
  /// self()/send() speak ranks to it, the host keeps original ids.
  class Context final : public proto::Context {
   public:
    explicit Context(Gate& gate) : gate_(gate) {}
    NodeId self() const override;
    int cluster_size() const override;
    void send(NodeId to, net::MessagePtr message) override;
    void grant() override { gate_.on_grant(); }

   private:
    Gate& gate_;
  };

  // Strand tasks.
  bool fenced(Epoch tag) const;
  void deliver(Epoch tag, NodeId from, net::MessagePtr message);
  void request(Epoch tag);
  void release(Epoch tag);
  void rerequest(Epoch tag);
  /// Issues the protocol request; rerequest shares it with request.
  void request_now();
  void on_grant();
  /// Inline shell: consumes the pending grant for the front waiter.
  void enter_inline();
  /// Publishes node_->has_remote_request() at the end of every protocol
  /// task, so a holder's release can consult it without touching
  /// strand-confined state. It may lag by an in-flight message: the lease
  /// cap, not this hint, bounds waiting; the hint only decides whether a
  /// cap-expired lease may renew in place.
  void publish_remote_pending();
  void maybe_jitter();
  /// Gives the CPU to the waiter this unlock just woke (see the header).
  void handoff_yield();

  GateSet& set_;
  GateHost& host_;
  GateResource& res_;
  const ResourceId resource_;
  const NodeId self_;
  exec::Strand strand_;

  // Strand-confined.
  std::unique_ptr<proto::MutexNode> node_;
  Rng rng_;  // jitter
  /// World this strand's instance belongs to and, post-repair, the
  /// compact membership it speaks. Written only by reset tasks.
  Epoch epoch_ = 0;
  std::shared_ptr<const fault::Membership> membership_;
  /// This world's instance has an unreleased protocol request: dedupes
  /// the client's request against a repair's re-issue. Cleared by release
  /// and by reset.
  bool request_outstanding_ = false;
  Context context_;

  // Client side; client_mutex_ guards the core and parked_.
  std::mutex client_mutex_;
  std::condition_variable client_cv_;
  AcquireCore core_;
  /// Waiters asleep on client_cv_ right now (a subset of the core's).
  int parked_ = 0;
  /// has_remote_request() as of the strand's last protocol task.
  std::atomic<bool> remote_pending_{false};
};

/// Everything the gates of one lock space share: the worker pool their
/// strands run on, per-resource state, the failure flag, lease counters
/// and error slot.
class GateSet {
 public:
  /// `n` is the cluster size of the initial world.
  GateSet(int n, LeaseConfig lease, unsigned jitter_us,
          exec::ExecutorConfig executor);
  /// The inline shell's set: no pool and no thread; strands run inline and
  /// every grant is consumed on the spot and reported to `sink`. Resources
  /// intern no per-resource metrics (sim time is not wall time).
  GateSet(int n, LeaseConfig lease, GrantSink& sink);
  /// Stops the pool before the gates go away: workers finish their
  /// current task and queued strand tasks are destroyed unrun (captured
  /// messages free cross-thread through the pool's owner-return path).
  ~GateSet() { shutdown(); }

  GateSet(const GateSet&) = delete;
  GateSet& operator=(const GateSet&) = delete;

  /// Registers the next resource (ids are dense, in call order), homed
  /// at `home` (Singhal's staircase pins its token to node 1 instead).
  GateResource& add_resource(const std::string& name,
                             const proto::Algorithm& algorithm, NodeId home);
  /// Registers a gate that routes through `host`.
  Gate& add_gate(GateHost& host, ResourceId r, NodeId self,
                 std::uint64_t seed, std::unique_ptr<proto::MutexNode> node);

  int nodes() const { return n_; }
  int resource_count() const { return static_cast<int>(resources_.size()); }
  GateResource& resource(ResourceId r) {
    return *resources_[static_cast<std::size_t>(r)];
  }
  const GateResource& resource(ResourceId r) const {
    return *resources_[static_cast<std::size_t>(r)];
  }
  /// Gates in registration order.
  Gate& gate(std::size_t index) { return *gates_[index]; }
  /// The pool; a set without one (the inline shell) must not ask.
  exec::Executor& executor() { return *executor_; }
  const exec::Executor& executor() const { return *executor_; }
  std::uint64_t total_entries() const;

  void record_error(const std::string& what);
  /// Records the error, then releases every parked application thread:
  /// no grant is ever coming once a protocol handler has thrown. The
  /// inline shell throws it to the caller instead (as record_error does).
  void fail(const std::string& what);
  std::optional<std::string> first_error() const;
  /// Stops the pool (idempotent); queued strand tasks die unrun with the
  /// gates.
  void shutdown() {
    if (executor_) executor_->shutdown();
  }

  /// Every telemetry metric of the process, with the pool counters
  /// (exec.*), the lease and wake-up counters (client.*) and the
  /// process-wide client.wait_ns roll-up of the per-resource wait lanes
  /// folded in.
  telemetry::MetricsSnapshot snapshot() const;

  /// Repair latency as a waiting client saw it, and how long resources
  /// stayed unavailable (fault.repair_ns, fault.unavail_window_ns).
  telemetry::HistogramId repair_hist() const { return repair_hist_; }
  telemetry::HistogramId unavail_hist() const { return unavail_hist_; }

  std::uint64_t chained_grants() const {
    return chained_grants_.load(std::memory_order_relaxed);
  }
  std::uint64_t lease_yields() const {
    return lease_yields_.load(std::memory_order_relaxed);
  }

  /// A protocol handler threw somewhere in the space.
  std::atomic<bool> failed{false};

 private:
  friend class Gate;

  GateSet(int n, LeaseConfig lease, unsigned jitter_us, GrantSink* sink);

  const int n_;
  const LeaseConfig lease_;
  const unsigned jitter_us_;
  /// The inline shell's consumer; null for the condvar shell.
  GrantSink* const sink_ = nullptr;
  std::optional<exec::Executor> executor_;
  std::vector<std::unique_ptr<GateResource>> resources_;
  std::vector<std::unique_ptr<Gate>> gates_;
  std::atomic<std::uint64_t> chained_grants_{0};
  std::atomic<std::uint64_t> lease_yields_{0};
  /// Acquires that slept on their gate's condvar at least once, and
  /// unlocks that yielded the CPU to a waiter they woke.
  std::atomic<std::uint64_t> parked_waits_{0};
  std::atomic<std::uint64_t> handoff_yields_{0};
  telemetry::HistogramId hold_hist_;
  telemetry::HistogramId chain_hist_;
  telemetry::HistogramId repair_hist_;
  telemetry::HistogramId unavail_hist_;

  mutable std::mutex error_mutex_;
  std::optional<std::string> first_error_;
};

}  // namespace dmx::service
