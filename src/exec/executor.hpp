// Shared work-stealing worker pool — the execution substrate under the
// threaded lock service.
//
// Each worker owns a Chase–Lev deque: tasks submitted from a worker go to
// its own deque (LIFO for cache warmth, stealable FIFO from the top);
// tasks submitted from application threads go through a global FIFO
// injector. An idle worker probes its deque, then the injector, then
// steals from the other workers in rotation; after `spin` empty probe
// rounds it parks on a condition variable and is woken by the next
// submission. Every 61st dispatch polls the injector first so external
// work cannot be starved by a long local chain (the usual runqueue
// fairness trick).
//
// The pool schedules intrusive PoolTask records and never owns them: a
// submitted task must stay alive until it runs or the executor shuts
// down. shutdown() stops workers after their current task and drops
// still-queued tasks unrun — submitters keep ownership, so nothing leaks.
// Higher layers build serialized queues on top (see exec::Strand); the
// pool itself makes no ordering promise beyond injector FIFO.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/chase_lev_deque.hpp"
#include "exec/ring.hpp"

namespace dmx::exec {

/// Point-in-time view of the pool's internal counters (relaxed sums over
/// per-worker cells — consistent enough for dashboards and benches, not
/// a linearizable snapshot). The stable introspection surface: tests,
/// telemetry_snapshot(), and benches all read this rather than poking at
/// worker internals.
struct ExecutorStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t parks = 0;
  /// Fairness-tick polls of the global injector (every 61st dispatch),
  /// whether or not they found work.
  std::uint64_t injector_polls = 0;
};

/// A schedulable unit. Embed one in the owning object and point `run` at
/// a trampoline; `context` is handed back verbatim. No allocation, no
/// virtual dispatch.
struct PoolTask {
  void (*run)(void* context) = nullptr;
  void* context = nullptr;
};

struct ExecutorConfig {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  int workers = 0;
  /// Empty probe rounds an idle worker makes over every queue before it
  /// parks. Small values park eagerly (good when oversubscribed); larger
  /// values keep workers hot under bursty hand-offs.
  int spin = 64;
};

class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// Schedules `task`: onto the calling worker's own deque when invoked
  /// from inside this executor, otherwise onto the global injector.
  void submit(PoolTask* task);

  /// Schedules `task` through the global FIFO injector regardless of the
  /// calling thread. Self-resubmitting tasks (strand batches) use this so
  /// a busy strand cannot starve its worker's other local tasks behind a
  /// LIFO pop loop.
  void submit_fair(PoolTask* task);

  /// Stops workers after their current task; queued tasks are dropped
  /// unrun and remain owned by their submitters. Idempotent. Called by
  /// the destructor.
  void shutdown();

  /// True when called from one of this executor's worker threads.
  bool on_worker_thread() const;

  // --- Introspection (tests and benches; relaxed counters) -----------------
  /// All internal counters in one read.
  ExecutorStats stats() const;
  std::uint64_t tasks_executed() const { return stats().tasks_executed; }
  std::uint64_t steals() const { return stats().steals; }
  std::uint64_t parks() const { return stats().parks; }

 private:
  struct Worker {
    ChaseLevDeque<PoolTask> deque;
    std::thread thread;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> injector_polls{0};
  };

  void worker_loop(int index);
  PoolTask* find_work(int index, std::uint64_t& dispatches);
  PoolTask* pop_injector();
  void wake_one();

  std::vector<std::unique_ptr<Worker>> workers_;
  int spin_;

  std::mutex injector_mutex_;
  Ring<PoolTask*> injector_;

  // Parking: submissions bump the epoch; a worker re-checks every queue,
  // snapshots the epoch, checks once more, and only then waits for the
  // epoch to move (so a submission between its last probe and the wait
  // cannot be lost).
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> submit_epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace dmx::exec
