// Strand: a serialized FIFO task queue scheduled on a shared Executor.
//
// A strand is the concurrency unit of one state machine: tasks posted to
// it run one at a time, in post order, on whichever thread holds the
// strand's activation — never two tasks of the same strand concurrently,
// so the state the tasks touch needs no locking of its own. Independent
// strands run in parallel across the pool; this is how the threaded lock
// service keeps the paper's one-event-at-a-time semantics per (resource,
// node) state machine while independent resources use every core.
//
// Implementation: an internal ring of InlineCallback tasks guarded by a
// short mutex, plus an `active` flag that guarantees at most one
// activation of the strand exists at any time. Enqueueing onto an idle
// strand claims that activation; enqueueing onto an active one just
// queues. post() submits a claimed activation to the pool. A caller that
// enqueue()s may instead run the claimed activation on its own thread
// (run_claimed()), skipping the pool hop: the lock service's client
// gates do this for request and release. While a caller-run activation
// is draining, a post() that claims another strand does not submit it
// either: the claim goes onto a small per-thread FIFO, and run_claimed()
// runs those activations one after another, on the same thread, before
// it returns (a trampoline, so no recursion). An acquire therefore runs
// its REQUEST on an idle remote strand, and the PRIVILEGE sent back, inside
// its own call. Each call claims at most kTrampolineBudget extra
// activations; posts beyond that, and every post from a pool worker or
// any other thread, go to the pool. Every activation drains up to kBatch
// tasks, then yields its thread and requeues itself through the
// executor's fair global queue so one hot strand cannot monopolize a
// thread or starve its deque neighbours.
//
// The serialization guarantee doubles as the memory fence: task i's
// effects are published to task i+1 (possibly on another thread) through
// the queue mutex, so strand-confined state is race-free by construction.
//
// Inline strands: a strand built with no executor has no pool to hand
// activations to, so a claimed activation runs at once, to the end of its
// queue, on the thread that claimed it — post() included, with no
// trampoline. The deterministic sim runs its gates this way on the
// simulator thread; a task that posts to its own strand queues behind
// itself exactly as on the pool. While a Strand::Hold is open on the
// thread, a claimed inline activation waits instead, and the hold's run()
// runs the waiting ones in claim order: a caller opens one around a lock
// that the tasks (or the callbacks they reach) may take again.
//
// Accounting: exec.strand_activations counts every activation, pool- or
// caller-run; ExecutorStats::tasks_executed counts pool tasks only.
//
// Lifetime: destroy a strand only after the executor is shut down or the
// strand is known idle with no queued tasks; queued tasks are destroyed
// unrun (their captures release normally).
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>

#include "exec/executor.hpp"
#include "exec/ring.hpp"
#include "sim/inline_function.hpp"
#include "telemetry/telemetry.hpp"

namespace dmx::exec {

namespace detail {
/// Shared across every strand in the process: activations (pool pickups
/// and caller-run claims) and the distribution of tasks drained per
/// activation — the batching evidence behind the kBatch=32 choice.
inline telemetry::CounterId strand_activations_counter() {
  static const telemetry::CounterId id =
      telemetry::Registry::global().counter("exec.strand_activations");
  return id;
}
inline telemetry::HistogramId strand_batch_hist() {
  static const telemetry::HistogramId id =
      telemetry::Registry::global().histogram("exec.strand_batch");
  return id;
}
}  // namespace detail

class Strand {
 public:
  /// Move-only type-erased task; keep captures within the 48-byte inline
  /// budget (six pointers) to stay off the heap.
  using Task = sim::InlineCallback;

  /// Tasks drained per activation before the strand yields its thread and
  /// requeues fairly.
  static constexpr int kBatch = 32;
  /// Activations of other strands one run_claimed() call may take over
  /// from its own tasks' posts before further claims go to the pool.
  static constexpr int kTrampolineBudget = 16;

  explicit Strand(Executor& executor) : Strand(&executor) {}
  /// Null `executor` builds an inline strand (see the header).
  explicit Strand(Executor* executor) : executor_(executor) {
    pool_task_.run = &Strand::run_activation;
    pool_task_.context = this;
  }

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  ~Strand() = default;

  /// Enqueues `task`; schedules the strand iff it was idle: on the
  /// calling thread's trampoline when a caller-run activation is draining
  /// there and has budget left, otherwise on the pool.
  void post(Task task) {
    if (!enqueue(std::move(task))) return;
    if (executor_ == nullptr) {
      run_inline();
      return;
    }
    Trampoline& t = trampoline_;
    if (t.open && t.tail < kTrampolineBudget) {
      t.fifo[t.tail++] = this;
    } else {
      submit_claimed();
    }
  }

  /// Enqueues `task` and returns whether the caller claimed the strand's
  /// single activation (the strand was idle). A claimant must pass the
  /// activation on exactly once, through run_claimed() or
  /// submit_claimed(); until it does, the strand's tasks stay queued.
  [[nodiscard]] bool enqueue(Task task) {
    std::lock_guard<std::mutex> guard(mutex_);
    queue_.push(std::move(task));
    if (active_) return false;
    active_ = true;
    return true;
  }

  /// Runs a claimed activation on the calling thread: the same drain a
  /// pool worker would make, up to kBatch tasks, with the rest requeued
  /// to the pool. Then runs, in claim order, the activations its tasks'
  /// posts claimed on this thread (and theirs, within the budget). The
  /// caller must hold no lock a task may take; tasks must not call it.
  void run_claimed() {
    if (executor_ == nullptr) {
      run_inline();
      return;
    }
    Trampoline& t = trampoline_;
    t.open = true;
    t.head = t.tail = 0;
    run();
    while (t.head < t.tail) t.fifo[t.head++]->run();
    t.open = false;
  }

  /// Hands a claimed activation to the pool instead (an inline strand
  /// runs it here).
  void submit_claimed() {
    if (executor_ == nullptr) {
      run_inline();
      return;
    }
    executor_->submit(&pool_task_);
  }

  /// Tasks executed over the strand's lifetime (test introspection; only
  /// meaningful once the strand is quiescent).
  std::uint64_t executed() const { return executed_; }

  /// Defers the inline activations claimed on this thread while open (see
  /// the header); pool strands are unaffected. Holds nest: run() of the
  /// last one open runs every waiting activation. A hold left by an
  /// exception drops them, so no later hold runs a strand that died with
  /// its space.
  class Hold {
   public:
    Hold() { ++held_.depth; }
    ~Hold() {
      if (!ran_ && --held_.depth == 0) held_.head = held_.tail = nullptr;
    }
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

    void run() {
      ran_ = true;
      if (--held_.depth > 0) return;
      try {
        while (Strand* strand = held_.head) {
          held_.head = strand->next_held_;
          if (held_.head == nullptr) held_.tail = nullptr;
          strand->next_held_ = nullptr;
          strand->run();
        }
      } catch (...) {
        held_.head = held_.tail = nullptr;
        throw;
      }
    }

   private:
    bool ran_ = false;
  };

 private:
  /// Inline activations claimed on this thread while a Hold is open, in
  /// claim order, linked through Strand::next_held_.
  struct Held {
    int depth = 0;
    Strand* head = nullptr;
    Strand* tail = nullptr;
  };
  static thread_local Held held_;

  void run_inline() {
    Held& h = held_;
    if (h.depth == 0) {
      run();
      return;
    }
    (h.tail != nullptr ? h.tail->next_held_ : h.head) = this;
    h.tail = this;
  }

  /// Per-thread claims taken by posts inside a caller-run activation.
  /// Every claim uses up budget, so the FIFO never outgrows it.
  struct Trampoline {
    bool open = false;
    int head = 0;
    int tail = 0;
    Strand* fifo[kTrampolineBudget] = {};
  };
  static thread_local Trampoline trampoline_;

  static void run_activation(void* context) {
    static_cast<Strand*>(context)->run();
  }

  void run() {
    int drained = 0;
    bool requeue = false;
    for (;;) {
      Task task;
      {
        std::lock_guard<std::mutex> guard(mutex_);
        if (queue_.empty()) {
          active_ = false;
          break;
        }
        if (drained >= kBatch && executor_ != nullptr) {
          // Stay active, yield the thread.
          requeue = true;
          break;
        }
        task = queue_.pop();
      }
      task();
      ++executed_;
      ++drained;
    }
    telemetry::count(detail::strand_activations_counter());
    // Activation counter exact; batch histogram is shape-only, sampled.
    if (telemetry::sample_1_in_8<telemetry::SampleSite::kStrandBatch>()) {
      telemetry::observe(detail::strand_batch_hist(),
                         static_cast<std::uint64_t>(drained));
    }
    if (requeue) executor_->submit_fair(&pool_task_);
  }

  Executor* const executor_;  // null: inline
  PoolTask pool_task_;
  std::mutex mutex_;
  Ring<Task> queue_;
  bool active_ = false;
  std::uint64_t executed_ = 0;  // strand-confined
  Strand* next_held_ = nullptr;  // inline only; see Held
};

inline thread_local Strand::Trampoline Strand::trampoline_{};
inline thread_local Strand::Held Strand::held_{};

}  // namespace dmx::exec
