#include "exec/executor.hpp"

#include <chrono>

#include "common/check.hpp"
#include "telemetry/telemetry.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace dmx::exec {

namespace {

/// Identifies the worker a thread belongs to (nullptr on app threads), so
/// submit() can take the local-deque fast path only for its own executor.
struct WorkerIdentity {
  const Executor* executor = nullptr;
  int index = -1;
};
thread_local WorkerIdentity tl_worker;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Depth of the global injector observed at each external submission —
/// the queueing-delay evidence the executor scale-out roadmap item needs.
telemetry::HistogramId injector_depth_hist() {
  static const telemetry::HistogramId id =
      telemetry::Registry::global().histogram("exec.injector_depth");
  return id;
}

}  // namespace

Executor::Executor(ExecutorConfig config) : spin_(config.spin) {
  int n = config.workers;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  DMX_CHECK(spin_ >= 0);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (int i = 0; i < n; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_loop(i); });
  }
}

Executor::~Executor() { shutdown(); }

void Executor::shutdown() {
  if (stopping_.exchange(true)) {
    // Second call: threads are joined (or being joined) already.
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    return;
  }
  {
    std::lock_guard<std::mutex> guard(park_mutex_);
    submit_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  park_cv_.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

bool Executor::on_worker_thread() const { return tl_worker.executor == this; }

void Executor::submit(PoolTask* task) {
  DMX_CHECK(task != nullptr && task->run != nullptr);
  if (tl_worker.executor == this) {
    workers_[static_cast<std::size_t>(tl_worker.index)]->deque.push(task);
  } else {
    std::size_t depth;
    {
      std::lock_guard<std::mutex> guard(injector_mutex_);
      injector_.push(task);
      depth = injector_.size();
    }
    if (telemetry::sample_1_in_8<telemetry::SampleSite::kInjectorDepth>()) {
      telemetry::observe(injector_depth_hist(), depth);
    }
  }
  wake_one();
}

void Executor::submit_fair(PoolTask* task) {
  DMX_CHECK(task != nullptr && task->run != nullptr);
  std::size_t depth;
  {
    std::lock_guard<std::mutex> guard(injector_mutex_);
    injector_.push(task);
    depth = injector_.size();
  }
  if (telemetry::sample_1_in_8<telemetry::SampleSite::kInjectorDepth>()) {
    telemetry::observe(injector_depth_hist(), depth);
  }
  wake_one();
}

void Executor::wake_one() {
  submit_epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // Lock/unlock pairs with the sleeper's predicate check under the same
    // mutex, so the notify cannot slip between its check and its wait.
    { std::lock_guard<std::mutex> guard(park_mutex_); }
    park_cv_.notify_one();
  }
}

PoolTask* Executor::pop_injector() {
  std::lock_guard<std::mutex> guard(injector_mutex_);
  if (injector_.empty()) return nullptr;
  return injector_.pop();
}

PoolTask* Executor::find_work(int index, std::uint64_t& dispatches) {
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  // Fairness tick: poll the global queue first now and then, or external
  // submissions starve behind a worker that keeps feeding its own deque.
  if (++dispatches % 61 == 0) {
    self.injector_polls.fetch_add(1, std::memory_order_relaxed);
    if (PoolTask* task = pop_injector()) return task;
  }
  if (PoolTask* task = self.deque.pop()) return task;
  if (PoolTask* task = pop_injector()) return task;
  const int n = static_cast<int>(workers_.size());
  for (int hop = 1; hop < n; ++hop) {
    Worker& victim = *workers_[static_cast<std::size_t>((index + hop) % n)];
    if (PoolTask* task = victim.deque.steal()) {
      // Steals and parks are counters only, not flight events: on a
      // saturated pool they fire per scheduling decision, and a flight
      // record per decision is the difference between ~1% and ~30%
      // telemetry overhead at saturation.
      self.steals.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return nullptr;
}

void Executor::worker_loop(int index) {
  tl_worker.executor = this;
  tl_worker.index = index;
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  std::uint64_t dispatches = 0;
  int idle_rounds = 0;
  while (!stopping_.load(std::memory_order_acquire)) {
    if (PoolTask* task = find_work(index, dispatches)) {
      idle_rounds = 0;
      task->run(task->context);
      self.executed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (idle_rounds < spin_) {
      // Bounded spin: cheap pauses first, then yield the core — on an
      // oversubscribed machine the producer likely needs our timeslice.
      if (idle_rounds < spin_ / 4) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
      ++idle_rounds;
      continue;
    }
    idle_rounds = 0;
    // Park. Snapshot the epoch, probe once more, then sleep until a
    // submission moves the epoch (checked under park_mutex_, which every
    // wake takes, so the hand-off cannot be lost).
    const std::uint64_t epoch =
        submit_epoch_.load(std::memory_order_seq_cst);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (PoolTask* task = find_work(index, dispatches)) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      task->run(task->context);
      self.executed.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    {
      std::unique_lock<std::mutex> guard(park_mutex_);
      self.parks.fetch_add(1, std::memory_order_relaxed);
      // Bounded wait: the epoch/sleepers hand-off covers every wake-up in
      // practice, but a deque push is a release store outside that seq_cst
      // protocol, so a missed edge is made harmless by re-probing at 1ms.
      park_cv_.wait_for(guard, std::chrono::milliseconds(1), [this, epoch] {
        return stopping_.load(std::memory_order_relaxed) ||
               submit_epoch_.load(std::memory_order_relaxed) != epoch;
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  tl_worker = WorkerIdentity{};
}

ExecutorStats Executor::stats() const {
  ExecutorStats stats;
  for (const auto& worker : workers_) {
    stats.tasks_executed += worker->executed.load(std::memory_order_relaxed);
    stats.steals += worker->steals.load(std::memory_order_relaxed);
    stats.parks += worker->parks.load(std::memory_order_relaxed);
    stats.injector_polls +=
        worker->injector_polls.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace dmx::exec
