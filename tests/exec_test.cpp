// Tests for the execution substrate: the Chase–Lev deque, the
// work-stealing Executor, and Strand serialization.
//
// The strand property test is the load-bearing one: per-strand FIFO and
// no-concurrent-execution are exactly the guarantees the threaded lock
// service's protocol state machines rely on instead of locks.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "exec/chase_lev_deque.hpp"
#include "exec/executor.hpp"
#include "exec/strand.hpp"

namespace dmx::exec {
namespace {

TEST(ChaseLevDeque, OwnerLifoThiefFifoSingleThread) {
  ChaseLevDeque<int> deque(4);  // forces growth
  std::vector<int> items(10);
  for (int i = 0; i < 10; ++i) {
    items[static_cast<std::size_t>(i)] = i;
    deque.push(&items[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(*deque.steal(), 0);  // oldest from the top
  EXPECT_EQ(*deque.steal(), 1);
  EXPECT_EQ(*deque.pop(), 9);  // newest from the bottom
  EXPECT_EQ(*deque.pop(), 8);
  int drained = 0;
  while (deque.pop() != nullptr) ++drained;
  EXPECT_EQ(drained, 6);
  EXPECT_EQ(deque.pop(), nullptr);
  EXPECT_EQ(deque.steal(), nullptr);
  EXPECT_TRUE(deque.empty_hint());
}

TEST(ChaseLevDeque, ConcurrentStealsLoseNothingAndDuplicateNothing) {
  // Owner pushes and pops while thieves hammer steal(): every pushed item
  // must be claimed exactly once across owner and thieves.
  constexpr int kItems = 20000;
  constexpr int kThieves = 3;
  ChaseLevDeque<int> deque;
  std::vector<int> items(kItems);
  std::vector<std::atomic<int>> claimed(kItems);
  for (auto& c : claimed) c.store(0);

  std::atomic<bool> done{false};
  std::atomic<int> total_claimed{0};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (int* item = deque.steal()) {
          claimed[static_cast<std::size_t>(*item)].fetch_add(1);
          total_claimed.fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < kItems; ++i) {
    items[static_cast<std::size_t>(i)] = i;
    deque.push(&items[static_cast<std::size_t>(i)]);
    if (i % 3 == 0) {
      if (int* item = deque.pop()) {
        claimed[static_cast<std::size_t>(*item)].fetch_add(1);
        total_claimed.fetch_add(1);
      }
    }
  }
  while (int* item = deque.pop()) {
    claimed[static_cast<std::size_t>(*item)].fetch_add(1);
    total_claimed.fetch_add(1);
  }
  // Let the thieves drain any leftovers they raced us for.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (total_claimed.load() < kItems &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();

  for (int i = 0; i < kItems; ++i) {
    EXPECT_EQ(claimed[static_cast<std::size_t>(i)].load(), 1) << "item " << i;
  }
}

TEST(ExecutorTest, RunsSubmittedTasksAndShutsDownIdempotently) {
  Executor executor(ExecutorConfig{4, 16});
  EXPECT_EQ(executor.workers(), 4);

  struct CountTask {
    PoolTask pool_task;
    std::atomic<int>* counter;
  };
  std::atomic<int> counter{0};
  std::vector<CountTask> tasks(100);
  for (auto& task : tasks) {
    task.counter = &counter;
    task.pool_task.context = &task;
    task.pool_task.run = [](void* context) {
      static_cast<CountTask*>(context)->counter->fetch_add(1);
    };
    executor.submit(&task.pool_task);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter.load() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(counter.load(), 100);
  EXPECT_GE(executor.tasks_executed(), 100u);
  executor.shutdown();
  executor.shutdown();  // idempotent
}

TEST(ExecutorTest, WorkerLocalTasksAreStolenWhileTheOwnerIsBusy) {
  // A task running on worker A submits subtasks (they land on A's own
  // deque) and then blocks until one completes. Only a steal by another
  // worker can complete a subtask while A is still inside its task, so
  // observing a completion before A returns proves stealing works.
  Executor executor(ExecutorConfig{4, 256});

  std::mutex mutex;
  std::condition_variable cv;
  int completed = 0;
  std::thread::id owner_thread;
  std::set<std::thread::id> subtask_threads;

  struct SubTask {
    PoolTask pool_task;
    std::mutex* mutex;
    std::condition_variable* cv;
    int* completed;
    std::set<std::thread::id>* threads;
  };
  std::vector<SubTask> subtasks(4);

  struct RootTask {
    PoolTask pool_task;
    Executor* executor;
    std::vector<SubTask>* subtasks;
    std::mutex* mutex;
    std::condition_variable* cv;
    int* completed;
    std::thread::id* owner_thread;
    bool stolen_in_time = false;
    bool root_done = false;
  };
  RootTask root;
  root.executor = &executor;
  root.subtasks = &subtasks;
  root.mutex = &mutex;
  root.cv = &cv;
  root.completed = &completed;
  root.owner_thread = &owner_thread;
  root.pool_task.context = &root;
  root.pool_task.run = [](void* context) {
    auto& self = *static_cast<RootTask*>(context);
    *self.owner_thread = std::this_thread::get_id();
    for (auto& subtask : *self.subtasks) {
      self.executor->submit(&subtask.pool_task);  // lands on OUR deque
    }
    std::unique_lock<std::mutex> guard(*self.mutex);
    self.stolen_in_time = self.cv->wait_for(
        guard, std::chrono::seconds(30),
        [&self] { return *self.completed >= 1; });
    self.root_done = true;
    self.cv->notify_all();
  };
  for (auto& subtask : subtasks) {
    subtask.mutex = &mutex;
    subtask.cv = &cv;
    subtask.completed = &completed;
    subtask.threads = &subtask_threads;
    subtask.pool_task.context = &subtask;
    subtask.pool_task.run = [](void* context) {
      auto& self = *static_cast<SubTask*>(context);
      std::lock_guard<std::mutex> guard(*self.mutex);
      ++*self.completed;
      self.threads->insert(std::this_thread::get_id());
      self.cv->notify_all();
    };
  }

  executor.submit(&root.pool_task);
  {
    std::unique_lock<std::mutex> guard(mutex);
    ASSERT_TRUE(cv.wait_for(guard, std::chrono::seconds(60), [&] {
      return root.root_done && completed >= 4;
    }));
  }
  executor.shutdown();
  EXPECT_TRUE(root.stolen_in_time)
      << "no subtask was stolen while the submitting worker was blocked";
  EXPECT_GE(executor.steals(), 1u);
  // At least one subtask ran off the submitting worker's thread.
  bool other_thread = false;
  for (const auto& id : subtask_threads) {
    other_thread = other_thread || id != owner_thread;
  }
  EXPECT_TRUE(other_thread);
}

TEST(ExecutorTest, StatsSnapshotAggregatesWorkerCounters) {
  Executor executor(ExecutorConfig{2, 64});
  struct CountTask {
    PoolTask pool_task;
    std::atomic<int>* counter;
  };
  std::atomic<int> counter{0};
  std::vector<CountTask> tasks(200);
  for (auto& task : tasks) {
    task.counter = &counter;
    task.pool_task.context = &task;
    task.pool_task.run = [](void* context) {
      static_cast<CountTask*>(context)->counter->fetch_add(1);
    };
    executor.submit(&task.pool_task);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (counter.load() < 200 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(counter.load(), 200);
  executor.shutdown();
  const ExecutorStats stats = executor.stats();
  EXPECT_GE(stats.tasks_executed, 200u);
  // The legacy accessors are views over the same snapshot.
  EXPECT_EQ(stats.tasks_executed, executor.tasks_executed());
  EXPECT_EQ(stats.steals, executor.steals());
  EXPECT_EQ(stats.parks, executor.parks());
  // Every external submit passes through the injector, so the fairness
  // tick must have polled it at least once to drain 200 tasks.
  EXPECT_GE(stats.injector_polls, 1u);
}

TEST(StrandTest, TasksRunInPostOrderWithoutOverlapUnderEightWorkers) {
  // The property the lock service's state machines depend on: per-strand
  // FIFO and never two tasks of one strand at once. Each strand appends
  // sequence numbers to an unsynchronized vector (a lost or reordered
  // update would corrupt it) and an entry/exit flag catches any overlap.
  constexpr int kStrands = 12;
  constexpr int kTasksPerStrand = 400;
  Executor executor(ExecutorConfig{8, 16});

  struct StrandState {
    std::unique_ptr<Strand> strand;
    std::vector<int> order;          // written only by strand tasks
    std::atomic<int> in_flight{0};   // 1 while a task runs
    std::atomic<int> overlaps{0};
    std::atomic<int> executed{0};
  };
  std::vector<StrandState> strands(kStrands);
  for (auto& state : strands) {
    state.strand = std::make_unique<Strand>(executor);
    state.order.reserve(kTasksPerStrand);
  }

  // Posts come from several app threads, each owning a disjoint strand
  // subset so per-strand post order is well defined.
  std::vector<std::thread> posters;
  for (int p = 0; p < 4; ++p) {
    posters.emplace_back([&strands, p] {
      for (int i = 0; i < kTasksPerStrand; ++i) {
        for (int s = p; s < kStrands; s += 4) {
          StrandState& state = strands[static_cast<std::size_t>(s)];
          state.strand->post([&state, i] {
            if (state.in_flight.fetch_add(1) != 0) {
              state.overlaps.fetch_add(1);
            }
            state.order.push_back(i);
            state.in_flight.fetch_sub(1);
            state.executed.fetch_add(1);
          });
        }
      }
    });
  }
  for (auto& poster : posters) poster.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (auto& state : strands) {
    while (state.executed.load() < kTasksPerStrand &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  }
  executor.shutdown();

  for (int s = 0; s < kStrands; ++s) {
    StrandState& state = strands[static_cast<std::size_t>(s)];
    EXPECT_EQ(state.overlaps.load(), 0) << "strand " << s;
    ASSERT_EQ(state.order.size(), static_cast<std::size_t>(kTasksPerStrand))
        << "strand " << s;
    for (int i = 0; i < kTasksPerStrand; ++i) {
      ASSERT_EQ(state.order[static_cast<std::size_t>(i)], i)
          << "strand " << s << " position " << i;
    }
  }
}

TEST(StrandTest, HotStrandCannotStarveItsNeighbours) {
  // One strand receives far more tasks than the batch budget; tasks for
  // other strands posted afterwards must still complete promptly because
  // the hot strand requeues through the fair global queue.
  Executor executor(ExecutorConfig{1, 8});  // single worker: worst case
  Strand hot(executor);
  Strand cold(executor);

  std::atomic<int> hot_done{0};
  std::atomic<int> hot_seen_by_cold{-1};
  std::atomic<bool> cold_done{false};
  std::atomic<bool> gate_open{false};
  // Hold the only worker inside the hot strand's first task until every
  // post below has happened, so the drain order is deterministic.
  hot.post([&gate_open] {
    while (!gate_open.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 10000; ++i) {
    hot.post([&hot_done] { hot_done.fetch_add(1); });
  }
  cold.post([&] {
    hot_seen_by_cold.store(hot_done.load());
    cold_done.store(true);
  });
  gate_open.store(true);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!cold_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(cold_done.load());
  // The cold task must not have had to wait for the entire hot backlog.
  EXPECT_LT(hot_seen_by_cold.load(), 10000);
  while (hot_done.load() < 10000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(hot_done.load(), 10000);
  executor.shutdown();
}

TEST(StrandTest, CallerClaimantRacingWorkerPostsKeepsOrderWithoutOverlap) {
  // An application thread that enqueues and runs claimed activations
  // itself races a feeder strand whose pool-side tasks post to the same
  // target. Each source's tasks must run in its own post order, no two
  // target tasks may overlap, and none may be lost.
  constexpr int kTasksPerSource = 2000;
  Executor executor(ExecutorConfig{4, 16});
  Strand target(executor);
  Strand feeder(executor);

  struct Seen {
    int source;
    int seq;
  };
  std::vector<Seen> order;  // written only by target tasks
  order.reserve(2 * kTasksPerSource);
  std::atomic<int> in_flight{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> executed{0};
  const auto task = [&](int source, int seq) {
    return [&, source, seq] {
      if (in_flight.fetch_add(1) != 0) overlaps.fetch_add(1);
      order.push_back(Seen{source, seq});
      in_flight.fetch_sub(1);
      executed.fetch_add(1);
    };
  };

  // The target is idle before the race starts, so the first enqueue must
  // claim: the caller-run path is exercised at least once.
  ASSERT_TRUE(target.enqueue(task(0, 0)));
  target.run_claimed();
  for (int i = 0; i < kTasksPerSource; ++i) {
    feeder.post([&target, &task, i] { target.post(task(1, i)); });
  }
  int claims = 1;
  for (int i = 1; i < kTasksPerSource; ++i) {
    if (target.enqueue(task(0, i))) {
      ++claims;
      target.run_claimed();
    }
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (executed.load() < 2 * kTasksPerSource &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  executor.shutdown();

  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kTasksPerSource));
  int next[2] = {0, 0};
  for (const Seen& seen : order) {
    ASSERT_EQ(seen.seq, next[seen.source]) << "source " << seen.source;
    ++next[seen.source];
  }
  EXPECT_GE(claims, 1);

  // The same race with the app thread's posts trampolined: each one comes
  // from a task of a claimed activation on `hopper`, so whenever the
  // target is idle the app thread claims and runs it on its trampoline,
  // while the feeder's pool tasks keep posting to the same target.
  Executor executor2(ExecutorConfig{4, 16});
  Strand target2(executor2);
  Strand feeder2(executor2);
  Strand hopper(executor2);
  struct Ran {
    int source;
    int seq;
    bool on_caller;
  };
  std::vector<Ran> order2;  // written only by target2 tasks
  order2.reserve(2 * kTasksPerSource);
  std::atomic<int> in_flight2{0};
  std::atomic<int> overlaps2{0};
  std::atomic<int> executed2{0};
  const std::thread::id caller = std::this_thread::get_id();
  const auto task2 = [&](int source, int seq) {
    return [&, source, seq] {
      if (in_flight2.fetch_add(1) != 0) overlaps2.fetch_add(1);
      order2.push_back(
          Ran{source, seq, std::this_thread::get_id() == caller});
      in_flight2.fetch_sub(1);
      executed2.fetch_add(1);
    };
  };
  const auto hop = [&](int seq) {
    // The hopper is only ever run here, so every enqueue claims it.
    ASSERT_TRUE(hopper.enqueue([&target2, &task2, seq] {
      target2.post(task2(0, seq));
    }));
    hopper.run_claimed();
  };
  // The target is idle before the race starts: the first hop must run
  // the target's activation on this thread's trampoline.
  hop(0);
  for (int i = 0; i < kTasksPerSource; ++i) {
    feeder2.post([&target2, &task2, i] { target2.post(task2(1, i)); });
  }
  for (int i = 1; i < kTasksPerSource; ++i) hop(i);

  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (executed2.load() < 2 * kTasksPerSource &&
         std::chrono::steady_clock::now() < deadline2) {
    std::this_thread::yield();
  }
  executor2.shutdown();

  EXPECT_EQ(overlaps2.load(), 0);
  ASSERT_EQ(order2.size(), static_cast<std::size_t>(2 * kTasksPerSource));
  int next2[2] = {0, 0};
  int trampolined = 0;
  for (const Ran& ran : order2) {
    ASSERT_EQ(ran.seq, next2[ran.source]) << "source " << ran.source;
    ++next2[ran.source];
    if (ran.on_caller) ++trampolined;
  }
  EXPECT_TRUE(order2.front().on_caller);
  EXPECT_GE(trampolined, 1);
}

TEST(StrandTest, CallerRunPostsToIdleStrandsRunOnTheCallerInPostOrder) {
  // A task of a caller-claimed activation posts to two idle strands.
  // Both claims ride the caller's trampoline: they run on the caller's
  // thread, in post order, before run_claimed returns, and the pool runs
  // nothing.
  Executor executor(ExecutorConfig{1, 8});
  Strand origin(executor);
  Strand first(executor);
  Strand second(executor);

  struct Ran {
    int strand;
    std::thread::id thread;
  };
  std::vector<Ran> ran;  // every task below runs on the caller's thread
  const auto record = [&ran](int strand) {
    return [&ran, strand] {
      ran.push_back(Ran{strand, std::this_thread::get_id()});
    };
  };
  ASSERT_TRUE(origin.enqueue([&] {
    first.post(record(1));
    second.post(record(2));
    ran.push_back(Ran{0, std::this_thread::get_id()});
  }));
  const std::uint64_t pool_tasks = executor.stats().tasks_executed;
  origin.run_claimed();
  const std::uint64_t pool_tasks_after = executor.stats().tasks_executed;
  executor.shutdown();  // nothing may still be writing `ran` below

  EXPECT_EQ(pool_tasks_after, pool_tasks);
  ASSERT_EQ(ran.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(ran[static_cast<std::size_t>(i)].strand, i);
    EXPECT_EQ(ran[static_cast<std::size_t>(i)].thread,
              std::this_thread::get_id());
  }
}

TEST(StrandTest, TrampolineBeyondItsBudgetHandsTheRestToThePool) {
  // Strand i's second task posts two tasks to strand i+1, along a chain
  // longer than the trampoline budget. The first kTrampolineBudget claims
  // run on the caller's thread; the claim after that, and every post the
  // pool then makes, go to the pool. Every task runs exactly once and each
  // strand sees its two tasks in post order.
  constexpr int kChain = Strand::kTrampolineBudget + 8;
  Executor executor(ExecutorConfig{2, 8});
  std::vector<std::unique_ptr<Strand>> chain;
  for (int i = 0; i < kChain; ++i) {
    chain.push_back(std::make_unique<Strand>(executor));
  }

  struct Ran {
    int strand;
    int seq;
    std::thread::id thread;
  };
  std::mutex log_mutex;  // the caller and the pool both append
  std::vector<Ran> log;
  std::atomic<int> executed{0};
  const auto record = [&](int strand, int seq) {
    std::lock_guard<std::mutex> guard(log_mutex);
    log.push_back(Ran{strand, seq, std::this_thread::get_id()});
    executed.fetch_add(1);
  };
  // Posts strand i's two tasks; the second one continues the chain.
  std::function<void(int)> post_pair = [&](int i) {
    chain[static_cast<std::size_t>(i)]->post([&record, i] { record(i, 0); });
    chain[static_cast<std::size_t>(i)]->post([&record, &post_pair, i] {
      record(i, 1);
      if (i + 1 < kChain) post_pair(i + 1);
    });
  };
  ASSERT_TRUE(chain[0]->enqueue([&record] { record(0, 0); }));
  ASSERT_FALSE(chain[0]->enqueue([&record, &post_pair] {
    record(0, 1);
    post_pair(1);
  }));
  chain[0]->run_claimed();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (executed.load() < 2 * kChain &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  executor.shutdown();  // workers count a task after it returns
  const std::uint64_t pool_tasks = executor.stats().tasks_executed;

  ASSERT_EQ(log.size(), static_cast<std::size_t>(2 * kChain));
  std::vector<int> next(static_cast<std::size_t>(kChain), 0);
  const std::thread::id caller = std::this_thread::get_id();
  for (const Ran& ran : log) {
    EXPECT_EQ(ran.seq, next[static_cast<std::size_t>(ran.strand)])
        << "strand " << ran.strand;
    ++next[static_cast<std::size_t>(ran.strand)];
    if (ran.strand <= Strand::kTrampolineBudget) {
      EXPECT_EQ(ran.thread, caller) << "strand " << ran.strand;
    } else {
      EXPECT_NE(ran.thread, caller) << "strand " << ran.strand;
    }
  }
  for (int i = 0; i < kChain; ++i) {
    EXPECT_EQ(next[static_cast<std::size_t>(i)], 2) << "strand " << i;
  }
  EXPECT_GE(pool_tasks,
            static_cast<std::uint64_t>(kChain - 1 - Strand::kTrampolineBudget));
}

TEST(StrandTest, ClaimedDrainStopsAtBatchAndRequeuesTheRest) {
  // A caller-run activation drains exactly kBatch tasks on the calling
  // thread, then requeues the strand to the pool, which runs the rest as
  // one pool task.
  constexpr int kExtra = 5;
  constexpr int kTotal = Strand::kBatch + kExtra;
  Executor executor(ExecutorConfig{1, 8});
  Strand strand(executor);

  std::vector<std::thread::id> ran_on;  // written only by strand tasks
  ran_on.reserve(kTotal);
  std::atomic<int> executed{0};
  int claims = 0;
  for (int i = 0; i < kTotal; ++i) {
    if (strand.enqueue([&ran_on, &executed] {
          ran_on.push_back(std::this_thread::get_id());
          executed.fetch_add(1);
        })) {
      ++claims;
    }
  }
  EXPECT_EQ(claims, 1) << "only the enqueue onto the idle strand claims";
  EXPECT_EQ(executed.load(), 0) << "a claimed activation runs only when run";

  strand.run_claimed();
  EXPECT_GE(executed.load(), Strand::kBatch);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((executed.load() < kTotal || executor.tasks_executed() < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  executor.shutdown();

  ASSERT_EQ(ran_on.size(), static_cast<std::size_t>(kTotal));
  const std::thread::id caller = std::this_thread::get_id();
  for (int i = 0; i < kTotal; ++i) {
    if (i < Strand::kBatch) {
      EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], caller) << "task " << i;
    } else {
      EXPECT_NE(ran_on[static_cast<std::size_t>(i)], caller) << "task " << i;
    }
  }
  EXPECT_EQ(executor.tasks_executed(), 1u);
}

}  // namespace
}  // namespace dmx::exec
