// Proof that the steady-state send/deliver path, and the threaded lock
// service's client gate above it, perform zero heap allocations once
// pools are warm.
//
// This test overrides the global operator new/delete with counting
// versions (which is why it lives in its own binary — see CMakeLists) and
// drives a simulator + network through repeated send/deliver bursts. The
// first burst warms every structure: event-slot chunks, envelope slots,
// the message pool, per-kind counters, and the channel table. Every
// subsequent burst must allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "net/latency.hpp"
#include "net/message_pool.hpp"
#include "net/network.hpp"
#include "service/threaded_lock_space.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dmx {
namespace {

class PingMessage final : public net::Message {
 public:
  PingMessage() : net::Message(ping_kind()) {}
  std::size_t payload_bytes() const override { return 0; }
  net::MessagePtr clone() const override {
    return std::make_unique<PingMessage>(*this);
  }

 private:
  static net::MessageKind ping_kind() {
    static const net::MessageKind kind = net::MessageKind::of("PING");
    return kind;
  }
};

TEST(ZeroAlloc, SteadyStateSendDeliverDoesNotTouchTheHeap) {
  sim::Simulator sim;
  net::Network network(sim, 3, std::make_unique<net::FixedLatency>(2));
  std::uint64_t delivered = 0;
  network.set_delivery_handler(
      [&delivered](const net::Envelope&) { ++delivered; });

  const auto burst = [&] {
    for (int i = 0; i < 200; ++i) {
      network.send(1, 2, std::make_unique<PingMessage>());
      network.send(2, 3, std::make_unique<PingMessage>());
      network.send(3, 1, std::make_unique<PingMessage>());
    }
    sim.run();
  };

  burst();  // warm every pool and table
  const std::uint64_t heap_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  const net::MessagePool::Stats pool_before =
      net::MessagePool::local().stats();
  const std::uint64_t inline_fallbacks_before =
      sim::InlineCallback::heap_allocations();

  for (int round = 0; round < 5; ++round) {
    burst();
  }

  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed), heap_before)
      << "steady-state send/deliver allocated from the heap";
  const net::MessagePool::Stats pool_after =
      net::MessagePool::local().stats();
  EXPECT_EQ(pool_after.fresh_allocations, pool_before.fresh_allocations)
      << "message pool had to grow after warm-up";
  EXPECT_GT(pool_after.pool_hits, pool_before.pool_hits)
      << "messages were not actually recycled through the pool";
  EXPECT_EQ(pool_after.outstanding, 0u);
  EXPECT_EQ(sim::InlineCallback::heap_allocations(),
            inline_fallbacks_before)
      << "a scheduler callback outgrew its inline storage";
  EXPECT_EQ(delivered, 600u * 6u);
}

TEST(ZeroAlloc, CrossThreadFreeRecyclesThroughTheOwnerPool) {
  // The executor substrate's allocation pattern: a message allocated on
  // one thread is freed on another. Freed blocks return to the owner
  // pool's lock-free remote stack and are reclaimed on its next
  // allocation miss — after one warm-up round the producer/consumer cycle
  // must never touch the heap again.
  constexpr int kBatch = 100;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<net::MessagePtr> batch;
  batch.reserve(kBatch);
  bool ready = false;
  bool done = false;
  bool stop = false;

  std::thread consumer([&] {
    std::unique_lock<std::mutex> guard(mutex);
    for (;;) {
      cv.wait(guard, [&] { return ready || stop; });
      if (stop) return;
      batch.clear();  // frees on this thread -> owner's remote stack
      ready = false;
      done = true;
      cv.notify_all();
    }
  });

  const auto round = [&] {
    std::unique_lock<std::mutex> guard(mutex);
    for (int i = 0; i < kBatch; ++i) {
      batch.push_back(std::make_unique<PingMessage>());
    }
    ready = true;
    done = false;
    cv.notify_all();
    cv.wait(guard, [&] { return done; });
  };

  round();  // warm-up: fresh blocks enter the cycle
  round();  // first full recycle through the remote stack
  const std::uint64_t heap_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  const net::MessagePool::Stats pool_before =
      net::MessagePool::local().stats();

  for (int i = 0; i < 5; ++i) round();

  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed), heap_before)
      << "cross-thread alloc/free cycle touched the heap";
  const net::MessagePool::Stats pool_after =
      net::MessagePool::local().stats();
  EXPECT_EQ(pool_after.fresh_allocations, pool_before.fresh_allocations)
      << "owner pool had to grow after warm-up";
  EXPECT_GT(pool_after.pool_hits, pool_before.pool_hits);
  EXPECT_GT(pool_after.remote_frees, pool_before.remote_frees)
      << "frees did not actually take the cross-thread path";
  EXPECT_EQ(pool_after.outstanding, 0u);

  {
    std::lock_guard<std::mutex> guard(mutex);
    stop = true;
  }
  cv.notify_all();
  consumer.join();
}

TEST(ZeroAlloc, ScheduleCancelRecyclesSlots) {
  sim::Simulator sim;
  // Warm-up round growing the slot arena.
  for (int i = 0; i < 100; ++i) {
    const sim::EventId id = sim.schedule_after(5, [] {});
    ASSERT_TRUE(sim.cancel(id));
  }
  sim.run();
  const std::uint64_t heap_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 100; ++i) {
      const sim::EventId id = sim.schedule_after(5, [] {});
      ASSERT_TRUE(sim.cancel(id));
    }
    sim.run();
  }
  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed), heap_before)
      << "steady-state schedule/cancel allocated from the heap";
  EXPECT_TRUE(sim.idle());
}

TEST(ZeroAlloc, ThreadedGateSteadyState) {
  // The threaded client gate end to end: waiter tickets, strand task
  // queues and the executor's injector recycle their ring slots, messages
  // recycle through the pools, and per-thread telemetry is leased once.
  // Each round, each node acquires twice — first with the token at the
  // other node (a REQUEST and a token forward), then with the token
  // resting at the caller (granted inside the call). After warm-up no
  // thread may touch the heap.
  service::ThreadedLockSpaceConfig config;
  config.n = 2;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.resources = {"res/0"};
  config.workers = 1;
  service::ThreadedLockSpace space(std::move(config));
  const ResourceId r = 0;
  const auto rounds = [&space, r](int count) {
    for (int i = 0; i < count; ++i) {
      for (NodeId v = 1; v <= 2; ++v) {
        for (int k = 0; k < 2; ++k) {  // token-remote, then token-local
          ASSERT_EQ(space.try_lock_for(r, v, std::chrono::seconds(10)),
                    service::LockError::kOk);
          space.unlock(r, v);
        }
      }
    }
  };

  rounds(400);  // warm every ring, pool and per-thread lease
  const std::uint64_t heap_before =
      g_heap_allocations.load(std::memory_order_relaxed);
  const std::uint64_t inline_fallbacks_before =
      sim::InlineCallback::heap_allocations();
  const std::uint64_t messages_before = space.messages_sent();

  rounds(1600);  // 6400 lock/unlock cycles

  EXPECT_EQ(g_heap_allocations.load(std::memory_order_relaxed), heap_before)
      << "steady-state lock/unlock allocated from the heap";
  EXPECT_EQ(sim::InlineCallback::heap_allocations(),
            inline_fallbacks_before)
      << "a strand task outgrew its inline storage";
  EXPECT_GT(space.messages_sent(), messages_before)
      << "no acquire crossed nodes; the remote path went untested";
  EXPECT_EQ(space.entries(r), 8000u);
  EXPECT_FALSE(space.first_error().has_value()) << *space.first_error();
}

}  // namespace
}  // namespace dmx
