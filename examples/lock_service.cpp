// A real multi-threaded lock service: N worker threads (one per node)
// increment a shared, deliberately unsynchronized counter under one named
// lock of a ThreadedLockSpace backed by the Neilsen DAG protocol. Lost
// updates would make the final count fall short — run it and check the
// arithmetic.
//
//   $ ./lock_service [workers] [increments]
#include <cstdlib>
#include <iostream>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "service/threaded_lock_space.hpp"
#include "topology/tree.hpp"

int main(int argc, char** argv) {
  using namespace dmx;
  const int workers = argc > 1 ? std::atoi(argv[1]) : 8;
  const int increments = argc > 2 ? std::atoi(argv[2]) : 250;

  service::ThreadedLockSpaceConfig config;
  config.n = workers;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  config.resources = {"counter"};
  config.tree = topology::Tree::star(workers, 1);
  config.jitter_us = 20;  // shake the thread schedules a little
  service::ThreadedLockSpace space(std::move(config));
  const ResourceId lock = space.lookup("counter");

  long long counter = 0;  // protected only by the distributed lock
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (NodeId v = 1; v <= workers; ++v) {
    threads.emplace_back([&space, &counter, lock, increments, v] {
      for (int i = 0; i < increments; ++i) {
        service::ScopedLock guard(space, lock, v);
        ++counter;  // the critical section
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const long long expected =
      static_cast<long long>(workers) * increments;
  std::cout << "workers: " << workers << ", increments each: " << increments
            << "\ncounter: " << counter << " (expected " << expected << ") "
            << (counter == expected ? "— mutual exclusion held"
                                    : "— LOST UPDATES!")
            << "\ncritical sections served: " << space.total_entries()
            << "\nprotocol messages: " << space.messages_sent() << "\n";
  if (auto error = space.first_error()) {
    std::cout << "protocol error: " << *error << "\n";
    return 1;
  }
  return counter == expected ? 0 : 1;
}
