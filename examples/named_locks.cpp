// A multi-resource lock service: worker threads on N nodes update a set
// of named bank accounts, each account protected by its own distributed
// lock (one Neilsen DAG protocol instance per account and node, each on
// its own strand, all sharing one worker pool). Transfers lock two
// accounts in a global order — per-account exclusivity makes every
// balance transfer atomic, and the conserved total is the arithmetic
// proof.
//
//   $ ./named_locks [nodes] [accounts] [transfers]
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "service/threaded_lock_space.hpp"

int main(int argc, char** argv) {
  using namespace dmx;
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 6;
  const int accounts = argc > 2 ? std::atoi(argv[2]) : 16;
  const int transfers = argc > 3 ? std::atoi(argv[3]) : 400;
  const long long initial_balance = 1000;

  service::ThreadedLockSpaceConfig config;
  config.n = nodes;
  config.algorithm = baselines::algorithm_by_name("Neilsen");
  for (int i = 0; i < accounts; ++i) {
    config.resources.push_back("accounts/" + std::to_string(i));
  }
  service::ThreadedLockSpace space(std::move(config));

  // Balances are protected only by the named distributed locks.
  std::vector<long long> balance(static_cast<std::size_t>(accounts),
                                 initial_balance);

  std::vector<std::thread> workers;
  for (NodeId v = 1; v <= nodes; ++v) {
    workers.emplace_back([&, v] {
      Rng rng(static_cast<std::uint64_t>(v) * 7919);
      for (int t = 0; t < transfers; ++t) {
        auto a = static_cast<ResourceId>(
            rng.uniform_int(0, accounts - 1));
        auto b = static_cast<ResourceId>(
            rng.uniform_int(0, accounts - 2));
        if (b >= a) ++b;          // two distinct accounts
        if (b < a) std::swap(a, b);  // global lock order: no deadlock
        service::ScopedLock first(space, a, v);
        service::ScopedLock second(space, b, v);
        const long long amount = rng.uniform_int(1, 50);
        balance[static_cast<std::size_t>(a)] -= amount;
        balance[static_cast<std::size_t>(b)] += amount;
      }
    });
  }
  for (auto& worker : workers) worker.join();

  long long total = 0;
  for (const long long b : balance) total += b;
  const long long expected =
      static_cast<long long>(accounts) * initial_balance;

  std::cout << "nodes: " << nodes << ", accounts: " << accounts
            << ", transfers/node: " << transfers
            << "\ncritical sections served: " << space.total_entries()
            << " across " << space.resource_count() << " named locks"
            << "\ntotal balance: " << total << " (expected " << expected
            << ") "
            << (total == expected ? "— conserved, locks held"
                                  : "— MONEY LEAKED!")
            << "\n";
  if (auto error = space.first_error()) {
    std::cout << "service error: " << *error << "\n";
    return 1;
  }
  return total == expected ? 0 : 1;
}
