#include "micro.hpp"

#include <atomic>
#include <chrono>
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "baselines/registry.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "exec/executor.hpp"
#include "exec/strand.hpp"
#include "net/message_pool.hpp"
#include "service/lock_space.hpp"
#include "service/space_workload.hpp"
#include "service/threaded_lock_space.hpp"
#include "sim/simulator.hpp"
#include "transport/codec.hpp"
#include "transport/event_loop.hpp"

namespace lockbench {
namespace {

enum Label : std::uint8_t {
  kHopIdle,
  kHopBusy,
  kGate,
  kEncode,
  kDecode,
  kRtt,
  kSimEvent,
  kPool,
};

constexpr int kBatches = 7;

// --- sim probe --------------------------------------------------------------

constexpr int kSimNodes = 8;
constexpr int kSimClientsPerNode = 4;
constexpr int kSimResources = 64;
constexpr double kSimZipf = 0.99;
constexpr std::uint64_t kSimEntries = 100000;

/// Closed-loop sim clients: pick a resource by Zipf popularity (falling
/// through to the next rank the node is not already requesting), acquire,
/// hold 0-2 ticks, release, immediately pick again. Counts overlapping
/// occupancy of any resource as a witness violation.
class SimClients {
 public:
  SimClients(dmx::service::LockSpace& space, std::uint64_t seed)
      : space_(space), rng_(seed), zipf_(space.resource_count(), kSimZipf),
        occupancy_(static_cast<std::size_t>(space.resource_count()), 0),
        requested_(static_cast<std::size_t>(kSimNodes * kSimClientsPerNode)) {}

  void start() {
    for (int lane = 0; lane < static_cast<int>(requested_.size()); ++lane) {
      issue(lane / kSimClientsPerNode + 1, lane);
    }
  }

  std::uint64_t issued() const { return issued_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t wait_ticks_sum() const { return wait_sum_; }
  std::uint64_t max_wait_ticks() const { return max_wait_; }
  std::uint64_t violations() const { return violations_; }

 private:
  void issue(dmx::NodeId v, int lane) {
    if (completed_ >= kSimEntries) return;
    const int m = space_.resource_count();
    const int first = zipf_.sample(rng_);
    dmx::ResourceId r = dmx::kNilResource;
    for (int i = 0; i < m; ++i) {
      const auto candidate = static_cast<dmx::ResourceId>((first + i) % m);
      if (space_.is_idle(candidate, v)) {
        r = candidate;
        break;
      }
    }
    if (r == dmx::kNilResource) {
      space_.simulator().schedule_after(1, [this, v, lane] { issue(v, lane); });
      return;
    }
    ++issued_;
    requested_[static_cast<std::size_t>(lane)] = space_.simulator().now();
    space_.acquire(r, v, [this, lane](dmx::ResourceId res, dmx::NodeId who) {
      on_grant(res, who, lane);
    });
  }

  void on_grant(dmx::ResourceId r, dmx::NodeId v, int lane) {
    const auto wait = static_cast<std::uint64_t>(
        space_.simulator().now() - requested_[static_cast<std::size_t>(lane)]);
    wait_sum_ += wait;
    max_wait_ = std::max(max_wait_, wait);
    if (++occupancy_[static_cast<std::size_t>(r)] != 1) ++violations_;
    const dmx::Tick hold = rng_.uniform_int(0, 2);
    space_.simulator().schedule_after(hold, [this, r, v, lane] {
      --occupancy_[static_cast<std::size_t>(r)];
      space_.release(r, v);
      ++completed_;
      issue(v, lane);
    });
  }

  dmx::service::LockSpace& space_;
  dmx::Rng rng_;
  dmx::service::ZipfSampler zipf_;
  std::vector<int> occupancy_;
  std::vector<dmx::Tick> requested_;  // by lane
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t wait_sum_ = 0;
  std::uint64_t max_wait_ = 0;
  std::uint64_t violations_ = 0;
};

/// One probe run to quiescence; the space's per-event invariants throw on
/// a violation, and the benchmark's own checks throw here.
SimCounts run_sim_probe(std::uint64_t seed) {
  dmx::service::LockSpaceConfig config;
  config.n = kSimNodes;
  config.algorithm = dmx::baselines::algorithm_by_name("Neilsen");
  config.seed = seed;
  dmx::service::LockSpace space(std::move(config));
  for (int i = 0; i < kSimResources; ++i) {
    space.open("bench/r" + std::to_string(i));
  }
  SimClients clients(space, seed);
  clients.start();
  space.run_to_quiescence();
  space.check_all_invariants();

  SimCounts counts;
  counts.entries = space.total_entries();
  counts.makespan_ticks = static_cast<std::uint64_t>(space.simulator().now());
  counts.messages = space.network().stats().total_sent;
  counts.request_msgs = space.network().stats().sent("REQUEST");
  counts.token_msgs = space.network().stats().sent("PRIVILEGE");
  counts.events = space.simulator().events_executed();
  counts.wait_ticks_sum = clients.wait_ticks_sum();
  counts.max_wait_ticks = clients.max_wait_ticks();
  if (clients.violations() != 0 || clients.issued() != clients.completed() ||
      clients.completed() != counts.entries) {
    throw std::runtime_error(
        "sim probe: " + std::to_string(clients.violations()) +
        " witness violations, " + std::to_string(clients.issued()) +
        " acquires issued, " + std::to_string(clients.completed()) +
        " completed, total_entries() " + std::to_string(counts.entries));
  }
  return counts;
}

// --- microbenches -----------------------------------------------------------

/// Runs `batch` kBatches times, each a span; returns the median of the
/// per-batch values `batch` reports.
template <typename Batch>
double median_of_batches(SpanStats& spans, Label label, Batch&& batch) {
  std::vector<double> values;
  for (int i = 0; i < kBatches; ++i) {
    const std::uint64_t start = now_ns();
    values.push_back(batch());
    spans.record_micro(label, start, now_ns());
  }
  return median(values);
}

/// Strand post -> run latency, one hop at a time, with `background`
/// strands keeping every worker busy with short self-reposting tasks.
double strand_hop_us(SpanStats& spans, Label label, int background) {
  dmx::exec::Executor executor(dmx::exec::ExecutorConfig{2, 64});
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<dmx::exec::Strand>> busy;
  struct Spinner {
    dmx::exec::Strand* strand;
    std::atomic<bool>* stop;
    void operator()() const {
      const std::uint64_t until = now_ns() + 2000;
      while (now_ns() < until) {
      }
      std::this_thread::yield();
      if (!stop->load(std::memory_order_relaxed)) strand->post(*this);
    }
  };
  for (int i = 0; i < background; ++i) {
    busy.push_back(std::make_unique<dmx::exec::Strand>(executor));
    busy.back()->post(Spinner{busy.back().get(), &stop});
  }
  dmx::exec::Strand probe(executor);
  std::atomic<std::uint64_t> ran_at{0};
  const double us = median_of_batches(spans, label, [&] {
    LatencyHistogram hops;
    for (int i = 0; i < (background == 0 ? 2000 : 300); ++i) {
      ran_at.store(0, std::memory_order_relaxed);
      const std::uint64_t posted = now_ns();
      probe.post([&ran_at] {
        ran_at.store(now_ns(), std::memory_order_release);
      });
      std::uint64_t seen = 0;
      while ((seen = ran_at.load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();  // the pool may share this CPU
      }
      hops.add(seen - posted);
    }
    return hops.quantile(0.5) / 1e3;
  });
  stop.store(true);
  executor.shutdown();  // strands are destroyed only after the pool stops
  return us;
}

double gate_ns(SpanStats& spans) {
  dmx::service::ThreadedLockSpaceConfig config;
  config.n = 2;
  config.algorithm = dmx::baselines::algorithm_by_name("Neilsen");
  config.resources = {"bench/gate"};
  config.workers = 1;
  dmx::service::ThreadedLockSpace space(std::move(config));
  const dmx::ResourceId r = space.lookup("bench/gate");
  const dmx::NodeId home = space.home_node(r);
  constexpr int kPairs = 5000;
  for (int i = 0; i < 500; ++i) {
    space.lock(r, home);
    space.unlock(r, home);
  }
  return median_of_batches(spans, kGate, [&] {
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kPairs; ++i) {
      space.lock(r, home);
      space.unlock(r, home);
    }
    return static_cast<double>(now_ns() - start) / kPairs;
  });
}

void codec_ns(std::uint64_t seed, SpanStats& spans, double& encode,
              double& decode) {
  using dmx::transport::Codec;
  dmx::Rng rng(seed);
  constexpr int kFrames = 256;
  std::vector<std::unique_ptr<dmx::net::Message>> messages;
  for (int i = 0; i < kFrames; ++i) {
    if (i % 2 == 0) {
      messages.push_back(std::make_unique<dmx::core::RequestMessage>(
          static_cast<dmx::NodeId>(rng.uniform_int(1, 8)),
          static_cast<dmx::NodeId>(rng.uniform_int(1, 8))));
    } else {
      messages.push_back(std::make_unique<dmx::core::PrivilegeMessage>());
    }
  }
  std::string buffer;
  constexpr int kRounds = 200;
  encode = median_of_batches(spans, kEncode, [&] {
    const std::uint64_t start = now_ns();
    for (int round = 0; round < kRounds; ++round) {
      buffer.clear();
      for (int i = 0; i < kFrames; ++i) {
        Codec::encode_frame(buffer, 0, i % 64, 1 + i % 3, 1 + (i + 1) % 3,
                            *messages[static_cast<std::size_t>(i)]);
      }
    }
    return static_cast<double>(now_ns() - start) / (kRounds * kFrames);
  });
  // `buffer` now holds kFrames encoded frames back to back.
  std::uint64_t decoded = 0;
  decode = median_of_batches(spans, kDecode, [&] {
    const std::uint64_t start = now_ns();
    for (int round = 0; round < kRounds; ++round) {
      std::size_t offset = 0;
      while (offset < buffer.size()) {
        dmx::net::WireReader prefix(
            std::string_view(buffer).substr(offset, sizeof(std::uint32_t)));
        const std::uint32_t length = prefix.u32();
        dmx::net::WireReader body(std::string_view(buffer).substr(
            offset + sizeof(std::uint32_t), length));
        const dmx::transport::FrameHeader header = Codec::decode_header(body);
        const dmx::net::MessagePtr message = Codec::decode(header.wire_id, body);
        decoded += message != nullptr ? 1 : 0;
        offset += sizeof(std::uint32_t) + length;
      }
    }
    return static_cast<double>(now_ns() - start) / (kRounds * kFrames);
  });
  if (decoded != static_cast<std::uint64_t>(kBatches) * kRounds * kFrames) {
    throw std::runtime_error("codec microbench decoded a wrong frame count");
  }
}

double rtt_us(SpanStats& spans) {
  using dmx::transport::EventLoop;
  std::atomic<std::uint64_t> echoed{0};
  EventLoop* b_ptr = nullptr;
  EventLoop a(
      dmx::transport::EventLoopConfig{1},
      [&echoed](const dmx::transport::FrameHeader&, dmx::net::MessagePtr) {
        echoed.fetch_add(1, std::memory_order_release);
      },
      [](dmx::NodeId) {});
  EventLoop b(
      dmx::transport::EventLoopConfig{2},
      [&b_ptr](const dmx::transport::FrameHeader& header,
               dmx::net::MessagePtr message) {
        b_ptr->send(header.from, header.epoch, header.resource, *message,
                    /*block_on_backpressure=*/false);
      },
      [](dmx::NodeId) {});
  b_ptr = &b;
  const std::uint16_t port = a.listen();
  b.listen();
  b.connect(1, port);
  a.start();
  b.start();
  if (!a.wait_for_peers(1, std::chrono::milliseconds(5000)) ||
      !b.wait_for_peers(1, std::chrono::milliseconds(5000))) {
    throw std::runtime_error("rtt microbench: loops did not connect");
  }
  const dmx::core::RequestMessage request(1, 1);
  std::uint64_t sent = 0;
  const double us = median_of_batches(spans, kRtt, [&] {
    LatencyHistogram trips;
    for (int i = 0; i < 500; ++i) {
      const std::uint64_t start = now_ns();
      if (!a.send(2, 0, 0, request)) {
        throw std::runtime_error("rtt microbench: send failed");
      }
      ++sent;
      while (echoed.load(std::memory_order_acquire) < sent) {
        std::this_thread::yield();
      }
      trips.add(now_ns() - start);
    }
    return trips.quantile(0.5) / 1e3;
  });
  b.stop();
  a.stop();
  return us;
}

double sim_ns_per_event(std::uint64_t seed, SpanStats& spans) {
  return median_of_batches(spans, kSimEvent, [&] {
    dmx::sim::Simulator sim;
    dmx::Rng rng(seed);
    constexpr std::uint64_t kEvents = 400000;
    std::uint64_t fired = 0;
    struct Chain {
      dmx::sim::Simulator* sim;
      dmx::Rng* rng;
      std::uint64_t* fired;
      void operator()() const {
        if (++*fired >= kEvents) return;
        sim->schedule_after(rng->uniform_int(1, 8), *this);
      }
    };
    for (int i = 0; i < 64; ++i) {
      sim.schedule_after(rng.uniform_int(0, 8), Chain{&sim, &rng, &fired});
    }
    const std::uint64_t start = now_ns();
    sim.run();
    return static_cast<double>(now_ns() - start) /
           static_cast<double>(sim.events_executed());
  });
}

double pool_ns(SpanStats& spans) {
  dmx::net::MessagePool& pool = dmx::net::MessagePool::local();
  constexpr int kBlocks = 64;
  constexpr int kRounds = 4000;
  constexpr std::size_t kSize = sizeof(dmx::core::RequestMessage);
  void* blocks[kBlocks];
  return median_of_batches(spans, kPool, [&] {
    const std::uint64_t start = now_ns();
    for (int round = 0; round < kRounds; ++round) {
      for (void*& block : blocks) block = pool.allocate(kSize);
      for (void* block : blocks) pool.deallocate(block, kSize);
    }
    return static_cast<double>(now_ns() - start) / (kRounds * kBlocks);
  });
}

}  // namespace

const std::vector<std::string>& micro_labels() {
  static const std::vector<std::string> labels = {
      "hop_idle", "hop_busy", "gate", "encode",
      "decode",   "rtt",      "sim_event", "pool"};
  return labels;
}

MicroResults run_microbenches(std::uint64_t seed, SpanStats& spans) {
  MicroResults m;
  m.sim = run_sim_probe(seed);
  if (!(run_sim_probe(seed) == m.sim)) {
    throw std::runtime_error("sim probe counts differ between two runs");
  }
  m.hop_idle_us = strand_hop_us(spans, kHopIdle, 0);
  m.hop_busy_us = strand_hop_us(spans, kHopBusy, 2);
  m.gate_ns = gate_ns(spans);
  codec_ns(seed, spans, m.encode_ns, m.decode_ns);
  m.rtt_us = rtt_us(spans);
  m.sim_ns_per_event = sim_ns_per_event(seed, spans);
  m.pool_ns = pool_ns(spans);
  return m;
}

}  // namespace lockbench
