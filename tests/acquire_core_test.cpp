// Deterministic tests of the acquire core (service/acquire_core.hpp): the
// ticket FIFO, grant revalidation against the fence and lease chaining,
// driven with explicit times and no threads, so the lease's hold window is
// checked to the nanosecond instead of by sleeping.
#include <gtest/gtest.h>

#include <cstdint>

#include "service/acquire_core.hpp"

namespace dmx::service {
namespace {

using Kind = AcquireCore::Release::Kind;

constexpr std::uint64_t kStart = 1'000'000;

/// Remote-request hint arguments of AcquireCore::release.
constexpr bool kBlind = false;
constexpr bool kSees = true;
constexpr bool kNoRemote = false;
constexpr bool kRemote = true;

/// A core whose first waiter entered on a protocol grant at kStart, with
/// a second waiter queued behind it.
struct HeldWithWaiter {
  HeldWithWaiter() {
    first = core.arrive();
    second = core.arrive();
    EXPECT_TRUE(first.request);
    EXPECT_FALSE(second.request);
    EXPECT_TRUE(core.grant(/*epoch=*/0));
    EXPECT_TRUE(core.ready(first.ticket));
    EXPECT_TRUE(core.consume(/*fence=*/0, kStart));
  }
  AcquireCore core;
  AcquireCore::Arrival first;
  AcquireCore::Arrival second;
};

LeaseConfig lease(int max_chain, std::uint64_t max_hold_ns) {
  LeaseConfig config;
  config.max_chain = max_chain;
  config.max_hold_ns = max_hold_ns;
  return config;
}

TEST(AcquireCore, HandOffJustInsideTheHoldWindowChains) {
  HeldWithWaiter h;
  const LeaseConfig l = lease(16, 500);
  const auto out = h.core.release(kStart + 499, 0, false, l, kBlind, kRemote);
  EXPECT_EQ(out.kind, Kind::kChained);
  EXPECT_EQ(out.chain_len, 1);
  EXPECT_TRUE(h.core.ready(h.second.ticket));
}

TEST(AcquireCore, HandOffAtTheHoldWindowClosesTheChain) {
  HeldWithWaiter h;
  const LeaseConfig l = lease(16, 500);
  const auto out = h.core.release(kStart + 500, 0, false, l, kBlind, kRemote);
  EXPECT_EQ(out.kind, Kind::kReleased);
  EXPECT_TRUE(out.yielded_with_waiters);
  // The waiter left behind needs the node's next protocol request.
  EXPECT_TRUE(out.request);
  EXPECT_FALSE(h.core.ready(h.second.ticket));
}

TEST(AcquireCore, ChainedGrantKeepsTheWindowOfItsProtocolGrant) {
  // The window opens at the protocol grant, not at each hand-off: a chain
  // entered at kStart + 400 still closes at kStart + 500.
  HeldWithWaiter h;
  const LeaseConfig l = lease(16, 500);
  const AcquireCore::Arrival third = h.core.arrive();
  ASSERT_EQ(h.core.release(kStart + 400, 0, false, l, kBlind, kRemote).kind,
            Kind::kChained);
  ASSERT_TRUE(h.core.consume(0, kStart + 400));
  const auto out = h.core.release(kStart + 500, 0, false, l, kBlind, kRemote);
  EXPECT_EQ(out.kind, Kind::kReleased);
  EXPECT_EQ(out.ended_chain, 1);
  EXPECT_FALSE(h.core.ready(third.ticket));
}

TEST(AcquireCore, CapExpiredLeaseRenewsOnlyWhenTheHolderSeesNoRemoteRequest) {
  const LeaseConfig l = lease(/*max_chain=*/1, /*max_hold_ns=*/0);
  struct Case {
    bool sees_remote;
    bool remote_pending;
    Kind expected;
  };
  const Case cases[] = {
      {kSees, kNoRemote, Kind::kChained},  // renews in place
      {kSees, kRemote, Kind::kReleased},   // a remote request is waiting
      {kBlind, kNoRemote, Kind::kReleased},  // blind: the cap is final
      {kBlind, kRemote, Kind::kReleased},
  };
  for (const Case& c : cases) {
    HeldWithWaiter h;
    h.core.arrive();
    // The first hand-off uses up the cap of one.
    ASSERT_EQ(h.core.release(kStart, 0, false, l, c.sees_remote,
                             c.remote_pending)
                  .kind,
              Kind::kChained);
    ASSERT_TRUE(h.core.consume(0, kStart));
    const auto out =
        h.core.release(kStart, 0, false, l, c.sees_remote, c.remote_pending);
    EXPECT_EQ(out.kind, c.expected)
        << "sees_remote=" << c.sees_remote
        << " remote_pending=" << c.remote_pending;
    if (c.expected == Kind::kChained) {
      // Renewal closes the old window and starts a fresh chain.
      EXPECT_EQ(out.ended_chain, 1);
      EXPECT_EQ(out.chain_len, 1);
    }
  }
}

TEST(AcquireCore, RenewalNeedsTheOptionAndAChainingLease) {
  for (const LeaseConfig& l :
       {[] {
          LeaseConfig c = lease(1, 0);
          c.renew_when_no_remote = false;
          return c;
        }(),
        lease(/*max_chain=*/0, 0)}) {
    HeldWithWaiter h;
    h.core.arrive();
    if (l.max_chain != 0) {
      ASSERT_EQ(h.core.release(kStart, 0, false, l, kSees, kNoRemote).kind,
                Kind::kChained);
      ASSERT_TRUE(h.core.consume(0, kStart));
    }
    EXPECT_EQ(h.core.release(kStart, 0, false, l, kSees, kNoRemote).kind,
              Kind::kReleased)
        << "max_chain=" << l.max_chain;
  }
}

TEST(AcquireCore, GrantFromAFencedWorldIsDiscarded) {
  AcquireCore core;
  const AcquireCore::Arrival a = core.arrive();
  ASSERT_TRUE(core.grant(/*epoch=*/0));
  ASSERT_TRUE(core.ready(a.ticket));
  // A repair raised the fence to 1 between the grant and its consumer.
  EXPECT_FALSE(core.consume(/*fence=*/1, kStart));
  EXPECT_FALSE(core.ready(a.ticket));
  EXPECT_FALSE(core.holding());
  EXPECT_EQ(core.waiters(), 1);
  // The repair's re-request stands in for the fenced one; its grant from
  // the new world is consumed.
  EXPECT_TRUE(core.rerequest());
  ASSERT_TRUE(core.grant(/*epoch=*/1));
  EXPECT_TRUE(core.consume(/*fence=*/1, kStart));
  EXPECT_TRUE(core.holding());
}

TEST(AcquireCore, ReleaseAfterAFenceDoesNotChain) {
  HeldWithWaiter h;
  const auto out =
      h.core.release(kStart, /*fence=*/1, false, lease(16, 0), kSees, kNoRemote);
  EXPECT_EQ(out.kind, Kind::kReleased);
}

TEST(AcquireCore, TimedOutFrontWaiterPassesItsGrantToTheNextTicket) {
  AcquireCore core;
  const AcquireCore::Arrival first = core.arrive();
  const AcquireCore::Arrival second = core.arrive();
  ASSERT_TRUE(core.grant(0));
  EXPECT_TRUE(core.ready(first.ticket));
  EXPECT_FALSE(core.ready(second.ticket));
  core.leave(first.ticket);
  EXPECT_TRUE(core.ready(second.ticket));
  EXPECT_TRUE(core.consume(0, kStart));
  EXPECT_TRUE(core.holding());
  EXPECT_EQ(core.waiters(), 0);
}

TEST(AcquireCore, GrantWithNobodyWaitingGoesBack) {
  AcquireCore core;
  const AcquireCore::Arrival a = core.arrive();
  core.leave(a.ticket);
  EXPECT_FALSE(core.grant(0));
  // With the request cleared, the next arrival asks again.
  EXPECT_TRUE(core.arrive().request);
}

TEST(AcquireCore, AbandonedHoldMakesTheLaterUnlockAGhost) {
  HeldWithWaiter h;
  EXPECT_TRUE(h.core.abandon());
  EXPECT_EQ(h.core.release(kStart, 0, false, lease(16, 0), kSees, kNoRemote)
                .kind,
            Kind::kGhost);
  AcquireCore fresh;
  EXPECT_EQ(fresh.release(kStart, 0, false, lease(16, 0), kSees, kNoRemote)
                .kind,
            Kind::kNotHeld);
}

}  // namespace
}  // namespace dmx::service
