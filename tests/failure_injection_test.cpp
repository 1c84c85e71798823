// Failure-injection tests.
//
// Chapter 2 assumes "the nodes are fully connected by a reliable
// network". These tests break that assumption deliberately and verify
// two things: (a) the assumption is load-bearing — a lost PRIVILEGE is a
// lost token, a lost REQUEST is a starved requester — and (b) the
// repository's invariant checking and stall detection actually catch the
// resulting damage instead of silently mis-running.
#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "workload/workload.hpp"

namespace dmx::harness {
namespace {

using testsupport::kCs;

std::unique_ptr<service::LockSpace> line_space(const char* algorithm, int n) {
  return testsupport::single_cs(
      baselines::algorithm_by_name(algorithm),
      testsupport::cs_config(n, topology::Tree::line(n)));
}

TEST(FailureInjection, DropCountingWorks) {
  const auto space = line_space("Neilsen", 4);
  space->network().drop_next("REQUEST");
  space->acquire(kCs, 3);
  space->run_to_quiescence();
  EXPECT_EQ(space->network().stats().total_dropped, 1u);
  EXPECT_EQ(space->network().stats().sent("REQUEST"), 1u);  // counted sent
  EXPECT_TRUE(space->is_waiting(kCs, 3));  // and the requester hangs
}

TEST(FailureInjection, LostPrivilegeIsDetectedAsTokenLoss) {
  const auto space = line_space("Neilsen", 4);
  // Node 3 requests; node 1 holds the token and will answer with a
  // PRIVILEGE, which we destroy in flight.
  space->network().drop_next("PRIVILEGE");
  space->acquire(kCs, 3);
  // Deliveries run until the REQUEST reaches node 1, whose PRIVILEGE
  // evaporates. The token-uniqueness invariant must now fail loudly.
  try {
    space->run_to_quiescence();
    space->check_invariants(kCs);
    FAIL() << "token loss went undetected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("token count is 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureInjection, DuplicatedPrivilegeIsDetectedAsForgedToken) {
  const auto space = line_space("Neilsen", 4);
  // Node 3 requests; node 1 answers with a PRIVILEGE, which the network
  // duplicates in flight. Two tokens now exist; the invariant checker
  // must refuse to let the run continue.
  space->network().duplicate_next("PRIVILEGE");
  space->acquire(kCs, 3);
  try {
    space->run_to_quiescence();
    FAIL() << "token duplication went undetected";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("token count is 2"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(space->network().stats().total_duplicated, 1u);
  // The duplicate is real traffic: both envelopes count as sent.
  EXPECT_EQ(space->network().stats().sent("PRIVILEGE"), 2u);
}

TEST(FailureInjection, DuplicatedRequestIsAbsorbedByRaymond) {
  // A duplicated REQUEST enqueues its sender twice at the receiver. The
  // stale entry acts as a phantom request — it costs an extra token
  // round-trip but never mints a second PRIVILEGE, so the run completes
  // with every invariant (checked after each event) intact. Contrast
  // with the duplicated-token cases, which must fail loudly.
  const auto space = line_space("Raymond", 3);
  space->network().duplicate_next("REQUEST");
  workload::WorkloadConfig wl;
  wl.target_entries = 50;
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);
  EXPECT_GE(result.entries, 50u);
  EXPECT_EQ(space->network().stats().total_duplicated, 1u);
}

TEST(FailureInjection, LostRequestStallsTheWorkload) {
  const auto space = line_space("Neilsen", 5);
  space->network().drop_next("REQUEST");
  workload::WorkloadConfig wl;
  wl.target_entries = 50;
  wl.participants = {5};  // its first REQUEST evaporates
  EXPECT_THROW(workload::run_workload(*space, kCs, wl), std::logic_error);
}

TEST(FailureInjection, LossyNetworkEventuallyViolatesOrStalls) {
  // Under sustained loss, a token algorithm must end in one of the two
  // detectable failure modes: token loss (invariant failure) or a stalled
  // workload (liveness failure). Silent success would be a bug in the
  // failure injection or the checkers.
  const auto space = line_space("Neilsen", 5);
  space->network().set_drop_probability(0.3);
  workload::WorkloadConfig wl;
  wl.target_entries = 2000;
  wl.seed = 3;
  bool detected = false;
  try {
    workload::run_workload(*space, kCs, wl);
  } catch (const std::logic_error&) {
    detected = true;
  }
  EXPECT_TRUE(detected);
}

TEST(FailureInjection, AssertionAlgorithmsStallRatherThanDoubleGrant) {
  // Ricart–Agrawala with a lost REPLY: the requester simply never
  // assembles N-1 replies. Mutual exclusion is never violated; the
  // workload stalls and the stall is detected.
  const auto space = line_space("Ricart-Agrawala", 4);
  space->network().drop_next("REPLY");
  workload::WorkloadConfig wl;
  wl.target_entries = 10;
  wl.participants = {2};
  EXPECT_THROW(workload::run_workload(*space, kCs, wl), std::logic_error);
}

TEST(FailureInjection, ZeroDropProbabilityIsHarmless) {
  const auto space = line_space("Neilsen", 4);
  space->network().set_drop_probability(0.0);
  workload::WorkloadConfig wl;
  wl.target_entries = 50;
  const workload::WorkloadResult result =
      workload::run_workload(*space, kCs, wl);
  EXPECT_GE(result.entries, 50u);
  EXPECT_EQ(space->network().stats().total_dropped, 0u);
}

TEST(FailureInjection, InvalidDropProbabilityRejected) {
  const auto space = line_space("Neilsen", 3);
  EXPECT_THROW(space->network().set_drop_probability(-0.1),
               std::logic_error);
  EXPECT_THROW(space->network().set_drop_probability(1.5),
               std::logic_error);
}

}  // namespace
}  // namespace dmx::harness
