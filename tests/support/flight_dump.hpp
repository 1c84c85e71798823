// Flight-recorder dump on test failure.
//
// A gtest listener that prints the flight recorder's tail to stderr when
// a test fails, so the repro line a failing fault/transport test already
// emits is followed by the last structured runtime events that led up to
// it. Gated at runtime by DMX_FLIGHT_DUMP (the fault and transport ctest
// presets set it).
//
// Header-only by design: the test binaries are assembled by globbing
// tests/ (with tests/fault and tests/transport carved out into their own
// binaries), so a .cpp here would be pulled into the main binary. Each
// tier that wants the listener instead carries a one-line installer TU.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>

#include "telemetry/flight_recorder.hpp"

namespace dmx::testsupport {

class FlightDumpListener : public ::testing::EmptyTestEventListener {
 public:
  void OnTestEnd(const ::testing::TestInfo& info) override {
    if (!info.result()->Failed()) return;
    if (!telemetry::FlightRecorder::dump_on_failure_enabled()) return;
    std::fprintf(stderr, "[  FLIGHT  ] %s.%s failed; %s", info.test_suite_name(),
                 info.name(),
                 telemetry::FlightRecorder::dump_tail(64).c_str());
    std::fflush(stderr);
  }
};

/// Appends the listener to the global gtest registry. Call once per
/// binary from a TU-level initializer:
///   [[maybe_unused]] static const bool installed =
///       dmx::testsupport::install_flight_dump_listener();
inline bool install_flight_dump_listener() {
  ::testing::UnitTest::GetInstance()->listeners().Append(
      new FlightDumpListener);
  return true;
}

}  // namespace dmx::testsupport
