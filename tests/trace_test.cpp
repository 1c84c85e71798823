// Tests for the tracing module.
#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "core/neilsen_node.hpp"
#include "harness/probe.hpp"
#include "support/single_cs.hpp"
#include "topology/tree.hpp"
#include "trace/trace.hpp"

namespace dmx::trace {
namespace {

using testsupport::kCs;

std::unique_ptr<service::LockSpace> line_space(int n, NodeId holder) {
  return testsupport::single_cs(
      baselines::algorithm_by_name("Neilsen"),
      testsupport::cs_config(n, topology::Tree::line(n)), holder);
}

TEST(MessageTrace, RecordsSendsAndDeliveries) {
  const auto space = line_space(4, 1);
  MessageTrace trace;
  space->network().set_observer(&trace);

  harness::hold_and_release(*space, kCs, 3, 2);
  space->run_to_quiescence();

  // 2 REQUEST hops + 1 PRIVILEGE.
  ASSERT_EQ(trace.records().size(), 3u);
  for (const TraceRecord& record : trace.records()) {
    EXPECT_TRUE(record.delivered());
    EXPECT_GT(record.delivered_at, record.sent_at);
  }
  EXPECT_EQ(trace.count_matching("REQUEST"), 2u);
  EXPECT_EQ(trace.count_matching("PRIVILEGE"), 1u);
  // Hop rewriting is visible in the descriptions.
  EXPECT_EQ(trace.records()[0].description, "REQUEST(3,3)");
  EXPECT_EQ(trace.records()[1].description, "REQUEST(2,3)");
}

TEST(MessageTrace, DumpContainsRoutes) {
  const auto space = line_space(3, 1);
  MessageTrace trace;
  space->network().set_observer(&trace);
  harness::hold_and_release(*space, kCs, 2, 0);
  space->run_to_quiescence();
  const std::string dump = trace.dump();
  EXPECT_NE(dump.find("2 -> 1"), std::string::npos);
  EXPECT_NE(dump.find("REQUEST(2,2)"), std::string::npos);
}

TEST(MessageTrace, RecordsResourceLaneAndDumpsIt) {
  const auto space = line_space(3, 1);
  MessageTrace trace;
  space->network().set_observer(&trace);
  harness::hold_and_release(*space, kCs, 2, 0);
  space->run_to_quiescence();
  ASSERT_FALSE(trace.records().empty());
  // The space's first resource is lane 0; the field travels through
  // every envelope and lands in the dump.
  for (const TraceRecord& record : trace.records()) {
    EXPECT_EQ(record.resource, 0);
  }
  const std::string dump = trace.dump();
  EXPECT_NE(dump.find("r0  2 -> 1"), std::string::npos);
}

TEST(MessageTrace, ClearEmptiesRecords) {
  MessageTrace trace;
  const auto space = line_space(3, 1);
  space->network().set_observer(&trace);
  harness::hold_and_release(*space, kCs, 3, 0);
  space->run_to_quiescence();
  EXPECT_FALSE(trace.records().empty());
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
}

TEST(MessageTrace, LostMessageStaysUndelivered) {
  const auto space = line_space(3, 1);
  MessageTrace trace;
  space->network().set_observer(&trace);
  space->network().drop_next("REQUEST");
  space->acquire(kCs, 3);
  space->run_to_quiescence();
  // The drop happens before scheduling, so the observer never sees it; a
  // REQUEST that was sent but never delivered would show delivered_at=-1.
  for (const TraceRecord& record : trace.records()) {
    EXPECT_TRUE(record.delivered());
  }
}

TEST(RenderDag, ShowsEdgesSinksAndFollow) {
  const core::NeilsenNode n1 = core::NeilsenNode::restore(
      false, 2, kNilNode, core::NeilsenNode::CsStatus::kIdle);
  const core::NeilsenNode n2 = core::NeilsenNode::restore(
      true, kNilNode, kNilNode, core::NeilsenNode::CsStatus::kIdle);
  const core::NeilsenNode n3 = core::NeilsenNode::restore(
      false, kNilNode, 1, core::NeilsenNode::CsStatus::kWaiting);
  const std::string rendered = render_dag({nullptr, &n1, &n2, &n3});
  EXPECT_NE(rendered.find("1->2"), std::string::npos);
  EXPECT_NE(rendered.find("2:sink[H]"), std::string::npos);
  EXPECT_NE(rendered.find("3:sink[RF](follow 1)"), std::string::npos);
}

}  // namespace
}  // namespace dmx::trace
