// Counts heap allocations to prove the typed tracing path — record_event,
// span markers, counter increments, histogram observations — is
// allocation-free at steady state (one warm-up event pays for the ring
// buffer reserve, nothing after).
//
// Like scheduler_alloc_test, it links the counting allocator and so lives
// in its own binary.
#include <gtest/gtest.h>


#include "rst/sim/metrics.hpp"
#include "rst/sim/trace.hpp"

#include "counting_allocator.hpp"

namespace rst::sim {
namespace {

using namespace rst::sim::literals;

using test_support::CountScope;

TEST(TraceAlloc, TypedRecordingIsAllocationFreeAfterWarmup) {
  Trace trace;
  // First event reserves the ring buffer — the one allowed allocation.
  trace.record_event(1_ms, Stage::DenmTx, 900, pack_action(900, 1));

  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) {
      trace.record_event(SimTime::milliseconds(i), Stage::CamTx, 1,
                         static_cast<std::uint64_t>(i));
      trace.span_begin(SimTime::milliseconds(i), Stage::DenmPoll, 0,
                       static_cast<std::uint64_t>(i));
      trace.span_end(SimTime::milliseconds(i), Stage::DenmPoll, 0,
                     static_cast<std::uint64_t>(i));
    }
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(trace.events().size(), 3001u);
}

TEST(TraceAlloc, RingOverflowDropPathIsAllocationFree) {
  Trace trace;
  trace.set_event_capacity(8);
  for (int i = 0; i < 8; ++i) trace.record_event(1_ms, Stage::CamTx, 1);
  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) trace.record_event(2_ms, Stage::CamTx, 1);
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(trace.events_dropped(), 1000u);
}

TEST(TraceAlloc, MetricsHotPathIsAllocationFree) {
  MetricsRegistry registry;
  // Registration allocates (map insert + bucket vectors); grab refs once.
  auto& counter = registry.counter("polls");
  auto& histogram = registry.histogram("latency_ms");
  histogram.observe(1.0);  // warm-up

  {
    CountScope scope;
    for (int i = 0; i < 1000; ++i) {
      counter.add();
      histogram.observe(static_cast<double>(i % 97) + 0.5);
    }
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(counter.value(), 1000u);
  EXPECT_EQ(histogram.count(), 1001u);
}

}  // namespace
}  // namespace rst::sim
