// Counts heap allocations to prove the scheduler's hot paths are
// allocation-free in steady state:
//   - post_at / post_in with a small callback never allocate once the
//     event heap has reached its high-water capacity, and
//   - schedule_at reuses pooled handle-state nodes instead of hitting
//     the global heap per event.
//
// It links the counting allocator (counting_allocator.cpp), which replaces
// the global operator new/delete, so it lives in its own binary.
#include <gtest/gtest.h>

#include <vector>

#include "rst/sim/scheduler.hpp"

#include "counting_allocator.hpp"

namespace {

using rst::sim::Scheduler;
using rst::sim::SimTime;

using rst::test_support::CountScope;

TEST(SchedulerAlloc, FireAndForgetSteadyStateIsAllocationFree) {
  Scheduler sched;
  std::uint64_t fired = 0;

  // Warm-up: grow the event heap to its working-set size and let the
  // SmallFunction inline storage prove itself.
  for (int i = 0; i < 1024; ++i) {
    sched.post_in(SimTime::microseconds(i + 1), [&fired] { ++fired; });
  }
  sched.run();
  ASSERT_EQ(fired, 1024u);

  // Steady state: schedule and drain the same working set. The callback
  // fits SmallFunction's inline buffer, post_* skips handle allocation,
  // and the heap vector keeps its capacity, so nothing may allocate.
  {
    CountScope scope;
    for (int round = 0; round < 16; ++round) {
      for (int i = 0; i < 256; ++i) {
        sched.post_in(SimTime::microseconds(i + 1), [&fired] { ++fired; });
      }
      sched.run();
    }
    EXPECT_EQ(scope.count(), 0u)
        << "fire-and-forget scheduling allocated in steady state";
  }
  EXPECT_EQ(fired, 1024u + 16u * 256u);
}

/// The pattern every periodic service uses: a callback that re-posts
/// itself. Small enough for SmallFunction's inline storage.
struct Tick {
  Scheduler* sched;
  std::uint64_t* ticks;
  void operator()() const {
    ++*ticks;
    if (*ticks < 2048) sched->post_in(SimTime::milliseconds(1), Tick{sched, ticks});
  }
};

TEST(SchedulerAlloc, SelfReschedulingTimerIsAllocationFree) {
  Scheduler sched;
  std::uint64_t ticks = 0;
  sched.post_in(SimTime::milliseconds(1), Tick{&sched, &ticks});
  sched.run_until(SimTime::milliseconds(100));  // warm-up: 100 ticks

  const auto warm = ticks;
  {
    CountScope scope;
    sched.run();
    EXPECT_EQ(scope.count(), 0u) << "self-rescheduling timer allocated";
  }
  EXPECT_EQ(ticks, 2048u);
  EXPECT_GT(ticks, warm);
}

TEST(SchedulerAlloc, PooledHandlesReuseNodes) {
  // schedule_at allocates handle state from the slab pool: after the pool
  // has grown to cover the working set, further handle churn is
  // allocation-free too.
  Scheduler sched;
  std::uint64_t fired = 0;
  for (int i = 0; i < 512; ++i) {
    (void)sched.schedule_in(SimTime::microseconds(i + 1), [&fired] { ++fired; });
  }
  sched.run();

  {
    CountScope scope;
    for (int round = 0; round < 8; ++round) {
      for (int i = 0; i < 256; ++i) {
        (void)sched.schedule_in(SimTime::microseconds(i + 1), [&fired] { ++fired; });
      }
      sched.run();
    }
    EXPECT_EQ(scope.count(), 0u) << "pooled handle states hit the global heap";
  }
  EXPECT_EQ(fired, 512u + 8u * 256u);
}

TEST(SchedulerAlloc, CancelledEventsArePurgedWithoutAllocation) {
  Scheduler sched;
  std::uint64_t fired = 0;
  // Warm-up with the same mix.
  std::vector<rst::sim::EventHandle> handles;
  handles.reserve(256);
  for (int i = 0; i < 256; ++i) {
    handles.push_back(sched.schedule_in(SimTime::microseconds(i + 1), [&fired] { ++fired; }));
  }
  for (auto& h : handles) h.cancel();
  handles.clear();
  sched.run();
  ASSERT_EQ(fired, 0u);

  {
    CountScope scope;
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 128; ++i) {
        handles.push_back(sched.schedule_in(SimTime::microseconds(i + 1), [&fired] { ++fired; }));
      }
      for (auto& h : handles) h.cancel();
      handles.clear();
      sched.run();
    }
    EXPECT_EQ(scope.count(), 0u);
  }
  EXPECT_EQ(fired, 0u);
  EXPECT_GT(sched.purged_events() + sched.executed_events(), 0u);
}

}  // namespace
